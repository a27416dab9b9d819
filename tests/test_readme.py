"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

from weylcalc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples() -> list:
    """argv of every ``weylcalc ...`` command in the ``sh`` block of the
    README's command-line section, comments and line continuations dropped."""
    section = README.read_text(encoding="utf-8").split("## Command-line interface")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    words = shlex.split(block.replace("\\\n", " "), comments=True)
    starts = [i for i, word in enumerate(words) if word == "weylcalc"]
    return [words[i + 1 : j] for i, j in zip(starts, starts[1:] + [len(words)])]


def test_readme_cli_examples_run(tmp_path, capsys):
    examples = _cli_examples()
    assert [argv[0] for argv in examples] == [
        "kernel", "commutator-check", "eigencheck", "complete-fit",
        "construct-orbit", "decompose",
    ]
    for i, argv in enumerate(examples):
        assert main(argv + ["--outdir", str(tmp_path / str(i))]) == 0, argv
        if argv[0] == "construct-orbit":
            assert "schedule [5, 10]" in capsys.readouterr().out
