"""The README's command-line examples run as written."""

from conftest import readme_cli_examples
from weylcalc.cli import main


def test_readme_cli_examples_run(tmp_path, capsys):
    examples = readme_cli_examples()
    assert [argv[0] for argv in examples] == [
        "kernel", "commutator-check", "eigencheck", "complete-fit",
        "construct-orbit", "decompose",
    ]
    for i, argv in enumerate(examples):
        assert main(argv + ["--outdir", str(tmp_path / str(i))]) == 0, argv
        if argv[0] == "construct-orbit":
            assert "schedule [5, 10]" in capsys.readouterr().out
