"""CLI exit codes, artifacts and determinism."""

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import readme_cli_examples
from test_serialize import _reference_csv
import weylcalc.cli
import weylcalc.eigen
import weylcalc.series
from weylcalc.cli import COUNTS_MAX, GRID_MAX, LAMBDA_COUNT_MAX, ORDER_MAX, main
from weylcalc.operators import commutator_matrix, diff_op
from weylcalc.serialize import parse_operator_spec

D_MINUS_Z = '{"d":[[0,0],[1,0]],"a":[1,0]}'
D2_MINUS_Z = '{"d":[[0,0],[0,0],[1,0]],"a":[1,0]}'
TARGETS = '[{"coeffs":[[1,0]],"label":"1"},{"coeffs":[[0,0],[1,0]],"label":"z"}]'


@pytest.fixture(autouse=True)
def fixed_timestamp(monkeypatch):
    monkeypatch.setenv("WEYLCALC_TIMESTAMP", "2026-01-01T00:00:00+00:00")


def test_usage_error_exits_2(capsys):
    assert main(["nonsense"]) == 2


def test_missing_required_flag_exits_2():
    assert main(["kernel"]) == 2


def test_malformed_operator_exits_2(tmp_path, capsys):
    code = main(["kernel", "--op", '{"a":[1,0]}', "--outdir", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_zero_operator_exits_2(tmp_path):
    assert main(["kernel", "--op", '{"d":[[0,0]]}', "--outdir", str(tmp_path)]) == 2


def test_boolean_coefficient_exits_2(tmp_path):
    # JSON true is not a number, although Python's bool is an int
    op = '{"d":[[0,0],[true,0]],"a":[1,0]}'
    assert main(["kernel", "--op", op, "--outdir", str(tmp_path)]) == 2


def test_commutator_ncap_above_cap_exits_2(tmp_path):
    code = main(["commutator-check", "--op", D_MINUS_Z, "--ncap", "100000",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "commutator_check.json").exists()


@pytest.mark.parametrize("command", ["commutator-check", "decompose"])
@pytest.mark.parametrize("ncap", ["0", "513"])
def test_ncap_out_of_range_exits_2(tmp_path, capsys, command, ncap):
    code = main([command, "--op", D_MINUS_Z, "--ncap", ncap, "--outdir", str(tmp_path)])
    assert code == 2
    assert f"--ncap: expected a value in 1..512, got {ncap}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["commutator-check", "decompose"])
def test_ncap_one_is_accepted(tmp_path, command):
    assert main([command, "--op", D_MINUS_Z, "--ncap", "1", "--outdir", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["kernel", "--op", D_MINUS_Z],
    ["eigencheck", "--op", D_MINUS_Z],
    ["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("radius", ["nan", "0", "-1", "inf"])
def test_bad_radius_exits_2(tmp_path, capsys, argv, radius):
    code = main(argv + [f"--radius={radius}", "--outdir", str(tmp_path)])
    assert code == 2
    assert "--radius: expected a finite positive number" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_commutator_past_the_double_range_exits_1(tmp_path, capsys):
    # d_1 = 1e300 and L(T) = T^3: the input is valid, but entries of
    # [L(T), D] round to infinity, an outcome rather than bad input
    op = '{"d":[[0,0],[1e300,0]],"a":[1,0],"L":[[0,0],[0,0],[0,0],[1,0]]}'
    code = main(["commutator-check", "--op", op, "--ncap", "8",
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "non-finite value inf cannot be serialized" in capsys.readouterr().err
    assert not (tmp_path / "commutator_check.json").exists()
    err = json.loads((tmp_path / "commutator_check_error.json").read_text())
    assert err["error"]["type"] == "NonFiniteCoefficient"


def _negative_result(argv, outdir, capsys) -> str:
    """Run the CLI in this process: exit 1 and the one line "negative
    result: ..." on stderr.  The suite makes a RuntimeWarning an error, so
    a numpy overflow warning escaping a subcommand fails the test."""
    code = main(argv + ["--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("negative result: ") and err.count("\n") == 1
    return err


#: what overflowed, by command
_OVERFLOWS = {
    "eigencheck": "eigenfunction coefficients at |lambda| up to 600 leave the "
                  "double range",
    "kernel": "kernel residual on the disk of radius 1e+300 leaves the double range",
}


@pytest.mark.parametrize("argv", [
    ["eigencheck", "--op", D_MINUS_Z, "--lam-max", "600"],
    ["kernel", "--op", D_MINUS_Z, "--radius", "1e300"],
])
def test_result_past_the_double_range_exits_1(tmp_path, capsys, argv):
    message = _OVERFLOWS[argv[0]]
    assert _negative_result(argv, tmp_path, capsys) == f"negative result: {message}\n"
    err = json.loads((tmp_path / f"{argv[0]}_error.json").read_text())
    assert err["error"] == {"type": "NonFiniteCoefficient", "message": message}


def test_exponential_family_past_the_double_range_names_lambda(tmp_path, capsys):
    # a = 0: the exponential rows overflow, and the message names the
    # largest |lambda| as it does for a translate family
    argv = ["eigencheck", "--op", '{"d":[[0,0],[1,0]],"a":[0,0]}',
            "--lam-max", "1e300"]
    message = ("eigenfunction coefficients at |lambda| up to 1e+300 leave the "
               "double range")
    assert _negative_result(argv, tmp_path, capsys) == f"negative result: {message}\n"
    err = json.loads((tmp_path / "eigencheck_error.json").read_text())
    assert err["error"] == {"type": "NonFiniteCoefficient", "message": message}


def test_outcome_with_an_infinite_diagnostic_exits_1(tmp_path):
    # [Op, D] of a finite matrix overflows to inf: no diagnostic could
    # hold it, so the overflow itself is the outcome.  Run in a process of
    # its own, outside the suite's warning filters, to see stderr as a
    # user does: the one line, no numpy warning
    entries = [[[0.0, 0.0]] * 2 for _ in range(3)]
    entries[2][0] = [1.7e308, 0.0]
    src = str(Path(weylcalc.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "weylcalc.cli", "decompose",
         "--matrix", json.dumps({"entries": entries}), "--outdir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "negative result: [Op, D] of the matrix leaves the double range\n"
    )
    err = json.loads((tmp_path / "decompose_error.json").read_text())
    assert err["error"]["type"] == "NonFiniteCoefficient"


KERNEL_FILES = ["kernel_basis.json", "kernel_residuals.csv", "kernel_residuals.csv.manifest.json"]


@pytest.mark.parametrize("argv, code, stream, text, names", [
    (["kernel", "--op", D2_MINUS_Z, "--terms", "40"], 0, "stdout",
     "kernel basis: 2 solution(s)", KERNEL_FILES),
    (["kernel", "--help"], 0, "stdout", "usage: weylcalc kernel", []),
    (["kernel", "--op", D2_MINUS_Z, "--terms", "0"], 2, "stderr",
     "weylcalc kernel: error: argument --terms", []),
], ids=["kernel", "help", "usage-error"])
def test_process_ends_with_all_its_output(tmp_path, capsys, monkeypatch,
                                          argv, code, stream, text, names):
    # a CLI process flushes stdout and stderr, then skips the interpreter's
    # teardown: through pipes, block-buffered as a user's are, it prints and
    # writes what main does in process
    monkeypatch.setenv("COLUMNS", "80")  # one width for argparse's help
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    src = str(Path(weylcalc.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "weylcalc.cli", *argv, "--outdir", str(tmp_path / "cold")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == code
    streams = {"stdout": proc.stdout, "stderr": proc.stderr}
    assert text in streams.pop(stream) and streams.popitem()[1] == ""
    assert main(argv + ["--outdir", str(tmp_path / "warm")]) == code
    assert (proc.stdout, proc.stderr) == capsys.readouterr()
    cold = tmp_path / "cold"
    assert sorted(p.name for p in cold.glob("*")) == names
    if not names:
        assert not cold.exists()
    for name in names:
        assert (cold / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()
    if names:
        assert len(json.loads((cold / "kernel_basis.json").read_text())["solutions"]) == 2


def test_decompose_with_a_nan_commutator_exits_1(tmp_path, capsys):
    # finite entries, but [Op, D] at row 1, column 2 is 2 e[1][1] - 2 e[2][2]
    # = inf - inf; a NaN off-diagonal max would pass the NotWeyl test
    entries = [[[0.0, 0.0]] * 3 for _ in range(4)]
    entries[1][1] = entries[2][2] = [1.7e308, 0.0]
    err = _negative_result(["decompose", "--matrix", json.dumps({"entries": entries})],
                           tmp_path, capsys)
    assert err == "negative result: [Op, D] of the matrix leaves the double range\n"
    doc = json.loads((tmp_path / "decompose_error.json").read_text())
    assert doc["error"]["type"] == "NonFiniteCoefficient"


@pytest.mark.parametrize("argv", [
    ["construct-orbit", "--problem", json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0], [1, 0]]}],
        "radius": 1e6,
    })],
    ["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS, "--radius", "1e6"],
])
def test_member_values_past_the_double_range_exit_1(tmp_path, capsys, argv):
    # the members overflow on the radius-1e6 circles: an overflow, not a
    # collocation SVD that failed to converge
    _negative_result(argv, tmp_path, capsys)
    name = argv[0].replace("-", "_")
    err = json.loads((tmp_path / f"{name}_error.json").read_text())
    assert err["error"] == {
        "type": "NonFiniteCoefficient",
        "message": "member values on the disk of radius 1e+06 leave the double range",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{name}_error.json"]


def test_complete_fit_error_manifest_records_the_parsed_counts(tmp_path, capsys):
    # as the success manifest does: the list, not the text of --counts
    _negative_result(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                      "--radius", "1e6"], tmp_path, capsys)
    doc = json.loads((tmp_path / "complete_fit_error.json").read_text())
    assert doc["manifest"]["parameters"]["counts"] == [5, 10, 20, 40]


@pytest.mark.parametrize("what, key, argv", [
    ("operator", "l", ["eigencheck", "--op",
                       '{"d":[[0,0],[1,0]],"a":[1,0],"l":[[0,0],[1,0],[1,0]]}']),
    ("series", "lable", ["complete-fit", "--op", D_MINUS_Z,
                         "--targets", '[{"coeffs":[[1,0]],"lable":"1"}]']),
    ("--problem", "epsilom", ["construct-orbit", "--problem", json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0]]}],
        "epsilom": 1e-9,
    })]),
    ("--matrix", "n_cap", ["decompose", "--matrix",
                           '{"entries":[[[1,0],[0,0]],[[0,0],[1,0]]],"n_cap":1}']),
], ids=["operator", "series", "problem", "matrix"])
def test_unknown_key_exits_2(tmp_path, capsys, what, key, argv):
    # a misspelt key would otherwise be ignored and its default used: "l"
    # checks T instead of L(T), "epsilom" runs at epsilon = 0.1
    code = main(argv + ["--outdir", str(tmp_path)])
    assert code == 2
    assert f"error: {what}: unknown key(s) '{key}'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


_COMMAND_FLAGS = {
    "kernel": ["--op", "--terms", "--radius"],
    "commutator-check": ["--op", "--ncap"],
    "eigencheck": ["--op", "--grid", "--lam-max", "--order", "--radius"],
    "complete-fit": ["--op", "--targets", "--preset", "--counts", "--seed",
                     "--ridge", "--order", "--radius"],
    "construct-orbit": ["--problem", "--lambda-count", "--margin", "--ridge",
                        "--order"],
    "decompose": ["--op", "--matrix", "--ncap"],
}


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_help_lists_the_flags_of_the_command(capsys, command):
    assert main([command, "--help"]) == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--outdir", *_COMMAND_FLAGS[command]}


_BAD_PAIR_FIELDS = {
    "operator.d": ["commutator-check", "--op", '{"d":[[0,0],[X,0]],"a":[1,0]}'],
    "operator.a": ["commutator-check", "--op", '{"d":[[0,0],[1,0]],"a":[1,X]}'],
    "operator.L": ["commutator-check", "--op",
                   '{"d":[[0,0],[1,0]],"a":[1,0],"L":[[0,0],[X,0]]}'],
    "series.coeffs": ["complete-fit", "--op", D_MINUS_Z,
                      "--targets", '[{"coeffs":[[1,0],[X,0]]}]'],
    "--matrix: entries": ["decompose", "--matrix",
                          '{"entries":[[[1,0],[0,0]],[[-1,0],[X,0]],[[0,0],[-1,0]]]}'],
}


@pytest.mark.parametrize("value", ["1" + "0" * 400, "NaN", "Infinity", "-Infinity",
                                   "true"],
                         ids=["10**400", "NaN", "Infinity", "-Infinity", "true"])
@pytest.mark.parametrize("field", sorted(_BAD_PAIR_FIELDS))
def test_pair_outside_the_doubles_exits_2(tmp_path, capsys, field, value):
    argv = [a.replace("X", value) for a in _BAD_PAIR_FIELDS[field]]
    code = main(argv + ["--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {field}: expected an [re, im] pair of finite numbers" in err
    assert len(err) < 200  # a long value is not echoed in full
    assert not any(tmp_path.iterdir())


def test_negative_seed_exits_2(tmp_path, capsys):
    code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                 "--preset", "random", "--seed", "-1", "--outdir", str(tmp_path)])
    assert code == 2
    assert "--seed: expected an integer >= 0, got -1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_coefficients_that_are_not_a_list_exit_2(tmp_path, capsys):
    problem = json.dumps({"operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
                          "targets": [{"coeffs": 5}]})
    code = main(["construct-orbit", "--problem", problem, "--outdir", str(tmp_path)])
    assert code == 2
    assert "series: expected an object with a 'coeffs' list" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("content", [
    b'{"d": [[0, 0], [1' + b"0" * 5000 + b', 0]]}',  # past the int-parsing limit
    b"[" * 100000,  # nested past the recursion limit
    b'{"d": [[0, 0], [1, 0]], "label": "\xff"}',  # not UTF-8
], ids=["long-integer", "deep-nesting", "not-utf8"])
def test_unreadable_operator_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "op.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    code = main(["commutator-check", "--op", str(path), "--outdir", str(out)])
    assert code == 2
    assert "error: --op:" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_artifacts(tmp_path, capsys):
    code = main(["kernel", "--op", D2_MINUS_Z, "--terms", "40",
                 "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "kernel_basis.json").read_text())
    assert len(doc["solutions"]) == 2
    assert max(doc["residuals"]) <= 1e-10
    assert doc["manifest"]["command"] == "kernel"
    csv_lines = (tmp_path / "kernel_residuals.csv").read_text().splitlines()
    assert csv_lines[0] == "solution_index,residual"
    assert len(csv_lines) == 3
    assert (tmp_path / "kernel_residuals.csv.manifest.json").exists()


def test_kernel_cut_by_overflow_guard_writes_its_length(tmp_path, capsys):
    # d_1 = 1e-60 makes the recurrence pass OVERFLOW_GUARD within a few terms
    code = main(["kernel", "--op", '{"d":[[0,0],[1e-60,0]],"a":[1,0]}',
                 "--terms", "200", "--outdir", str(tmp_path)])
    assert code == 0
    (sol,) = json.loads((tmp_path / "kernel_basis.json").read_text())["solutions"]
    assert set(sol) == {"label", "coeffs"} and len(sol["coeffs"]) < 200


def test_kernel_on_a_circle_where_the_powers_of_r_overflow(tmp_path, capsys):
    # 10^k leaves the double range at k = 309, where the coefficients of
    # exp(z^2/2) have long underflowed to zero: each c_k 10^k stays finite
    code = main(["kernel", "--op", D_MINUS_Z, "--terms", "512", "--radius", "10",
                 "--outdir", str(tmp_path)])
    assert code == 0
    (residual,) = json.loads((tmp_path / "kernel_basis.json").read_text())["residuals"]
    assert residual == pytest.approx(1379745.0131211416, rel=1e-12)


@pytest.mark.parametrize("command", ["kernel", "eigencheck"])
def test_kernel_recurrence_past_the_guard_at_its_first_step(tmp_path, capsys, command):
    # c_1 = -1 / 1e-300: the guard leaves no coefficient for T to act on
    code = main([command, "--op", '{"d":[[1,0],[1e-300,0]],"a":[1,0]}',
                 "--outdir", str(tmp_path)])
    assert code == 1
    message = (
        "kernel recurrence: coefficient c_1 of solution 0 has magnitude "
        "1.000e+300, past OVERFLOW_GUARD = 1.0e+150, at the first step: no "
        "coefficient beyond the initial conditions"
    )
    assert message in capsys.readouterr().err
    error = json.loads((tmp_path / f"{command}_error.json").read_text())["error"]
    assert error == {"type": "OrderExhausted", "message": message}


def test_kernel_convolution_case_exits_1(tmp_path, capsys):
    code = main(["kernel", "--op", '{"d":[[0,0],[1,0]]}',
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert (tmp_path / "kernel_error.json").exists()


def test_commutator_check_report(tmp_path, capsys):
    code = main(["commutator-check", "--op", D_MINUS_Z, "--ncap", "32",
                 "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "commutator_check.json").read_text())
    assert doc["a_estimate"] == [1.0, 0.0]
    assert doc["offdiag_max"] <= 1e-12
    assert doc["diag_spread"] <= 1e-12


def test_commutator_csv_matches_a_per_entry_rendering(tmp_path):
    # the largest artifact the CLI writes; nearly every entry is +0.0
    code = main(["commutator-check", "--op", D2_MINUS_Z, "--ncap", "256",
                 "--outdir", str(tmp_path)])
    assert code == 0
    op = parse_operator_spec(json.loads(D2_MINUS_Z))
    entries = commutator_matrix(op, diff_op(1), 256)
    expected = "row,col,re,im\n" + "".join(
        f"{r},{c},{float(v.real):.17g},{float(v.imag):.17g}\n"
        for (r, c), v in np.ndenumerate(entries)
    )
    assert (tmp_path / "commutator_matrix.csv").read_bytes() == expected.encode()


def test_commutator_csv_equals_the_cell_by_cell_reference(tmp_path):
    # D - zI at --ncap 256: 65,792 rows in 17 blocks, all but the 256
    # diagonal cells +0.0
    code = main(["commutator-check", "--op", D_MINUS_Z, "--ncap", "256",
                 "--outdir", str(tmp_path)])
    assert code == 0
    entries = commutator_matrix(parse_operator_spec(json.loads(D_MINUS_Z)), diff_op(1), 256)
    rows, cols = np.indices(entries.shape)
    expected = _reference_csv(["row", "col", "re", "im"],
                              [rows, cols, entries.real, entries.imag])
    assert (tmp_path / "commutator_matrix.csv").read_bytes() == expected


def test_eigencheck_with_composite(tmp_path):
    op = '{"d":[[0,0],[1,0]],"a":[1,0],"L":[[0,0],[1,0],[1,0]]}'
    code = main(["eigencheck", "--op", op, "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "eigencheck.json").read_text())
    assert doc["worst_eigen_residual"] <= 1e-6
    assert doc["worst_composite_residual"] <= 1e-5
    header = (tmp_path / "eigencheck_grid.csv").read_text().splitlines()[0]
    assert header == "lam_re,lam_im,eigen_residual,composite_residual"


def test_complete_fit_curve(tmp_path):
    code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                 "--ridge", "0", "--outdir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "residual_curve.csv").read_text().splitlines()
    # header + 2 targets x 4 counts
    assert len(lines) == 9
    doc = json.loads((tmp_path / "complete_fit.json").read_text())
    assert all(fit["status"] == "ok" for fit in doc["fits"])


def test_complete_fit_quotes_text_cells_of_the_curve(tmp_path):
    # labels with a comma, a quote or a line break are quoted as RFC 4180
    # quotes them, so the curve reads back with one field per column
    labels = ["a,b", 'say "hi"', "line\nbreak", "cr\rhere", "z^2"]
    targets = json.dumps([{"coeffs": [[1, 0]] * (i + 1), "label": label}
                          for i, label in enumerate(labels)])
    code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", targets,
                 "--counts", "5", "--outdir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "residual_curve.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [7] * (1 + len(labels))
    assert [row[1] for row in rows[1:]] == labels
    text = (tmp_path / "residual_curve.csv").read_text(encoding="utf-8")
    assert "\n4,z^2,5," in text


def test_complete_fit_bad_counts_exits_2(tmp_path, capsys):
    for counts in ("", "a", "5,x", "1.5"):
        code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                     "--counts", counts, "--outdir", str(tmp_path)])
        assert code == 2
        assert "--counts: expected" in capsys.readouterr().err
    assert not (tmp_path / "complete_fit.json").exists()


@pytest.mark.parametrize("counts", ["0", "5,0", "-3", "100000"])
def test_complete_fit_counts_out_of_range_exits_2(tmp_path, capsys, counts):
    code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                 "--counts", counts, "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--counts: expected a value in 1..{LAMBDA_COUNT_MAX}" in err
    assert not (tmp_path / "complete_fit.json").exists()


def test_complete_fit_too_many_counts_exits_2(tmp_path, capsys):
    counts = ",".join(["5"] * (COUNTS_MAX + 1))
    code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                 "--counts", counts, "--outdir", str(tmp_path)])
    assert code == 2
    assert f"list of 1..{COUNTS_MAX} integers" in capsys.readouterr().err


def test_complete_fit_duplicate_count_gives_two_rows(tmp_path):
    code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                 "--counts", "5,5", "--outdir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "residual_curve.csv").read_text().splitlines()
    # header + 2 targets x 2 counts, the repeated count giving the same row
    assert len(lines) == 5
    assert lines[1] == lines[2] and lines[3] == lines[4]


def test_complete_fit_svd_failure_gives_a_row_per_target(tmp_path, monkeypatch):
    # the bases are built up front, but a count whose SVD fails still
    # gives one conditioning-failure row per target
    svd = np.linalg.svd

    def failing_svd(a, *args, **kwargs):
        if a.shape[1] == 10:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                 "--counts", "5,10", "--outdir", str(tmp_path)])
    assert code == 0
    fits = json.loads((tmp_path / "complete_fit.json").read_text())["fits"]
    assert [(f["target"], f["count"], f["status"]) for f in fits] == [
        (0, 5, "ok"), (0, 10, "conditioning-failure"),
        (1, 5, "ok"), (1, 10, "conditioning-failure"),
    ]
    assert fits[1]["detail"] == "collocation SVD failed: SVD did not converge"
    assert fits[3]["detail"] == fits[1]["detail"]
    lines = (tmp_path / "residual_curve.csv").read_text().splitlines()
    assert lines[2] == "0,1,10,inf,inf,1e-10,conditioning-failure"
    assert lines[4] == "1,z,10,inf,inf,1e-10,conditioning-failure"


def test_complete_fit_solves_at_the_ridge_asked_for(tmp_path):
    # for the constant 1e304 the Tikhonov weights at ridge 1e-10 leave the
    # double range at |Lambda| = 10, and no larger ridge is tried there
    code = main(["complete-fit", "--op", D_MINUS_Z,
                 "--targets", '[{"coeffs":[[1e304,0]],"label":"c"}]',
                 "--outdir", str(tmp_path)])
    assert code == 0
    fits = json.loads((tmp_path / "complete_fit.json").read_text())["fits"]
    assert [(f["count"], f["status"]) for f in fits] == [
        (5, "ok"), (10, "conditioning-failure"), (20, "ok"), (40, "ok"),
    ]
    assert fits[1]["detail"] == (
        "Tikhonov weights at ridge 1.0e-10 leave the double range for |Lambda| = 10"
    )
    assert [f["ridge"] for f in fits if f["status"] == "ok"] == [1e-10] * 3
    lines = (tmp_path / "residual_curve.csv").read_text().splitlines()
    assert [line.split(",")[5] for line in lines[1:]] == ["1e-10"] * 4


def test_complete_fit_failure_of_one_target_leaves_the_others(tmp_path):
    # all targets of a count are fitted in one solve, but the Tikhonov
    # weights of 1e304 leaving the double range at |Lambda| = 10 are that
    # target's conditioning failure alone
    code = main(["complete-fit", "--op", D_MINUS_Z,
                 "--targets", '[{"coeffs":[[1e304,0]],"label":"c"},'
                              '{"coeffs":[[1,0]],"label":"one"}]',
                 "--outdir", str(tmp_path)])
    assert code == 0
    fits = json.loads((tmp_path / "complete_fit.json").read_text())["fits"]
    assert [(f["label"], f["count"], f["status"]) for f in fits] == [
        ("c", 5, "ok"), ("c", 10, "conditioning-failure"), ("c", 20, "ok"),
        ("c", 40, "ok"),
        ("one", 5, "ok"), ("one", 10, "ok"), ("one", 20, "ok"), ("one", 40, "ok"),
    ]
    assert fits[1]["detail"] == (
        "Tikhonov weights at ridge 1.0e-10 leave the double range for |Lambda| = 10"
    )


def test_complete_fit_names_the_first_overflow_in_target_major_order(tmp_path, capsys):
    # the residual of 2e304 leaves the double range at |Lambda| = 40 only,
    # that of 1e305 already at 5: the first (target, count) pair in the
    # order of the report is named, not the first count
    _negative_result(["complete-fit", "--op", D_MINUS_Z, "--targets",
                      '[{"coeffs":[[2e304,0]],"label":"a"},'
                      '{"coeffs":[[1e305,0]],"label":"b"}]'],
                     tmp_path, capsys)
    err = json.loads((tmp_path / "complete_fit_error.json").read_text())["error"]
    assert err == {
        "type": "NonFiniteCoefficient",
        "message": "target 'a': fit residual at |Lambda| = 40 leaves the double range",
        "target_index": 0,
        "lambda_count": 40,
    }


@pytest.mark.parametrize("command, calls", [("complete-fit", 4), ("construct-orbit", 6)])
def test_readme_runs_take_one_svd_per_matrix(tmp_path, monkeypatch, command, calls):
    # one SVD per basis, worked out by its first fit, and one per stacked
    # orbit system (steps 1 to 5, schedule [5, 10]), each called from
    # weylcalc.eigen, where the benchmark's tracer looks for them
    callers = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals.get("__name__"))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    [argv] = [a for a in readme_cli_examples() if a[0] == command]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--outdir", str(tmp_path)]) == 0
    assert callers == ["weylcalc.eigen"] * calls


def test_complete_fit_translates_each_lambda_once(tmp_path, monkeypatch):
    # the union of 1/k for k <= 40 has 40 points; per-fit bases would
    # translate 3 x (5 + 10 + 20 + 40) = 225 times
    calls = []
    member_coeffs = weylcalc.eigen._member_coeffs

    def counted(family, lams):
        calls.extend(lams)
        return member_coeffs(family, lams)

    monkeypatch.setattr(weylcalc.eigen, "_member_coeffs", counted)
    targets = json.dumps(json.loads(TARGETS) + [{"coeffs": [[0, 0], [0, 0], [1, 0]]}])
    code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", targets,
                 "--preset", "inverse", "--counts", "5,10,20,40",
                 "--outdir", str(tmp_path)])
    assert code == 0
    assert len(calls) == 40


def test_complete_fit_evaluates_each_target_once(tmp_path, monkeypatch):
    # one call for the members of every count and one for every target,
    # on all five circles, not one per target and count
    calls = []
    evaluate_grid = weylcalc.series.evaluate_grid

    def counted(coeffs, circles):
        calls.append((np.shape(coeffs), len(circles)))
        return evaluate_grid(coeffs, circles)

    for module in (weylcalc.cli, weylcalc.eigen):
        monkeypatch.setattr(module, "evaluate_grid", counted)
    code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                 "--preset", "inverse", "--counts", "5,10,20",
                 "--outdir", str(tmp_path)])
    assert code == 0
    assert calls == [((20, 128), 5), ((2, 2), 5)]


def test_complete_fit_residual_past_the_double_range_exits_1(tmp_path, capsys):
    # the fit of 1e305 overflows: its residual is refused, naming the
    # target and |Lambda|, not reported as an ok fit
    _negative_result(["complete-fit", "--op", D_MINUS_Z, "--targets",
                      '[{"coeffs":[[1e305,0]],"label":"big"}]', "--counts", "5,10"],
                     tmp_path, capsys)
    err = json.loads((tmp_path / "complete_fit_error.json").read_text())["error"]
    assert err == {
        "type": "NonFiniteCoefficient",
        "message": "target 'big': fit residual at |Lambda| = 5 leaves the double range",
        "target_index": 0,
        "lambda_count": 5,
    }


@pytest.mark.parametrize("op, batches", [
    (D_MINUS_Z, [49]),
    ('{"d":[[0,0],[1,0]],"a":[1,0],"L":[[0,0],[1,0],[1,0]]}', [49, 49]),
], ids=["T1", "L(T1)"])
def test_eigencheck_builds_its_members_in_one_batch(tmp_path, monkeypatch, op, batches):
    # one batched build for T and one more for L(T), not a translate per
    # lambda and operator
    calls, translates = [], []
    member_coeffs = weylcalc.eigen._member_coeffs
    translate = weylcalc.series.translate

    def counted(family, lams):
        calls.append(len(lams))
        return member_coeffs(family, lams)

    def counted_translate(f, lam):
        translates.append(lam)
        return translate(f, lam)

    # patched wherever the names are bound, so a build outside eigen counts
    for name, module in list(sys.modules.items()):
        if name == "weylcalc" or name.startswith("weylcalc."):
            if getattr(module, "_member_coeffs", None) is member_coeffs:
                monkeypatch.setattr(module, "_member_coeffs", counted)
            if getattr(module, "translate", None) is translate:
                monkeypatch.setattr(module, "translate", counted_translate)
    code = main(["eigencheck", "--op", op, "--grid", "7", "--outdir", str(tmp_path)])
    assert code == 0
    assert calls == batches
    assert translates == []


@pytest.mark.parametrize("count", ["0", "100000"])
def test_construct_orbit_lambda_count_out_of_range_exits_2(tmp_path, capsys, count):
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0]]}],
    })
    code = main(["construct-orbit", "--problem", problem,
                 "--lambda-count", count, "--outdir", str(tmp_path)])
    assert code == 2
    assert "--lambda-count: expected a value in 1.." in capsys.readouterr().err
    assert not (tmp_path / "orbit.json").exists()


@pytest.mark.parametrize("grid", ["0", str(GRID_MAX + 1)])
def test_eigencheck_grid_out_of_range_exits_2(tmp_path, capsys, grid):
    code = main(["eigencheck", "--op", D_MINUS_Z, "--grid", grid,
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert f"--grid: expected a value in 1..{GRID_MAX}" in capsys.readouterr().err
    assert not (tmp_path / "eigencheck.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-2"])
def test_eigencheck_bad_lam_max_exits_2(tmp_path, capsys, value):
    code = main(["eigencheck", "--op", D_MINUS_Z, f"--lam-max={value}",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "--lam-max: expected a finite number >= 0" in capsys.readouterr().err
    assert not (tmp_path / "eigencheck.json").exists()


def test_construct_orbit_artifacts(tmp_path):
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0], "L": [[0, 0], [1, 0]]},
        "targets": json.loads(TARGETS),
        "radius": 1.0,
        "epsilon": 0.1,
    })
    code = main(["construct-orbit", "--problem", problem,
                 "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "orbit.json").read_text())
    assert doc["report"]["all_targets_met"] is True
    assert doc["schedule"] == sorted(doc["schedule"])
    lines = (tmp_path / "orbit_errors.csv").read_text().splitlines()
    assert lines[0] == "j,n_j,achieved_error,method_discrepancy"
    assert len(lines) == 3


def test_construct_orbit_of_t_is_that_of_l_t_equal_t(tmp_path):
    # without "L" the orbit is that of T itself, and the manifest records
    # the operator as given
    t = {"d": [[0, 0], [1, 0]], "a": [1, 0]}
    docs = {}
    for name, operator in [("t", t), ("l", {**t, "L": [[0, 0], [1, 0]]})]:
        problem = json.dumps({"operator": operator, "targets": json.loads(TARGETS)})
        assert main(["construct-orbit", "--problem", problem,
                     "--outdir", str(tmp_path / name)]) == 0
        doc = json.loads((tmp_path / name / "orbit.json").read_text())
        docs[name] = (doc.pop("manifest"), doc,
                      (tmp_path / name / "orbit_errors.csv").read_bytes())
    (manifest_t, doc_t, csv_t), (manifest_l, doc_l, csv_l) = docs["t"], docs["l"]
    assert doc_t == doc_l
    assert csv_t == csv_l
    assert "L" not in manifest_t["parameters"]["operator"]
    assert manifest_l["parameters"]["operator"]["L"] == [[0.0, 0.0], [1.0, 0.0]]
    manifest_l["parameters"]["operator"].pop("L")
    assert manifest_t == manifest_l


def test_construct_orbit_lambda_count_times_targets_capped(tmp_path, capsys):
    # |Lambda| = --lambda-count x number of targets
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0]]}, {"coeffs": [[0, 0], [1, 0]]}],
    })
    code = main(["construct-orbit", "--problem", problem, "--lambda-count",
                 str(LAMBDA_COUNT_MAX // 2 + 1), "--outdir", str(tmp_path)])
    assert code == 2
    assert "--lambda-count:" in capsys.readouterr().err
    assert not (tmp_path / "orbit.json").exists()


def test_construct_orbit_budget_failure_exits_1(tmp_path):
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0]]}],
        "epsilon": 1e-4,
    })
    code = main(["construct-orbit", "--problem", problem,
                 "--lambda-count", "4", "--outdir", str(tmp_path)])
    assert code == 1
    err = json.loads((tmp_path / "construct_orbit_error.json").read_text())
    assert err["error"]["type"] == "BudgetExceeded"
    assert err["error"]["target_index"] == 0
    assert set(err["error"]) == {
        "type", "message", "target_index", "residual", "budget"
    }


def test_construct_orbit_outcome_with_an_unwritable_outdir_exits_1(tmp_path, capsys):
    # the output directory is made at write time, after the outcome: exit
    # 1 with no artifact, as for every command
    (tmp_path / "file").write_text("")
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0]]}],
        "epsilon": 1e-4,
    })
    code = main(["construct-orbit", "--problem", problem, "--lambda-count", "4",
                 "--outdir", str(tmp_path / "file" / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("negative result: ")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def _orbit_error(tmp_path, margin):
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0]]}, {"coeffs": [[0, 0], [1, 0]]}],
    })
    code = main(["construct-orbit", "--problem", problem, "--margin", margin,
                 "--outdir", str(tmp_path)])
    assert code == 1
    return json.loads((tmp_path / "construct_orbit_error.json").read_text())["error"]


def test_construct_orbit_schedule_overflow_exits_1(tmp_path):
    # |mu| = 51: the stacked system leaves the double range past n_m = 23
    err = _orbit_error(tmp_path, "50")
    assert err["type"] == "ScheduleOverflow"
    assert set(err) == {"type", "message", "target_index", "attempted", "cap"}
    assert err["cap"] == 23


def test_construct_orbit_search_exhausted_exits_1(tmp_path):
    # |mu| = |lambda| >= 1001 lies past SEARCH_RADIUS_CAP on every ray
    err = _orbit_error(tmp_path, "1000")
    assert err["type"] == "SearchExhausted"
    assert set(err) == {"type", "message"}


def test_construct_orbit_target_degree_ignores_trailing_zeros(tmp_path, capsys):
    op = {"d": [[0, 0], [1, 0]], "a": [1, 0]}
    padded = {"operator": op, "targets": [{"coeffs": [[1, 0]] + [[0, 0]] * 40}]}
    code = main(["construct-orbit", "--problem", json.dumps(padded),
                 "--outdir", str(tmp_path / "padded")])
    assert code == 0
    degree_33 = {"operator": op, "targets": [{"coeffs": [[0, 0]] * 33 + [[1, 0]]}]}
    code = main(["construct-orbit", "--problem", json.dumps(degree_33),
                 "--outdir", str(tmp_path / "degree_33")])
    assert code == 2
    assert "degree <= 32" in capsys.readouterr().err


def test_decompose_round_trip_via_cli(tmp_path):
    code = main(["decompose", "--op", D2_MINUS_Z, "--ncap", "32",
                 "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "decompose.json").read_text())
    assert doc["a"] == [1.0, 0.0]
    assert doc["order"] == 2


def test_decompose_non_weyl_matrix_exits_1(tmp_path):
    # multiplication by z^2 on monomials up to degree 8
    entries = [[[0.0, 0.0]] * 9 for _ in range(11)]
    for n in range(9):
        entries[n + 2][n] = [1.0, 0.0]
    code = main(["decompose", "--matrix", json.dumps({"entries": entries}),
                 "--outdir", str(tmp_path)])
    assert code == 1
    err = json.loads((tmp_path / "decompose_error.json").read_text())
    assert err["error"]["type"] == "NotWeyl"
    assert set(err["error"]) == {"type", "message", "offdiag_max", "diag_spread"}


def test_decompose_requires_exactly_one_source(tmp_path):
    assert main(["decompose", "--outdir", str(tmp_path)]) == 2
    assert main(["decompose", "--op", D_MINUS_Z, "--matrix", "{}",
                 "--outdir", str(tmp_path)]) == 2


def test_workdir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLCALC_WORKDIR", str(tmp_path / "w"))
    code = main(["commutator-check", "--op", D_MINUS_Z, "--ncap", "16"])
    assert code == 0
    assert (tmp_path / "w" / "commutator_check.json").exists()


@pytest.mark.parametrize("outdir_form", ["separate", "joined"])
def test_error_manifest_does_not_depend_on_outdir(tmp_path, monkeypatch, outdir_form):
    # decompose of L(T) = T + T^2, T = D - zI, is not Weyl: exit 1 and an
    # error manifest
    monkeypatch.setenv("WEYLCALC_TIMESTAMP", "2026-01-01T00:00:00+00:00")
    op = '{"d":[[0,0],[1,0]],"a":[1,0],"L":[[0,0],[1,0],[1,0]]}'
    dirs = [tmp_path / "a", tmp_path / "some" / "other"]
    for d in dirs:
        where = (["--outdir", str(d)] if outdir_form == "separate"
                 else [f"--outdir={d}"])
        assert main(["decompose", "--op", op, *where]) == 1
    first, second = (d / "decompose_error.json" for d in dirs)
    assert first.read_bytes() == second.read_bytes()
    assert str(tmp_path) not in first.read_text()
    params = json.loads(first.read_text())["manifest"]["parameters"]
    assert params == {"op": op, "matrix": None, "ncap": 64}


def test_byte_identical_artifacts(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
                     "--ridge", "0", "--outdir", str(d)])
        assert code == 0
    for name in ("complete_fit.json", "residual_curve.csv",
                 "residual_curve.csv.manifest.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.parametrize("field", ["radius", "epsilon"])
@pytest.mark.parametrize("value", [[1], "0.1", None, True, float("nan"), 0, -1])
def test_construct_orbit_bad_problem_number_exits_2(tmp_path, capsys, field, value):
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0]]}],
        field: value,
    })
    code = main(["construct-orbit", "--problem", problem,
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert f"'{field}': expected a finite positive number" in capsys.readouterr().err
    assert not (tmp_path / "orbit.json").exists()


@pytest.mark.parametrize("flag", ["--margin"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5"])
def test_construct_orbit_bad_margin_or_gap_factor_exits_2(tmp_path, capsys, flag, value):
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0]]}],
    })
    code = main(["construct-orbit", "--problem", problem, f"{flag}={value}",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert f"{flag}: expected a finite positive number" in capsys.readouterr().err
    assert not (tmp_path / "orbit.json").exists()


def test_construct_orbit_has_no_gap_factor(tmp_path, capsys):
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
        "targets": [{"coeffs": [[1, 0]]}],
    })
    code = main(["construct-orbit", "--problem", problem, "--gap-factor=1.25",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "unrecognized arguments: --gap-factor=1.25" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", ["complete-fit", "construct-orbit"])
def test_bad_ridge_exits_2(tmp_path, capsys, command, value):
    if command == "complete-fit":
        argv = ["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS]
        artifact = "complete_fit.json"
    else:
        problem = json.dumps({
            "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]},
            "targets": [{"coeffs": [[1, 0]]}],
        })
        argv = ["construct-orbit", "--problem", problem]
        artifact = "orbit.json"
    code = main(argv + [f"--ridge={value}", "--outdir", str(tmp_path)])
    assert code == 2
    assert "--ridge: expected a finite number >= 0" in capsys.readouterr().err
    assert not (tmp_path / artifact).exists()


@pytest.mark.parametrize("entries", [
    [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],  # 2 x 3
    [[{"re": 1}, [0, 0]], [[0, 0], [1, 0]]],  # an entry that is not a pair
])
def test_decompose_malformed_matrix_exits_2(tmp_path, capsys, entries):
    code = main(["decompose", "--matrix", json.dumps({"entries": entries}),
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "--matrix:" in capsys.readouterr().err
    assert not (tmp_path / "decompose.json").exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--op", D_MINUS_Z, "--terms"],
    ["eigencheck", "--op", D_MINUS_Z, "--order"],
    ["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS, "--order"],
    ["construct-orbit", "--problem",
     '{"operator": {"d": [[0, 0], [1, 0]], "a": [1, 0]}, '
     '"targets": [{"coeffs": [[1, 0]]}]}', "--order"],
])
@pytest.mark.parametrize("size", ["0", str(ORDER_MAX + 1), "100000000"])
def test_series_order_out_of_range_exits_2(tmp_path, capsys, argv, size):
    code = main(argv + [size, "--outdir", str(tmp_path)])
    assert code == 2
    assert f"{argv[-1]}: expected a value in 1..{ORDER_MAX}, got {size}" in (
        capsys.readouterr().err
    )
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# fuzzing: whatever the numbers, the exit code is 0, 1 or 2 and nothing
# escapes main.  Valid sizes are kept small so that every example runs in
# a fraction of a second; the caps are probed by values just above them.


def _size(cap, small):
    return st.one_of(st.integers(-2, small), st.sampled_from([cap + 1, 10**8]))


_REAL = st.one_of(
    st.floats(-4, 4),
    st.sampled_from([0.0, float("nan"), float("inf"), float("-inf"), 1e300, -1e300]),
)
_JSON_VALUE = st.one_of(
    _REAL, st.integers(-3, 3), st.sampled_from([10**400, True, None, "1", [1], {}])
)
_PROBLEM_OP = {"d": [[0, 0], [1, 0]], "a": [1, 0]}


def _flags(**flags):
    """``--flag=value`` arguments, each flag present or not."""
    return st.fixed_dictionaries(
        {k: st.one_of(st.none(), v) for k, v in flags.items()}
    ).map(lambda d: [f"{k}={v}" for k, v in d.items() if v is not None])


_COMMANDS = {
    "kernel": st.tuples(
        st.just(["kernel", "--op", D2_MINUS_Z]),
        _flags(**{"--terms": _size(ORDER_MAX, 48), "--radius": _REAL}),
    ),
    "commutator-check": st.tuples(
        _JSON_VALUE.map(lambda v: ["commutator-check", "--op", json.dumps(
            {"d": [[0, 0], [v, 0]], "a": [1, 0]})]),
        _flags(**{"--ncap": _size(512, 12)}),
    ),
    "eigencheck": st.tuples(
        st.just(["eigencheck", "--op", '{"d":[[0,0],[1,0]],"a":[1,0],'
                 '"L":[[0,0],[1,0],[1,0]]}']),
        _flags(**{"--grid": _size(GRID_MAX, 2), "--lam-max": _REAL,
                  "--order": _size(ORDER_MAX, 48), "--radius": _REAL}),
    ),
    "complete-fit": st.tuples(
        st.just(["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS]),
        _flags(**{"--counts": st.lists(_size(LAMBDA_COUNT_MAX, 6), max_size=3).map(
                      lambda c: ",".join(map(str, c)) or "x"),
                  "--preset": st.sampled_from(["inverse", "segment", "random"]),
                  "--seed": st.integers(-2, 3), "--ridge": _REAL,
                  "--order": _size(ORDER_MAX, 48), "--radius": _REAL}),
    ),
    "construct-orbit": st.tuples(
        st.fixed_dictionaries(
            {"operator": st.just(_PROBLEM_OP),
             "targets": st.just([{"coeffs": [[1, 0]]}])},
            optional={"radius": _JSON_VALUE, "epsilon": _JSON_VALUE},
        ).map(lambda doc: ["construct-orbit", "--problem", json.dumps(doc)]),
        _flags(**{"--lambda-count": _size(LAMBDA_COUNT_MAX, 8), "--margin": _REAL,
                  "--ridge": _REAL, "--order": _size(ORDER_MAX, 48)}),
    ),
    "decompose": st.tuples(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3),
                  _JSON_VALUE).map(
            lambda s: ["decompose", "--matrix", json.dumps({"entries": [
                [[float((r + c * s[2]) % 3 == 0), s[3] if r == c == 0 else 0.0]
                 for c in range(s[1])]
                for r in range(s[0])]})]),
        st.just([]),
    ),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exit_codes(command, data):
    head, flags = data.draw(_COMMANDS[command])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(head + flags + ["--outdir", outdir])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # a usage error, two complete-fits (the second back on the defaults the
    # first overrode) and a kernel through the one cached parser; each call
    # writes what it writes through a parser built for it alone
    calls = [
        ["complete-fit", "--nonsense"],
        ["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS,
         "--preset", "random", "--counts", "5,7", "--seed", "3", "--ridge", "0"],
        ["complete-fit", "--op", D_MINUS_Z, "--targets", TARGETS],
        ["kernel", "--op", D_MINUS_Z, "--terms", "12"],
    ]

    def run(i, argv):
        outdir = tmp_path / str(i)
        code = main(argv + ["--outdir", str(outdir)])
        written = {p.name: p.read_bytes() for p in sorted(outdir.glob("*"))}
        shutil.rmtree(outdir, ignore_errors=True)
        return code, written, capsys.readouterr()

    cached = [run(i, argv) for i, argv in enumerate(calls)]
    assert weylcalc.cli._build_parser() is weylcalc.cli._build_parser()
    assert [code for code, _, _ in cached] == [2, 0, 0, 0]
    assert all(written for _, written, _ in cached[1:])
    params = json.loads(cached[2][1]["complete_fit.json"])["manifest"]["parameters"]
    assert (params["preset"], params["counts"], params["seed"], params["ridge"]) == (
        "inverse", [5, 10, 20, 40], 0, 1e-10)
    for i, argv in enumerate(calls):
        weylcalc.cli._build_parser.cache_clear()
        assert run(i, argv) == cached[i]


def test_readme_orbit_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    # the CLI pins BLAS to one thread before numpy loads, whatever the
    # environment asks for; each run is a fresh process, so the pin acts
    [argv] = [a for a in readme_cli_examples() if a[0] == "construct-orbit"]
    src = str(Path(weylcalc.__file__).parents[1])
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               **dict.fromkeys(weylcalc.cli.BLAS_THREADS, threads)}
        subprocess.run(
            [sys.executable, "-m", "weylcalc.cli", *argv,
             "--outdir", str(tmp_path / threads)],
            env=env, capture_output=True, check=True, timeout=120,
        )
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert {"orbit.json", "orbit_errors.csv"} <= set(names)
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
