"""CLI exit codes, artifacts and determinism."""

import contextlib
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import weylcalc.eigen
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


def test_commutator_past_the_double_range_exits_2(tmp_path, capsys):
    # d_1 = 1e300 and L(T) = T^3: entries of [L(T), D] round to infinity
    op = '{"d":[[0,0],[1e300,0]],"a":[1,0],"L":[[0,0],[0,0],[0,0],[1,0]]}'
    code = main(["commutator-check", "--op", op, "--ncap", "8",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "non-finite value inf cannot be serialized" in capsys.readouterr().err
    assert not (tmp_path / "commutator_check.json").exists()


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
    assert sol["valid_order"] == len(sol["coeffs"]) < 200


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
    entries = commutator_matrix(op, diff_op(1), 256).entries
    expected = "row,col,re,im\n" + "".join(
        f"{r},{c},{float(v.real):.17g},{float(v.imag):.17g}\n"
        for (r, c), v in np.ndenumerate(entries)
    )
    assert (tmp_path / "commutator_matrix.csv").read_bytes() == expected.encode()


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
        st.just(["commutator-check", "--op", D_MINUS_Z]),
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
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3)).map(
            lambda s: ["decompose", "--matrix", json.dumps({"entries": [
                [[float((r + c * s[2]) % 3 == 0), 0.0] for c in range(s[1])]
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
