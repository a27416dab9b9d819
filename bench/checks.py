"""Independent checks of weylcalc CLI artifacts.

Every check recomputes what an artifact claims from the benchmark's own
inputs and from mathematics the program does not share: closed-form
eigenfunctions ``exp(a (z+lambda)^2 / 2)`` instead of translated series,
exact integer and rational arithmetic instead of doubles or mpmath, and
the documented definitions of the lambda presets and grids.  This module
uses only numpy and the standard library and never imports weylcalc.

Each ``check_<kind>(spec, outdir, rc)`` returns a list of problems; an
empty list means the artifacts are correct.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

#: points on the circle where the program reports sup norms
VERIFY_POINTS = 128

#: delivered orbit coefficients against the eigen-sum, relative to the
#: sum of |weight| * max|eigenfunction| (measured agreement: 3e-13)
DELIVERED_RTOL = 1e-9

#: reproduction of a reported residual or route discrepancy: relative
#: part, and absolute part per unit of sum |weight| * max|eigenfunction|,
#: since weights reach 1e12 (measured: 1e-16 on fits, 1e-13 on orbits,
#: whose translated series carry more rounding at |lambda| ~ 1.5)
REPRO_RTOL = 1e-6
REPRO_ATOL = 1e-12

#: bound on eigen-relation residuals for |lambda| <= 2
EIGEN_RESIDUAL_MAX = 1e-10

#: kernel coefficients against the exact recurrence, relative to each
#: exact coefficient (measured: 3e-15; exact zeros must stay zero)
KERNEL_RTOL = 1e-12


# ---------------------------------------------------------------------------
# reading artifacts


def _load(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cpx_array(pairs) -> np.ndarray:
    return np.array([complex(p[0], p[1]) for p in pairs], dtype=np.complex128)


def circle(radius: float, count: int = VERIFY_POINTS) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(count) / count)


def poly_values(coeffs, z) -> np.ndarray:
    """sum_n coeffs[n] z^n."""
    return np.polyval(np.asarray(coeffs, dtype=np.complex128)[::-1], z)


def generator(d, a):
    """Closed-form kernel function of T = d0 + d1 D - a z with f(0) = 1."""
    if len(d) != 2 or d[1] == 0:
        raise ValueError("closed-form generator needs a first-order operator")
    d0, d1 = complex(d[0]), complex(d[1])
    a = complex(a)
    return lambda z: np.exp((a * z * z / 2 - d0 * z) / d1)


# ---------------------------------------------------------------------------
# exact arithmetic


def gauss(z) -> tuple:
    """A complex double as an exact pair of rationals."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gadd(x, y):
    return x[0] + y[0], x[1] + y[1]


def _to_complex(x) -> complex:
    return complex(float(x[0]), float(x[1]))


def weyl_on_poly(d, a, p: dict) -> dict:
    """(sum_k d_k D^k - a z) p on sparse {degree: gauss} polynomials."""
    out: dict = {}
    ga = gauss(-complex(a))
    for deg, c in p.items():
        fall = 1  # deg! / (deg-k)!
        for k, dk in enumerate(d):
            if k > deg:
                break
            if dk != 0:
                term = _gmul(gauss(dk), (c[0] * fall, c[1] * fall))
                out[deg - k] = _gadd(out.get(deg - k, (0, 0)), term)
            fall *= deg - k
        if ga != (0, 0):
            out[deg + 1] = _gadd(out.get(deg + 1, (0, 0)), _gmul(ga, c))
    return out


def poly_of_weyl_on_poly(d, a, l, p: dict) -> dict:
    """L(T) p by Horner's scheme in T."""
    acc = {deg: _gmul(gauss(l[-1]), c) for deg, c in p.items()}
    for coef in reversed(l[:-1]):
        acc = weyl_on_poly(d, a, acc)
        for deg, c in p.items():
            acc[deg] = _gadd(acc.get(deg, (0, 0)), _gmul(gauss(coef), c))
    return acc


def kernel_recurrence(d, a, j: int, n_terms: int) -> list:
    """Exact coefficients of the kernel solution with c_i = [i == j], i < p.

    sum_{k<=p} d_k (n+k)!/n! c_{n+k} = a c_{n-1} solved for c_{n+p}.
    """
    p = max(k for k, v in enumerate(d) if v != 0)
    gd = [gauss(v) for v in d]
    ga = gauss(a)
    c = [(Fraction(0), Fraction(0))] * n_terms
    c[j] = (Fraction(1), Fraction(0))
    for n in range(n_terms - p):
        rhs = _gmul(ga, c[n - 1]) if n >= 1 else (Fraction(0), Fraction(0))
        fall = 1
        for k in range(p):
            term = _gmul(gd[k], (c[n + k][0] * fall, c[n + k][1] * fall))
            rhs = (rhs[0] - term[0], rhs[1] - term[1])
            fall *= n + k + 1
        den = _gmul(gd[p], (Fraction(fall), Fraction(0)))
        norm = den[0] * den[0] + den[1] * den[1]
        c[n + p] = _gmul(rhs, (den[0] / norm, -den[1] / norm))
    return c


def _dyadic_ints(values):
    """Gaussian integers (re, im) and e with values == ints / 2**e exactly."""
    parts = []
    for z in values:
        z = complex(z)
        for x in (z.real, z.imag):
            num, den = x.as_integer_ratio()
            parts.append((num, den.bit_length() - 1))
    e = max(k for _, k in parts)
    ints = [num << (e - k) for num, k in parts]
    return ints[0::2], ints[1::2], e


def _truncated_weyl(re, im, dre, dim, are, aim):
    """Integer T on a coefficient vector of fixed length (tail dropped)."""
    size = len(re)
    out_re, out_im = [0] * size, [0] * size
    for i in range(size):
        sr = si = 0
        fall = 1  # (i+k)! / i!
        for k in range(len(dre)):
            if i + k < size and (dre[k] or dim[k]):
                vr, vi = re[i + k] * fall, im[i + k] * fall
                sr += dre[k] * vr - dim[k] * vi
                si += dre[k] * vi + dim[k] * vr
            fall *= i + k + 1
        if i >= 1:
            sr -= are * re[i - 1] - aim * im[i - 1]
            si -= are * im[i - 1] + aim * re[i - 1]
        out_re[i], out_im[i] = sr, si
    return out_re, out_im


def _unit_roots(count: int, bits: int):
    """round(2**bits * exp(2 pi i r / count)) for r < count; count = 2**m >= 4."""
    one = 1 << bits
    c, s = 0, one  # angle pi/2
    angle_den = 4
    while angle_den < count:  # half-angle: cos(x/2) = sqrt((1+cos x)/2)
        c_half = isqrt((one + c) * one // 2)
        s = s * one // (2 * c_half)
        c = c_half
        angle_den *= 2
    roots = [(one, 0)]
    for _ in range(1, count):
        pr, pi = roots[-1]
        roots.append(((pr * c - pi * s) >> bits, (pr * s + pi * c) >> bits))
    return roots


def exact_power_on_circle(d, a, l, coeffs, n: int, count: int = VERIFY_POINTS):
    """(L(T)^n f)(z) at z^count = 1, with T acting on len(coeffs) coefficients.

    f's coefficients are doubles, hence dyadic rationals; so are d, a and
    l.  The power is taken in exact integer arithmetic on the truncated
    coefficient vector, and the values on the unit circle are summed in
    fixed point with enough bits that rounding stays far below 1e-20.
    """
    if count & (count - 1) or count < 4:
        raise ValueError("count must be a power of two >= 4")
    q = len(l) - 1
    sre, sim, s = _dyadic_ints(list(d) + [a])
    dre, dim, are, aim = sre[:-1], sim[:-1], sre[-1], sim[-1]
    lre, lim, t = _dyadic_ints(l)
    # 2**(t + s q) L(T) = sum_k (2**t l_k) 2**(s (q-k)) T'^k with T' = 2**s T
    lre = [v << (s * (q - k)) for k, v in enumerate(lre)]
    lim = [v << (s * (q - k)) for k, v in enumerate(lim)]
    re, im, e = _dyadic_ints(coeffs)
    for _ in range(n):
        acc_re = [lre[q] * x - lim[q] * y for x, y in zip(re, im)]
        acc_im = [lre[q] * y + lim[q] * x for x, y in zip(re, im)]
        for k in range(q - 1, -1, -1):
            acc_re, acc_im = _truncated_weyl(acc_re, acc_im, dre, dim, are, aim)
            acc_re = [u + lre[k] * x - lim[k] * y for u, x, y in zip(acc_re, re, im)]
            acc_im = [u + lre[k] * y + lim[k] * x for u, x, y in zip(acc_im, re, im)]
        re, im = acc_re, acc_im
        e += t + s * q
    size = len(re)
    top = max(max(abs(v) for v in re), max(abs(v) for v in im), 1)
    bits = max(64, top.bit_length() - e + 96 + size.bit_length())
    roots = _unit_roots(count, bits)
    values = np.empty(count, dtype=np.complex128)
    scale = 1 << (e + bits)
    for k in range(count):
        # z^i = root[(i k) mod count]: gather exactly, then one fixed-point sum
        h_re, h_im = [0] * count, [0] * count
        for i in range(size):
            r = (i * k) % count
            h_re[r] += re[i]
            h_im[r] += im[i]
        acc_re = acc_im = 0
        for r in range(count):
            if h_re[r] or h_im[r]:
                wr, wi = roots[r]
                acc_re += h_re[r] * wr - h_im[r] * wi
                acc_im += h_re[r] * wi + h_im[r] * wr
        values[k] = complex(acc_re / scale, acc_im / scale)
    return values


# ---------------------------------------------------------------------------
# lambda presets and grids, from their documented definitions


def preset_lambdas(preset: str, count: int, seed: int) -> np.ndarray:
    if preset == "inverse":  # 1/k, k = 1..count
        return 1.0 / np.arange(1, count + 1)
    if preset == "segment":  # k/count, k = 1..count
        return np.arange(1, count + 1) / count
    if preset == "random":  # seeded complex Gaussians mapped into the unit disk
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        return z / (1.0 + np.abs(z))
    raise ValueError(f"unknown preset {preset!r}")


def square_grid(grid: int, lam_max: float) -> np.ndarray:
    """grid x grid points of the square inscribed in |lambda| <= lam_max, row-major."""
    half = lam_max / np.sqrt(2.0)
    axis = np.linspace(-half, half, grid)
    return (axis[None, :] + 1j * axis[:, None]).ravel()


# ---------------------------------------------------------------------------
# construct-orbit


def _expect_rc(rc: int, want: int) -> list:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def check_orbit(spec: dict, outdir: Path, rc: int) -> list:
    """Eigenvalues, delivered vector, every target at every iterate, and the
    direct-route discrepancy by an exact integer power."""
    problems = _expect_rc(rc, 0)
    if problems:
        return problems
    doc = _load(outdir / "orbit.json")
    d, a, l = spec["d"], spec["a"], spec["l"]
    targets, eps = spec["targets"], spec["epsilon"]
    if spec["radius"] != 1.0:
        raise ValueError("the exact direct route is implemented on the unit circle")
    lam = cpx_array(doc["lambdas"])
    mu = poly_values(l, complex(a) * lam)  # eigenvalue L(a lambda) of f_lambda
    mu_rep = cpx_array(doc["eigenvalues"])
    if mu_rep.shape != mu.shape or np.abs(mu_rep - mu).max() > 1e-12 * np.abs(mu).max():
        problems.append("reported eigenvalues differ from L(a lambda)")
        return problems
    schedule = doc["schedule"]
    blocks = doc["blocks"]
    if (
        len(schedule) != len(targets)
        or [b["target"] for b in blocks] != list(range(len(targets)))
        or [b["n"] for b in blocks] != schedule
        or any(n2 <= n1 for n1, n2 in zip(schedule, schedule[1:]))
        or schedule[0] < 1
    ):
        problems.append(f"malformed schedule {schedule} or blocks")
        return problems
    weights = np.array([cpx_array(b["weights"]) for b in blocks])
    ns = np.array(schedule)

    def amplitudes(n):  # coordinates of A^n f in the eigenbasis
        return (weights * mu[None, :] ** (n - ns)[:, None].astype(float)).sum(axis=0)

    pts = circle(1.0)
    fam = generator(d, a)(pts[:, None] + lam[None, :])
    fam_max = np.abs(fam).max(axis=0)

    coeffs = cpx_array(doc["f"]["coeffs"])
    coords = amplitudes(0)
    gap = np.abs(poly_values(coeffs, pts) - fam @ coords).max()
    if gap > DELIVERED_RTOL * (np.abs(coords) @ fam_max):
        problems.append(f"delivered coefficients differ from the eigen-sum by {gap:.3e}")

    for j, (q, n_j) in enumerate(zip(targets, schedule)):
        err = np.abs(fam @ amplitudes(n_j) - poly_values(q, pts)).max()
        if not err <= eps:
            problems.append(f"target {j} missed at n = {n_j}: error {err:.3e} > {eps}")

    rows = doc["verification"]
    if [(r["target"], r["n"]) for r in rows] != list(enumerate(schedule)):
        problems.append("verification rows do not follow the schedule")
        return problems
    for row in rows:
        reported = row["method_discrepancy"]
        if reported is None:
            continue
        amp = amplitudes(row["n"])
        direct = exact_power_on_circle(d, a, l, coeffs, row["n"])
        mine = float(np.abs(direct - fam @ amp).max())
        tol = REPRO_RTOL * max(mine, reported) + REPRO_ATOL * (np.abs(amp) @ fam_max)
        if not abs(mine - reported) <= tol:
            problems.append(
                f"method_discrepancy at n = {row['n']}: reported {reported:.6e}, "
                f"exact power gives {mine:.6e}"
            )
    return problems


# ---------------------------------------------------------------------------
# complete-fit


def check_fit(spec: dict, outdir: Path, rc: int) -> list:
    """Every residual recomputed from its weights; larger |Lambda| fits better."""
    problems = _expect_rc(rc, 0)
    if problems:
        return problems
    fits = _load(outdir / "complete_fit.json")["fits"]
    curve = _csv_rows(outdir / "residual_curve.csv")
    counts, targets = spec["counts"], spec["targets"]
    expected = [(ti, c) for ti in range(len(targets)) for c in counts]
    if [(f["target"], f["count"]) for f in fits] != expected or len(curve) != len(fits):
        return ["fits do not cover every (target, count) pair in order"]
    pts = circle(spec["radius"])
    fam_of = generator(spec["d"], spec["a"])
    residual = {}
    for fit, row in zip(fits, curve):
        tag = f"target {fit['target']}, |Lambda| = {fit['count']}"
        if fit["status"] != "ok":
            problems.append(f"{tag}: status {fit['status']}")
            continue
        lam = preset_lambdas(spec["preset"], fit["count"], spec["seed"])
        w = cpx_array(fit["weights"])
        if w.shape != lam.shape:
            problems.append(f"{tag}: {w.size} weights for {lam.size} lambdas")
            continue
        fam = fam_of(pts[:, None] + lam[None, :])
        mine = float(np.abs(fam @ w - poly_values(targets[fit["target"]], pts)).max())
        reported = fit["residual_norm"]
        tol = REPRO_RTOL * max(mine, reported) + REPRO_ATOL * (
            np.abs(w) @ np.abs(fam).max(axis=0)
        )
        if not abs(mine - reported) <= tol:
            problems.append(f"{tag}: residual reported {reported:.6e}, recomputed {mine:.6e}")
        if float(row["residual"]) != reported:
            problems.append(f"{tag}: CSV residual {row['residual']} differs from JSON")
        residual[(fit["target"], fit["count"])] = reported
    for ti in range(len(targets)):
        small, large = (residual.get((ti, c)) for c in (min(counts), max(counts)))
        if small is not None and large is not None and not large < small:
            problems.append(
                f"target {ti}: residual at |Lambda| = {max(counts)} ({large:.3e}) "
                f"not below |Lambda| = {min(counts)} ({small:.3e})"
            )
    return problems


# ---------------------------------------------------------------------------
# algebra


def _expected_commutator(spec: dict) -> dict:
    """Exact nonzero entries {(row, col): complex} of [Op, D] on z^0..z^(ncap-1).

    [T, D] = a I for every Weyl T; for L(T), [L(T), D] = a L'(T).
    """
    a = complex(spec["a"])
    ncap = spec["ncap"]
    if spec["l"] is None:
        return {(n, n): a for n in range(ncap)}
    l = spec["l"]
    dl = [k * complex(l[k]) for k in range(1, len(l))]
    entries = {}
    for n in range(ncap):
        col = poly_of_weyl_on_poly(spec["d"], a, dl, {n: (Fraction(1), Fraction(0))})
        for deg, c in col.items():
            v = _to_complex(_gmul(gauss(a), c))
            if v != 0:
                entries[(deg, n)] = v
    return entries


def check_commutator(spec: dict, outdir: Path, rc: int) -> list:
    """Every entry of the commutator matrix equals the exact one, bit for bit."""
    problems = _expect_rc(rc, 0)
    if problems:
        return problems
    want = _expected_commutator(spec)
    ncap = spec["ncap"]
    raise_rows = 1 if spec["l"] is None else max(1, len(spec["l"]) - 1)
    n_rows = ncap + raise_rows
    seen = 0
    wrong = []
    with open(outdir / "commutator_matrix.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["row", "col", "re", "im"]:
            return ["commutator CSV header"]
        for r, c, re, im in reader:
            key = (int(r), int(c))
            seen += 1
            if complex(float(re), float(im)) != want.get(key, 0):
                wrong.append(key)
    if seen != n_rows * ncap:
        problems.append(f"commutator CSV has {seen} entries, expected {n_rows * ncap}")
    if wrong:
        problems.append(f"{len(wrong)} commutator entries differ from a*L'(T), first {wrong[0]}")
    report = _load(outdir / "commutator_check.json")
    if report["n_cap"] != ncap - 1:
        problems.append(f"n_cap {report['n_cap']}, expected {ncap - 1}")
    diag = [want.get((n, n), 0) for n in range(ncap)]
    a_est = sum(diag) / ncap
    if abs(complex(*report["a_estimate"]) - a_est) > 1e-12 * max(1.0, abs(a_est)):
        problems.append(f"a_estimate {report['a_estimate']}, expected {a_est}")
    return problems


def check_decompose(spec: dict, outdir: Path, rc: int) -> list:
    """Weyl operators round-trip to their (a, d); a composite is NotWeyl."""
    if spec["l"] is not None:
        problems = _expect_rc(rc, 1)
        if not problems:
            err = _load(outdir / "decompose_error.json")["error"]
            if err["type"] != "NotWeyl":
                problems.append(f"error type {err['type']}, expected NotWeyl")
        return problems
    problems = _expect_rc(rc, 0)
    if problems:
        return problems
    doc = _load(outdir / "decompose.json")
    d_in = [complex(v) for v in spec["d"]]
    d_out = [complex(*p) for p in doc["d"]]
    a_out = complex(*doc["a"])
    if len(d_out) != len(d_in) or doc["order"] != len(d_in) - 1:
        return [f"recovered order {doc['order']}, expected {len(d_in) - 1}"]
    if abs(a_out - complex(spec["a"])) > 1e-9:
        problems.append(f"recovered a = {a_out}, expected {spec['a']}")
    if max(abs(x - y) for x, y in zip(d_out, d_in)) > 1e-9:
        problems.append(f"recovered d = {d_out}, expected {d_in}")
    return problems


def check_kernel(spec: dict, outdir: Path, rc: int) -> list:
    """Every kernel solution matches the recurrence run in exact rationals."""
    problems = _expect_rc(rc, 0)
    if problems:
        return problems
    doc = _load(outdir / "kernel_basis.json")
    d, a, terms = spec["d"], spec["a"], spec["terms"]
    order = max(k for k, v in enumerate(d) if v != 0)
    sols = doc["solutions"]
    if len(sols) != order:
        return [f"{len(sols)} kernel solutions, expected {order}"]
    for j, sol in enumerate(sols):
        got = cpx_array(sol["coeffs"])
        exact = np.array(
            [_to_complex(c) for c in kernel_recurrence(d, a, j, terms)[: got.size]]
        )
        if got.size < order + 1:
            problems.append(f"solution {j}: only {got.size} coefficients")
            continue
        bad = np.nonzero(np.abs(got - exact) > KERNEL_RTOL * np.abs(exact))[0]
        if bad.size:
            problems.append(f"solution {j}: coefficient {bad[0]} differs from the recurrence")
    return problems


def check_eigencheck(spec: dict, outdir: Path, rc: int) -> list:
    """The lambda grid is the requested one and every residual is tiny."""
    problems = _expect_rc(rc, 0)
    if problems:
        return problems
    rows = _csv_rows(outdir / "eigencheck_grid.csv")
    grid = square_grid(spec["grid"], spec["lam_max"])
    got = np.array([complex(float(r["lam_re"]), float(r["lam_im"])) for r in rows])
    if got.shape != grid.shape or np.abs(got - grid).max() > 1e-14:
        return ["eigencheck lambda grid differs from the requested grid"]
    columns = ["eigen_residual"] + (["composite_residual"] if spec["l"] is not None else [])
    for col in columns:
        worst = max(float(r[col]) for r in rows)
        if not worst <= EIGEN_RESIDUAL_MAX:
            problems.append(f"worst {col} {worst:.3e} > {EIGEN_RESIDUAL_MAX}")
    report = _load(outdir / "eigencheck.json")
    if report["points"] != len(rows) or report["worst_eigen_residual"] != max(
        float(r["eigen_residual"]) for r in rows
    ):
        problems.append("eigencheck.json disagrees with its grid CSV")
    return problems


CHECKS = {
    "orbit": check_orbit,
    "fit": check_fit,
    "commutator": check_commutator,
    "decompose": check_decompose,
    "kernel": check_kernel,
    "eigencheck": check_eigencheck,
}
