import importlib.machinery
import importlib.util
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_bvp
from scipy.linalg import lapack, solve_banded
from scipy.sparse import csr_matrix

from ttstar import solver
from ttstar.cases import CASE_IDS, AsymptoticData, descriptor, in_region
from ttstar.enumeration import integral_solutions
from ttstar.solver import (MAX_GRID_POINTS, ConvergenceError, SolverConfig,
                           _fit_slope, _grid, _jacobian, _problem, _residual,
                           newton_tolerance, residual_vector, solve_radial,
                           verify_asymptotics)


def F(x):
    return Fraction(x)


FAST = SolverConfig(grid_points=512)


def _source_terms(t, u, v, a, b):
    """The two right-hand sides 4 e^{2t}(...) and the terms e1, e2, e3."""
    e1 = 4.0 * np.exp(2.0 * t + a * u)
    e2 = 4.0 * np.exp(2.0 * t + v - u)
    e3 = 4.0 * np.exp(2.0 * t - b * v)
    return e1 - e2, e2 - e3, e1, e2, e3


def _reference_jacobian(case_id, a: AsymptoticData, t, u, v) -> csr_matrix:
    """Slow reference: the Jacobian of the Numerov system, assembled entry by
    entry as a CSR matrix."""
    ea, eb = descriptor(case_id).ab
    g, d = float(a.gamma), float(a.delta)
    m = len(t)
    h = t[1] - t[0]
    _, _, e1, e2, e3 = _source_terms(t, u, v, ea, eb)
    # dF/d(u, v) at every node; F_u = e1 - e2 and F_v = e2 - e3 (with the 4)
    fuu, fuv, fvu, fvv = ea * e1 + e2, -e2, -e2, e2 + eb * e3
    rows, cols, vals = [], [], []

    def add(r, c, val):
        rows.append(r)
        cols.append(c)
        vals.append(val)

    # left boundary: y_1 - y_0 - h y' - h^2 (5 F_0 + F_1)/12 - h^3 y_0^(3)/12,
    # with y_0^(3) = 2 F_0 + (dF/dy)(gamma, delta), so that d(y_0^(3))/du_0 is
    # 2 fuu + (a^2 e1 - e2) gamma + e2 delta and so on
    d3 = [[2 * fuu[0] + (ea * ea * e1[0] - e2[0]) * g + e2[0] * d,
           2 * fuv[0] + e2[0] * g - e2[0] * d],
          [2 * fvu[0] + e2[0] * g - e2[0] * d,
           2 * fvv[0] - e2[0] * g + (e2[0] - eb * eb * e3[0]) * d]]
    jac0 = [[fuu, fuv], [fvu, fvv]]
    for r in (0, 1):
        for k in (0, 1):
            add(r, k, -(r == k) - h * h * 5 * jac0[r][k][0] / 12
                - h ** 3 * d3[r][k] / 12)
            add(r, 2 + k, (r == k) - h * h * jac0[r][k][1] / 12)
    # interior rows
    for i in range(1, m - 1):
        for r in (0, 1):
            for k in (0, 1):
                for j, weight in ((i - 1, 1), (i, 10), (i + 1, 1)):
                    second = (r == k) * (-2 if j == i else 1)
                    add(2 * i + r, 2 * j + k,
                        second - h * h * weight * jac0[r][k][j] / 12)
    # right boundary (Dirichlet rows)
    add(2 * m - 2, 2 * m - 2, 1.0)
    add(2 * m - 1, 2 * m - 1, 1.0)
    return csr_matrix((vals, (rows, cols)), shape=(2 * m, 2 * m))


def _dense(ab: np.ndarray) -> np.ndarray:
    """Expand a (3, 3)-band array; slots outside the matrix must be zero."""
    n = ab.shape[1]
    out = np.zeros((n, n))
    cols = np.arange(n)
    for k in range(ab.shape[0]):
        rows = cols + k - 3
        inside = (rows >= 0) & (rows < n)
        out[rows[inside], cols[inside]] = ab[k, inside]
        assert not ab[k, ~inside].any()
    return out


def _band(case_id, a: AsymptoticData, t, u, v, out=None) -> np.ndarray:
    """``_jacobian`` at (u, v), from the exponentials of its residual."""
    problem = _problem(_grid(descriptor(case_id).ab, t[0], t[-1], len(t)), a)
    _, e = _residual(problem, np.column_stack((u, v)).ravel())
    return _jacobian(problem, e, out)


def _polish(case_id, a: AsymptoticData, t, u, v, steps=2):
    """Full Newton steps from a solved profile (two by default).  The first
    removes the error that stopping on the h^2-scaled residual leaves (up to
    6e-7); the next stay at rounding level (below 5e-11 on grids of up to
    1025 points, and 1e-9 on 2,048)."""
    for _ in range(steps):
        res = residual_vector(case_id, a, t, u, v)
        step = solve_banded((3, 3), _band(case_id, a, t, u, v), -res)
        u, v = u + step[0::2], v + step[1::2]
    assert np.max(np.abs(step)) < 1e-9, (case_id, tuple(a))
    return u, v


def _distance(u1, v1, u2, v2) -> float:
    return float(max(np.max(np.abs(u1 - u2)), np.max(np.abs(v1 - v2))))


def _random_state(rng, a: AsymptoticData, m: int):
    t = np.linspace(-6.0, 2.0, m)
    u = float(a.gamma) * np.minimum(t, 0) + 0.05 * rng.standard_normal(m)
    v = float(a.delta) * np.minimum(t, 0) + 0.05 * rng.standard_normal(m)
    return t, u, v


def _region_points(case: str, rng: random.Random, count: int, max_den: int):
    """The three vertices of the case's region, then random points in it."""
    ea, eb = descriptor(case).ab
    lo, hi = Fraction(-2, ea), Fraction(2, eb)
    points = [AsymptoticData(lo, hi), AsymptoticData(lo, lo - 2),
              AsymptoticData(hi + 2, hi)]
    while len(points) < 3 + count:
        q = rng.randint(1, max_den)
        gamma = Fraction(rng.randint(math.ceil(lo * q), math.floor((hi + 2) * q)), q)
        delta = Fraction(rng.randint(math.ceil((gamma - 2) * q), math.floor(hi * q)), q)
        points.append(AsymptoticData(gamma, delta))
    assert all(in_region(case, p) for p in points)
    return points


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_min=1.0, t_max=0.0)
    with pytest.raises(ValueError):
        SolverConfig(grid_points=8)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(t_max=bad)
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(t_min=bad)
    # a grid above the cap is refused when the config is built, before
    # anything is allocated for it
    for points in (MAX_GRID_POINTS + 1, 100_000_000):
        with pytest.raises(ValueError, match="grid_points"):
            SolverConfig(grid_points=points)
    SolverConfig(grid_points=MAX_GRID_POINTS)


def test_outside_region_rejected():
    with pytest.raises(ValueError):
        solve_radial("4a", AsymptoticData(F(5), F(0)), FAST)


def test_trivial_solution():
    sol = solve_radial("4a", AsymptoticData(F(0), F(0)), FAST)
    assert np.max(np.abs(sol.u)) < 1e-10
    assert np.max(np.abs(sol.v)) < 1e-10
    rep = verify_asymptotics(sol, 1e-6)
    assert rep.ok


def test_unsolved_profile_not_verified():
    sol = solve_radial("4a", AsymptoticData(F(3), F(1)), FAST)
    rep = verify_asymptotics(sol._replace(residual_norm=1e-3), 0.05)
    assert rep.gamma_ok and rep.delta_ok
    assert not rep.residual_ok and not rep.ok


def test_interior_point_slopes():
    sol = solve_radial("4a", AsymptoticData(F(1), F("-1/3")), FAST)
    rep = verify_asymptotics(sol, 0.05)
    assert rep.ok and sol.residual_norm < 1e-10


def test_newton_history():
    sol = solve_radial("4a", AsymptoticData(F(3), F(1)), FAST)
    assert sol.iterations > 0 and len(sol.history) == sol.iterations
    residuals = [r for r, _, _ in sol.history]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] == sol.residual_norm
    assert all(0 < lam <= 1 and step > 0 for _, lam, step in sol.history)
    trivial = solve_radial("4a", AsymptoticData(F(0), F(0)), FAST)
    assert trivial.iterations == 0 and trivial.history == ()


@pytest.mark.parametrize("case", ["4a", "5a", "5c", "6a"])
def test_banded_jacobian_matches_reference(case):
    rng = np.random.default_rng(11)
    for a in _region_points(case, random.Random(case), 2, 12):
        t, u, v = _random_state(rng, a, 96)
        ab = _band(case, a, t, u, v)
        assert ab.shape == (7, 2 * len(t))
        ref = _reference_jacobian(case, a, t, u, v).toarray()
        assert np.allclose(_dense(ab), ref, rtol=1e-13, atol=1e-15)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    case, a = "4a", AsymptoticData(F(1), F("-1/3"))
    t, u, v = _random_state(rng, a, 80)
    jac = _dense(_band(case, a, t, u, v))
    state = np.empty(2 * len(t))
    state[0::2], state[1::2] = u, v

    def res(s):
        return residual_vector(case, a, t, s[0::2], s[1::2])

    eps = 1e-7
    cols = rng.choice(2 * len(t), size=40, replace=False)
    for j in cols:
        e = np.zeros_like(state)
        e[j] = eps
        fd = (res(state + e) - res(state - e)) / (2 * eps)
        denom = max(np.max(np.abs(jac[:, j])), 1.0)
        assert np.max(np.abs(fd - jac[:, j])) / denom < 1e-6


def test_truncated_window_fails_slope():
    sol = solve_radial("4a", AsymptoticData(F(3), F(1)),
                       SolverConfig(t_min=-2.0, t_max=4.0, grid_points=512))
    rep = verify_asymptotics(sol, 0.05)
    assert not rep.ok


def test_group_profile_consistency():
    a = AsymptoticData(F(1), F(-1))
    sols = [solve_radial(cid, a, FAST) for cid in ("4a", "4b")]
    assert np.max(np.abs(sols[0].u - sols[1].u)) < 1e-8
    assert np.max(np.abs(sols[0].v - sols[1].v)) < 1e-8


def test_sign_pattern_6c():
    # gamma < 0 < delta: near t -> -infinity, u ~ gamma*t is positive and
    # v ~ delta*t is negative
    sol = solve_radial("6c", AsymptoticData(F(-2), F(2)), FAST)
    half = len(sol.grid) // 2
    assert np.all(sol.u[:half] >= -1e-12)
    assert np.all(sol.v[:half] <= 1e-12)


def test_non_convergence_reported(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON_STEPS", 2)
    with pytest.raises(ConvergenceError, match="no convergence after 2 ") as info:
        solve_radial("4a", AsymptoticData(F(3), F(1)), FAST)
    assert len(info.value.history) == 2
    assert info.value.history[-1][0] == info.value.residual


def test_overflow_raises_convergence_error():
    """A solve whose iterates overflow ends in ConvergenceError, also with
    numpy's warnings turned into errors: the line search rejects the nan and
    inf residuals, and no RuntimeWarning escapes, nor one from the constants
    of a window so wide that they overflow, when they are built or cached
    (its Newton tolerance overflows to inf, which no nan residual is
    below)."""
    for cfg in (SolverConfig(t_min=-1e300, grid_points=64),
                SolverConfig(t_min=-1e300, grid_points=64),
                SolverConfig(t_min=-1e308, t_max=8.0, grid_points=64)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="line search stalled"):
                solve_radial("4a", AsymptoticData(F(3), F(1)), cfg)


def test_residual_vector_overflow_warns_nothing():
    """``residual_vector`` on a window whose constants overflow gives inf and
    nan rows, as ``solve_radial`` does, and no RuntimeWarning."""
    t = np.linspace(-1e300, 4, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = residual_vector("4a", AsymptoticData(F(3), F(1)), t, 3.0 * t, t)
    assert res.shape == (128,) and not np.isfinite(res).all()


@pytest.mark.parametrize("case", ["4a", "5a", "5c", "6a"])
def test_robustness_sweep(case):
    rng = random.Random(f"radial-{case}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in _region_points(case, rng, 40, 12):
            sol = solve_radial(case, a)
            assert sol.residual_norm < 1e-10, (case, tuple(a))
            assert verify_asymptotics(sol, 0.05).ok, (case, tuple(a))


def test_grid_refinement_stability():
    a = AsymptoticData(F("5/3"), F(1))
    coarse = solve_radial("4a", a, SolverConfig(grid_points=1024))
    fine = solve_radial("4a", a, SolverConfig(grid_points=2048))
    assert abs(coarse.fitted_gamma - fine.fitted_gamma) < 0.05
    assert abs(coarse.fitted_delta - fine.fitted_delta) < 0.05


def test_coarse_grid_failure_names_grid(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON_STEPS", 2)
    a = AsymptoticData(F(3), F(1))
    for points in (256, 512, 2048):
        with pytest.raises(ConvergenceError,
                           match=f"on the {points}-point grid") as info:
            solve_radial("4a", a, SolverConfig(grid_points=points))
        assert len(info.value.history) == 2


def test_singular_step_raises(monkeypatch):
    # a Jacobian left all zero makes gbsv report a zero pivot
    monkeypatch.setattr(solver, "_jacobian",
                        lambda problem, e, out: out.fill(0.0))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_radial("4a", AsymptoticData(F(3), F(1)), FAST)


def test_solver_import_skips_scipy_linalg():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ttstar.solver; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.linalg._flapack']"


def test_missing_lapack_extension_raises(monkeypatch, tmp_path):
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError, match="_flapack not found"):
        solver._load_dgbsv()


def test_direct_dgbsv_matches_scipy(monkeypatch):
    """Every Newton step of three solves, through the directly loaded ``dgbsv``
    and through ``scipy.linalg.lapack.dgbsv``: bitwise-equal LU, pivots,
    steps and ``info``; then a singular band, where both report a zero pivot."""
    calls, direct = [], solver.dgbsv

    def recording(kl, ku, ab, b, **kwargs):
        calls.append((ab.copy(order="F"), b.copy()))
        return direct(kl, ku, ab, b, **kwargs)

    monkeypatch.setattr(solver, "dgbsv", recording)
    solve_radial("4a", AsymptoticData(F(3), F(1)))
    solve_radial("6a", AsymptoticData(F(1), F(2)))
    solve_radial("5c", AsymptoticData(F(-2), F(1)))
    monkeypatch.undo()
    assert len(calls) > 10
    singular = np.zeros_like(calls[0][0], order="F")
    infos = []
    for ab, b in calls + [(singular, calls[0][1])]:
        ours = direct(3, 3, ab.copy(order="F"), b.copy())
        ref = lapack.dgbsv(3, 3, ab.copy(order="F"), b.copy())
        assert ours[3] == ref[3]
        for x, y in zip(ours[:3], ref[:3]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        infos.append(ours[3])
    assert infos[:-1] == [0] * len(calls) and infos[-1] > 0


def _same_solution(x, y) -> bool:
    return (x.grid.tobytes() == y.grid.tobytes() and x.u.tobytes() == y.u.tobytes()
            and x.v.tobytes() == y.v.tobytes() and x.history == y.history
            and (x.residual_norm, x.fitted_gamma, x.fitted_delta, x.offset_u,
                 x.offset_v) == (y.residual_norm, y.fitted_gamma, y.fitted_delta,
                                 y.offset_u, y.offset_v))


def test_cached_grids_interleave():
    """Solves interleaved across two cases and two grid sizes give bitwise
    the solutions of the same solves run alone, each on an empty cache of
    grid constants; solves on one config share its read-only grid."""
    runs = [(case, a, cfg)
            for cfg in (SolverConfig(), SolverConfig(grid_points=2048))
            for case, a in (("4a", AsymptoticData(F(3), F(1))),
                            ("6a", AsymptoticData(F(1), F(2))))]
    alone = []
    for case, a, cfg in runs:
        solver._grid.cache_clear()
        alone.append(solve_radial(case, a, cfg))
    solver._grid.cache_clear()
    order = [0, 3, 1, 2, 2, 0, 3, 1]
    interleaved = [solve_radial(*runs[i]) for i in order]
    for i, sol in zip(order, interleaved):
        assert _same_solution(sol, alone[i]), runs[i]
    assert interleaved[0].grid is interleaved[5].grid
    assert solver._grid.cache_info().currsize == 4
    for sol in interleaved:
        assert not sol.grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sol.grid[0] = 0.0


def test_fit_slope_matches_polyfit():
    """``_fit_slope`` of one column and of the (u, v) columns of a solve."""
    rng = np.random.default_rng(5)
    samples = []
    for m in (40, 64, 512, 2048):
        t = np.linspace(-12.0, 4.0, m)
        samples += [(t, 3.0 * t + 2.0 + rng.standard_normal(m)),
                    (t, rng.uniform(-1e3, 1e3, m))]
    for case in ("4a", "5a", "5c", "6a"):
        for r in integral_solutions(case):
            sol = solve_radial(case, r.asymptotic)
            w = np.column_stack((sol.u, sol.v))
            t = sol.grid
            grid = _grid(descriptor(case).ab, t[0], t[-1], len(t))
            (fg, fd), (cu, cv) = _fit_slope(grid, w)
            assert (fg, fd, cu, cv) == (sol.fitted_gamma, sol.fitted_delta,
                                        sol.offset_u, sol.offset_v)
            samples.append((sol.grid, w))
    assert len(samples) == 8 + 76
    for t, w in samples:
        n = max(len(t) // 10, 4)
        ref = np.polyfit(t[:n], w[:n], 1)
        assert np.allclose(_fit_slope(_grid((1, 1), t[0], t[-1], len(t)), w), ref,
                           rtol=0, atol=1e-9)


def test_residual_norm_is_residual_vector():
    """The Newton loop's residual, evaluated with the Jacobian's exponentials,
    is the public ``residual_vector`` of the profile it returns, exactly, and
    bounds the profile at t_max."""
    for case in ("4a", "5a", "5c", "6a"):
        for r in integral_solutions(case):
            sol = solve_radial(case, r.asymptotic)
            res = residual_vector(case, r.asymptotic, sol.grid, sol.u, sol.v)
            assert sol.residual_norm == float(np.max(np.abs(res))), (case, r.asymptotic)
            # the Dirichlet rows are rows of the residual, so a solved
            # profile decays: verify_asymptotics checks no boundary value
            assert abs(sol.u[-1]) + abs(sol.v[-1]) <= 2 * sol.residual_norm


def _recording_dgbsv(monkeypatch) -> list[int]:
    """Replace ``solver.dgbsv`` by a wrapper that records the order of every
    band it solves; the list it fills."""
    sizes, direct = [], solver.dgbsv

    def recording(kl, ku, ab, b, **kwargs):
        sizes.append(ab.shape[1])
        return direct(kl, ku, ab, b, **kwargs)

    monkeypatch.setattr(solver, "dgbsv", recording)
    return sizes


def _integral_points() -> list[tuple[str, AsymptoticData]]:
    """The 76 integral points of 4a, 5a, 5c and 6a."""
    points = [(case, r.asymptotic) for case in ("4a", "5a", "5c", "6a")
              for r in integral_solutions(case)]
    assert len(points) == 76
    return points


# the Newton steps of the default solve at each of _integral_points(), as
# before the stopping tolerance was worked out from the grid
DEFAULT_STEPS = ("4444444444443034334554444445444434440454444445544443440445"
                 "444444454440333443")


def test_newton_steps(monkeypatch):
    """From the asymptotic shape bent at t = KINK, the default grid takes at
    most 4 Newton steps per solve on average at the 76 integral points (3.76
    measured) and at most 5 at any, each a solve of the requested size, all
    full steps.  The tolerance there is exactly 1e-10, so every history is
    the one a fixed tolerance of 1e-10 gave: the same step counts."""
    points = _integral_points()
    sizes = _recording_dgbsv(monkeypatch)
    sols = [solve_radial(case, a) for case, a in points]
    monkeypatch.undo()
    steps = [sol.iterations for sol in sols]
    assert len(sizes) == sum(steps) <= 4 * len(points) and max(steps) <= 5
    assert set(sizes) == {2 * SolverConfig().grid_points}
    assert "".join(map(str, steps)) == DEFAULT_STEPS
    assert all(lam == 1.0 for sol in sols for _, lam, _ in sol.history)
    assert {newton_tolerance(sol.grid, a) for sol, (_, a) in zip(sols, points)} == {1e-10}


@pytest.mark.parametrize("points", [2048, 4096])
def test_tight_tol_bounds_requested_grid(monkeypatch, points):
    """On a fine grid the tolerance is tighter than the default 1e-10 (by
    (h/h0)^2, down to its rounding floor): the iteration runs on the
    requested grid alone, from the kink, and stops at its first iterate with
    a residual below it."""
    cfg = SolverConfig(grid_points=points)
    sizes = _recording_dgbsv(monkeypatch)
    for case, a in (("4a", AsymptoticData(F(3), F(1))),
                    ("6a", AsymptoticData(F(1), F(2))),
                    ("5c", AsymptoticData(F(-2), F(1)))):
        sol = solve_radial(case, a, cfg)
        tol = newton_tolerance(sol.grid, a)
        assert tol < 2e-12, (case, tuple(a))
        residuals = [r for r, _, _ in sol.history]
        assert sol.residual_norm < tol, (case, tuple(a))
        assert all(r >= tol for r in residuals[:-1]), (case, tuple(a))
    assert set(sizes) == {2 * points}


def test_newton_tolerance():
    """1e-10 (h/h0)^2 with h0 the default grid's spacing, and never below
    16 eps times the size of the asymptote at t_min."""
    eps, a = np.finfo(float).eps, AsymptoticData(F(3), F(-1))
    for t_min, t_max, m in ((-12.0, 4.0, 256), (-12.0, 4.0, 2048), (-24.0, 8.0, 64),
                            (-100.0, 8.0, 4096), (-12.0, 4.0, MAX_GRID_POINTS)):
        t = np.linspace(t_min, t_max, m)
        h = (t_max - t_min) / (m - 1)
        expected = max(1e-10 * (h * 255 / 16) ** 2, 16 * eps * 3 * abs(t_min))
        assert newton_tolerance(t, a) == pytest.approx(expected, rel=1e-12)
    assert newton_tolerance(np.linspace(-12.0, 4.0, 256), a) == 1e-10
    # the floor is 16 eps where the asymptote is small at t_min
    tiny = newton_tolerance(np.linspace(-0.5, 4.0, MAX_GRID_POINTS),
                            AsymptoticData(F(1), F(0)))
    assert tiny == 16 * eps


@pytest.mark.parametrize("points", [256, 2048])
def test_profile_near_discrete_solution(points):
    """At every integral point of 4a, 5a, 5c and 6a the profile lies within
    1e-6 of its grid's discrete solution, the profile polished by three full
    Newton steps (3.7e-7 at most, measured on 256, 2,048 and 4,096 points; a
    fixed tolerance of 1e-10 left 1.7e-5 on the finer two)."""
    cfg = SolverConfig(grid_points=points)
    worst = 0.0
    for case, a in _integral_points():
        sol = solve_radial(case, a, cfg)
        u, v = _polish(case, a, sol.grid, sol.u, sol.v, steps=3)
        worst = max(worst, _distance(sol.u, sol.v, u, v))
    assert worst <= 1e-6


def test_t_max_above_8_refused():
    """t_max is at most 8: beyond about 9.5 the residual's rounding floor is
    out of reach, and the far field is zero to double precision from t = 3."""
    SolverConfig(t_max=8.0)
    for t_max in (8.000001, 9.0, 400.0, 1e308):
        with pytest.raises(ValueError, match="^t_max must be at most 8$"):
            SolverConfig(t_max=t_max)


@pytest.mark.parametrize("points", [64, 256, 2048])
def test_widest_window_converges(points):
    """At t_max = 8, every integral point of the ten cases converges with
    t_min -12 and -24 (at most 6 Newton steps measured)."""
    for t_min in (-12.0, -24.0):
        cfg = SolverConfig(t_min=t_min, t_max=8.0, grid_points=points)
        for case in CASE_IDS:
            for r in integral_solutions(case):
                sol = solve_radial(case, r.asymptotic, cfg)
                assert sol.residual_norm < newton_tolerance(sol.grid, r.asymptotic)


# the symmetric line delta = -gamma of 4a and 4b, where v = -u solves the
# radial sinh-Gordon equation u_tt = 8 e^{2t} sinh(2u), a Painleve III
# equation whose connection formulae are known in closed form (McCoy, Tracy
# and Wu, J. Math. Phys. 18, 1977); gamma = +-9/10 is left out, where the
# cut-off at t_min -12 puts the far field 0.7% off
SYMMETRIC_GAMMAS = ("1/10", "1/3", "2/3", "-1/10", "-1/3", "-2/3")


@pytest.mark.parametrize("points", [256, 2048])
@pytest.mark.parametrize("case", ["4a", "4b"])
def test_symmetric_line_matches_painleve_iii(case, points):
    """With sigma = -gamma and lambda = sin(pi sigma/2)/pi: v = -u to rounding
    (3.4e-11 measured), u = 2 lambda K_0(4 e^t) (1 + o(1)) at the first node
    with t >= 0.5 (ratio 1.0000 to 1.0002), and u = gamma t + rho +
    O(e^{2(1 - |gamma|)t}) at t = -8 with
    rho = gamma ln 4 + 3 sigma ln 2 - ln Gamma((1 - sigma)/2)
    + ln Gamma((1 + sigma)/2) (off by 5.3e-7, 2.3e-5 and 5.6e-3 for
    |gamma| = 1/10, 1/3, 2/3)."""
    from scipy.special import k0
    for text in SYMMETRIC_GAMMAS:
        gamma = F(text)
        a = AsymptoticData(gamma, -gamma)
        assert in_region(case, a)
        sol = solve_radial(case, a, SolverConfig(grid_points=points))
        t, u = sol.grid, sol.u
        assert np.max(np.abs(u + sol.v)) <= 1e-10, text
        g = float(gamma)
        sigma = -g
        lam = math.sin(math.pi * sigma / 2) / math.pi
        i = int(np.searchsorted(t, 0.5))
        assert abs(u[i] / (2 * lam * k0(4 * math.exp(t[i]))) - 1) <= 1e-3, text
        rho = (g * math.log(4) + 3 * sigma * math.log(2)
               - math.lgamma((1 - sigma) / 2) + math.lgamma((1 + sigma) / 2))
        offset = float(np.interp(-8.0, t, u)) + 8.0 * g - rho
        assert abs(offset) <= 2 * math.exp(-16.0 * (1 - abs(g))), text


def test_jacobian_refills_band():
    """``_jacobian`` rewrites its buffer in full: into a buffer of NaN, and
    into the same buffer after ``dgbsv`` has overwritten it with LU factors,
    it writes the reference Jacobian and zero fill-in rows, at several
    sizes."""
    rng = np.random.default_rng(3)
    for case, m in (("4a", 8), ("5a", 96), ("5c", 256), ("6a", 64)):
        a = _region_points(case, random.Random(case), 1, 12)[-1]
        t, u, v = _random_state(rng, a, m)
        ref = _reference_jacobian(case, a, t, u, v).toarray()
        band = np.full((10, 2 * m), np.nan, order="F")
        for _ in range(2):
            ab = _band(case, a, t, u, v, band)
            assert np.allclose(_dense(ab), ref, rtol=1e-13, atol=1e-15), (case, m)
            assert not band[:3].any(), (case, m)
            before = band.copy()
            info = solver.dgbsv(3, 3, band, np.ones(2 * m), overwrite_ab=1,
                                overwrite_b=1)[3]
            assert info == 0 and not np.array_equal(band, before)


# integral points of each case for the independent checks of the profile:
# among them the largest errors of the default solve against solve_bvp
# (5a (-1, 1/3), 6a (1, -1), 4a (1/3, 1)) and the largest slope error
# (6a (-2, -4))
ORACLE_POINTS = {
    "4a": [(3, 1), ("1/3", 1), (-1, -3)],
    "5a": [(4, 2), (-1, "1/3"), ("-1/6", "7/6")],
    "5c": [(-2, 1), (-2, -4)],
    "6a": [(-2, -4), (1, -1), (-2, 2)],
}


def _solve_bvp_profile(case_id, sol) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) of ``scipy.integrate.solve_bvp`` at tol 1e-10 on the
    first-order system (u, u', v, v'), with the continuous boundary
    conditions, at the nodes of ``sol`` (its profile is the initial guess)."""
    ea, eb = descriptor(case_id).ab
    gamma, delta = float(sol.asymptotic.gamma), float(sol.asymptotic.delta)

    def rhs(t, y):
        u, du, v, dv = y
        e1, e2, e3 = np.exp(2 * t + ea * u), np.exp(2 * t + v - u), np.exp(2 * t - eb * v)
        return np.vstack([du, 4 * (e1 - e2), dv, 4 * (e2 - e3)])

    def bc(ya, yb):
        return np.array([ya[1] - gamma, ya[3] - delta, yb[0], yb[2]])

    t = sol.grid
    guess = np.vstack([sol.u, np.gradient(sol.u, t), sol.v, np.gradient(sol.v, t)])
    ref = solve_bvp(rhs, bc, t, guess, tol=1e-10, max_nodes=10 ** 6)
    assert ref.success, ref.message
    y = ref.sol(t)
    return y[0], y[2]


@pytest.mark.parametrize("case", sorted(ORACLE_POINTS))
def test_profile_matches_solve_bvp(case):
    """The default profile within 5e-7 of an independent collocation solve
    (at most 3.7e-7 measured over all 76 integral points of 4a, 5a, 5c and
    6a; the 2,048-point central differences this solver replaced were off
    by 6e-7 to 3.2e-6)."""
    for gamma, delta in ORACLE_POINTS[case]:
        a = AsymptoticData(F(gamma), F(delta))
        assert a in {r.asymptotic for r in integral_solutions(case)}
        sol = solve_radial(case, a)
        u, v = _solve_bvp_profile(case, sol)
        assert _distance(sol.u, sol.v, u, v) <= 5e-7, (case, tuple(a))


def test_fourth_order_self_convergence():
    """Polished profiles on the nested grids of 257, 513 and 1025 points: the
    change from 257 to 513 is at least 12 times the change from 513 to 1025
    at the shared nodes (15.9 to 16.0 measured at every nonzero integral point
    of 4a, 5a, 5c and 6a; a third-order scheme would give 8).  The points off
    the integral set have a source term that decays slowly along the
    asymptote (kappa of 0.2 to 0.4), so the third derivative in the slope row
    matters there: without it the ratio falls to 4."""
    slow_decay = [("4a", "-9/10", "-1/2"), ("4a", "-4/5", "1/5"),
                  ("6a", "-9/5", "1"), ("5a", "-9/10", "1/3")]
    points = [(case, g, d) for case, pts in ORACLE_POINTS.items() for g, d in pts]
    for case, gamma, delta in points + slow_decay:
        a = AsymptoticData(F(gamma), F(delta))
        assert in_region(case, a)
        u, v = [], []
        for m in (257, 513, 1025):
            sol = solve_radial(case, a, SolverConfig(grid_points=m))
            pu, pv = _polish(case, a, sol.grid, sol.u, sol.v)
            u.append(pu[::(m - 1) // 256])
            v.append(pv[::(m - 1) // 256])
        coarse = _distance(u[0], v[0], u[1], v[1])
        fine = _distance(u[1], v[1], u[2], v[2])
        assert coarse >= 12 * fine, (case, tuple(a), coarse / fine)


def test_integral_points_verified():
    """The default solve at all 76 integral points of 4a, 5a, 5c and 6a: a
    residual below 1e-10 and fitted slopes within 0.05."""
    for case in ("4a", "5a", "5c", "6a"):
        for r in integral_solutions(case):
            sol = solve_radial(case, r.asymptotic)
            assert sol.residual_norm < 1e-10, (case, r.asymptotic)
            assert verify_asymptotics(sol, 0.05).ok, (case, r.asymptotic)
