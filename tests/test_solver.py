import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.sparse import csr_matrix

from ttstar import solver
from ttstar.cases import AsymptoticData, descriptor, in_region
from ttstar.enumeration import integral_solutions
from ttstar.solver import (ConvergenceError, SolverConfig, _fit_slope,
                           _jacobian, _source_terms, residual_vector,
                           solve_radial, verify_asymptotics)


def F(x):
    return Fraction(x)


FAST = SolverConfig(grid_points=512)


def _reference_jacobian(case_id, t, u, v, h) -> csr_matrix:
    """Slow reference: the Jacobian assembled entry by entry as a CSR matrix."""
    ea, eb = descriptor(case_id).ab
    m = len(t)
    _, _, e1, e2, e3 = _source_terms(t, u, v, ea, eb)
    h2 = h * h
    rows, cols, vals = [], [], []

    def add(r, c, val):
        rows.append(r)
        cols.append(c)
        vals.append(val)

    # left boundary (slope rows)
    for comp in (0, 1):
        add(comp, comp, -3.0)
        add(comp, comp + 2, 4.0)
        add(comp, comp + 4, -1.0)
    # interior rows
    for i in range(1, m - 1):
        ru, rv = 2 * i, 2 * i + 1
        cu, cv = 2 * i, 2 * i + 1
        # d(e1 - e2)/du = a*e1 + e2 ; d/dv = -e2
        add(ru, cu - 2, 1.0)
        add(ru, cu + 2, 1.0)
        add(ru, cu, -2.0 - h2 * (ea * e1[i] + e2[i]))
        add(ru, cv, -h2 * (-e2[i]))
        # d(e2 - e3)/du = -e2 ; d/dv = e2 + b*e3
        add(rv, cv - 2, 1.0)
        add(rv, cv + 2, 1.0)
        add(rv, cv, -2.0 - h2 * (e2[i] + eb * e3[i]))
        add(rv, cu, -h2 * (-e2[i]))
    # right boundary (Dirichlet rows)
    add(2 * m - 2, 2 * m - 2, 1.0)
    add(2 * m - 1, 2 * m - 1, 1.0)
    return csr_matrix((vals, (rows, cols)), shape=(2 * m, 2 * m))


def _dense(ab: np.ndarray) -> np.ndarray:
    """Expand a (2, 4)-band array; slots outside the matrix must be zero."""
    n = ab.shape[1]
    out = np.zeros((n, n))
    cols = np.arange(n)
    for k in range(ab.shape[0]):
        rows = cols + k - 4
        inside = (rows >= 0) & (rows < n)
        out[rows[inside], cols[inside]] = ab[k, inside]
        assert not ab[k, ~inside].any()
    return out


def _reference_solve(case_id, a: AsymptoticData, cfg: SolverConfig = SolverConfig()):
    """Slow reference: damped Newton on the requested grid alone, cold-started
    from the piecewise-linear asymptotic shape, each step by ``solve_banded``.
    Returns (t, u, v, residual)."""
    t = np.linspace(cfg.t_min, cfg.t_max, cfg.grid_points)
    h = t[1] - t[0]
    u = float(a.gamma) * np.minimum(t, 0.0)
    v = float(a.delta) * np.minimum(t, 0.0)
    res = residual_vector(case_id, a, t, u, v)
    norm = float(np.max(np.abs(res)))
    for _ in range(cfg.max_iterations):
        if norm < cfg.newton_tol:
            break
        step = solve_banded((2, 4), _jacobian(case_id, t, u, v, h), -res)
        lam = 1.0
        for _ in range(40):
            un = u + lam * step[0::2]
            vn = v + lam * step[1::2]
            rn = residual_vector(case_id, a, t, un, vn)
            nn = float(np.max(np.abs(rn)))
            if np.isfinite(nn) and nn < norm:
                break
            lam *= 0.5
        else:
            raise ConvergenceError(f"reference line search stalled at {norm:.3e}", norm)
        u, v, res, norm = un, vn, rn, nn
    return t, u, v, norm


def _polish(case_id, a: AsymptoticData, t, u, v, tol: float = 1e-13):
    """Full Newton steps until the residual is below tol (at most ten)."""
    h = t[1] - t[0]
    for _ in range(10):
        res = residual_vector(case_id, a, t, u, v)
        if np.max(np.abs(res)) < tol:
            return u, v
        step = solve_banded((2, 4), _jacobian(case_id, t, u, v, h), -res)
        u, v = u + step[0::2], v + step[1::2]
    raise AssertionError(f"polishing {case_id} {tuple(a)} did not reach {tol}")


def _distance(u1, v1, u2, v2) -> float:
    return float(max(np.max(np.abs(u1 - u2)), np.max(np.abs(v1 - v2))))


def _random_state(rng, a: AsymptoticData, m: int):
    t = np.linspace(-6.0, 2.0, m)
    u = float(a.gamma) * np.minimum(t, 0) + 0.05 * rng.standard_normal(m)
    v = float(a.delta) * np.minimum(t, 0) + 0.05 * rng.standard_normal(m)
    return t, t[1] - t[0], u, v


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
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=float("inf"))
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(t_max=bad)
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(t_min=bad)
    SolverConfig(max_iterations=0)


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
    sol = solve_radial("4a", AsymptoticData(F(3), F(1)),
                       SolverConfig(grid_points=512, newton_tol=1.0))
    assert sol.iterations == 0 and sol.residual_norm > 1e-3
    rep = verify_asymptotics(sol, 0.05)
    assert rep.gamma_ok and rep.delta_ok and rep.decay_ok
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
        t, h, u, v = _random_state(rng, a, 96)
        ab = _jacobian(case, t, u, v, h)
        assert ab.shape == (7, 2 * len(t))
        ref = _reference_jacobian(case, t, u, v, h).toarray()
        assert np.array_equal(_dense(ab), ref)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    case, a = "4a", AsymptoticData(F(1), F("-1/3"))
    t, h, u, v = _random_state(rng, a, 80)
    jac = _dense(_jacobian(case, t, u, v, h))
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


def test_non_convergence_reported():
    with pytest.raises(ConvergenceError) as info:
        solve_radial("4a", AsymptoticData(F(3), F(1)),
                     SolverConfig(grid_points=512, max_iterations=2))
    assert len(info.value.history) == 2
    assert info.value.history[-1][0] == info.value.residual


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


def test_coarse_grid_failure_names_grid():
    a = AsymptoticData(F(3), F(1))
    for points, coarse in ((512, 64), (2048, 256), (4096, 64)):
        with pytest.raises(ConvergenceError,
                           match=f"on the {coarse}-point warm-start grid") as info:
            solve_radial("4a", a, SolverConfig(grid_points=points, max_iterations=2))
        assert len(info.value.history) == 2
    with pytest.raises(ConvergenceError, match="on the 256-point grid"):
        solve_radial("4a", a, SolverConfig(grid_points=256, max_iterations=2))


def test_singular_step_raises(monkeypatch):
    # a Jacobian left all zero makes gbsv report a zero pivot
    monkeypatch.setattr(solver, "_jacobian",
                        lambda case_id, t, u, v, h, out: out.fill(0.0))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_radial("4a", AsymptoticData(F(3), F(1)), FAST)


@pytest.mark.parametrize("case", ["4a", "5a", "5c", "6a"])
def test_warm_start_matches_reference(case):
    """The nested solve against the cold single-grid reference, at the 19
    integral points and the robustness-sweep points of the case."""
    points = [r.asymptotic for r in integral_solutions(case)]
    points += _region_points(case, random.Random(f"radial-{case}"), 40, 12)
    new_gap = ref_gap = 0.0
    for a in points:
        sol = solve_radial(case, a)
        t, u, v, norm = _reference_solve(case, a)
        assert sol.residual_norm < 1e-10 and norm < 1e-10, (case, tuple(a))
        assert np.array_equal(sol.grid, t)
        pu, pv = _polish(case, a, t, sol.u, sol.v)
        qu, qv = _polish(case, a, t, u, v)
        # the same discrete solution, as far as polishing can tell
        assert _distance(pu, pv, qu, qv) < 1e-6, (case, tuple(a))
        new_gap = max(new_gap, _distance(sol.u, sol.v, pu, pv))
        ref_gap = max(ref_gap, _distance(u, v, qu, qv))
        assert abs(sol.fitted_gamma - _fit_slope(t, u)[0]) < 1e-5, (case, tuple(a))
        assert abs(sol.fitted_delta - _fit_slope(t, v)[0]) < 1e-5, (case, tuple(a))
    assert new_gap <= ref_gap
