"""Radial two-point boundary-value solver for the reduced PDE system.

For radial functions u(|z|), v(|z|) and t = log|z| the system

    u_{z zbar} = e^{au} - e^{v-u},   v_{z zbar} = e^{v-u} - e^{-bv}

becomes (using u_{z zbar} = (u_tt) / (4 e^{2t}) for radial u)

    u_tt = 4 e^{2t} (e^{au} - e^{v-u}),
    v_tt = 4 e^{2t} (e^{v-u} - e^{-bv}).

The solver discretizes with central differences on a uniform grid, imposes
the log-slope (gamma, delta) at t_min by a second-order one-sided
difference and homogeneous Dirichlet data at t_max, and relaxes with a
Newton iteration damped by a line search that halves lambda from 1 until
the residual drops.  The nonlinear terms are always evaluated with
combined exponents exp(2t + a*u) etc., which stay bounded on the region of
asymptotic data.

With the unknowns interleaved as (u_0, v_0, u_1, v_1, ...), the Jacobian is
banded: the interior rows couple a node to its neighbours two columns away
and to the other function at the same node, and the one-sided slope rows
reach four columns to the right.  Each grid owns one Fortran-ordered (9, 2m)
LAPACK band buffer (lower bandwidth 2, upper 4, two rows for the fill-in of
the LU); every Newton step refills it in place with vectorized slices and
factors and solves it with LAPACK's ``dgbsv``, called directly.

The iteration is nested.  A grid of at least WARM_START_POINTS nodes starts
from the converged solution of the grid COARSEN times coarser, interpolated
linearly; a smaller grid starts from the piecewise-linear asymptotic shape.
The tolerance and the iteration limit hold on every grid, so the profile
returned meets the tolerance on the requested grid, and typically one Newton
step there is left to take.  Every accepted step on the requested grid is
recorded as (residual, lambda, max |step|) in the solution's ``history``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgbsv

from .cases import AsymptoticData, descriptor, in_region


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float,
                 history: tuple[tuple[float, float, float], ...] = ()):
        super().__init__(message)
        self.residual = residual
        self.history = history


# the default Newton tolerance, and the residual a verified profile must reach
DEFAULT_NEWTON_TOL = 1e-10
# a grid of at least WARM_START_POINTS nodes starts from the solution on a
# grid COARSEN times coarser; smaller grids start from the asymptotic shape
WARM_START_POINTS = 512
COARSEN = 8


@dataclass(frozen=True)
class SolverConfig:
    t_min: float = -12.0
    t_max: float = 4.0
    grid_points: int = 2048
    newton_tol: float = DEFAULT_NEWTON_TOL
    max_iterations: int = 60

    def __post_init__(self):
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise ValueError("t_min and t_max must be finite")
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be below t_max")
        if self.grid_points < 64:
            raise ValueError("grid_points must be at least 64")
        if not 0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be positive and finite")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


@dataclass(frozen=True)
class RadialSolution:
    case: str
    asymptotic: AsymptoticData
    grid: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    residual_norm: float
    fitted_gamma: float
    fitted_delta: float
    iterations: int
    # additive constant of u - gamma*t near t_min (diagnostic only; the
    # asymptotics fix the slope but not the constant)
    offset_u: float
    offset_v: float
    # (residual after the step, line-search factor lambda, max |Newton step|)
    # for each accepted Newton step on the requested grid
    history: tuple[tuple[float, float, float], ...] = field(repr=False)


def _source_terms(t, u, v, a, b):
    """The two right-hand sides 4 e^{2t}(...), with combined exponents."""
    e1 = 4.0 * np.exp(2.0 * t + a * u)
    e2 = 4.0 * np.exp(2.0 * t + v - u)
    e3 = 4.0 * np.exp(2.0 * t - b * v)
    return e1 - e2, e2 - e3, e1, e2, e3


def residual_vector(case_id: str, a: AsymptoticData, t: np.ndarray,
                    u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h^2-scaled residual of the discretized boundary-value problem.

    Layout: interleaved (F_u[i], F_v[i]) per node; boundary rows encode the
    one-sided slope condition at t_min and the Dirichlet condition at t_max.
    """
    ea, eb = descriptor(case_id).ab
    h = t[1] - t[0]
    gamma, delta = float(a.gamma), float(a.delta)
    fu, fv, *_ = _source_terms(t, u, v, ea, eb)
    out = np.empty(2 * len(t))
    out[0] = -3.0 * u[0] + 4.0 * u[1] - u[2] - 2.0 * h * gamma
    out[1] = -3.0 * v[0] + 4.0 * v[1] - v[2] - 2.0 * h * delta
    out[2:-2:2] = u[:-2] - 2.0 * u[1:-1] + u[2:] - h * h * fu[1:-1]
    out[3:-2:2] = v[:-2] - 2.0 * v[1:-1] + v[2:] - h * h * fv[1:-1]
    out[-2] = u[-1]
    out[-1] = v[-1]
    return out


def _jacobian(case_id: str, t, u, v, h, out=None) -> np.ndarray:
    """Analytic Jacobian of residual_vector, written into a LAPACK band buffer.

    ``out`` is a Fortran-ordered (9, 2m) buffer (a new one when None), the
    layout ``dgbsv`` takes for lower bandwidth 2 and upper 4: rows 0-1 hold
    the LU fill-in and need not be set, and entry (r, c) of the interleaved
    2m x 2m Jacobian sits at ``out[6 + r - c, c]``.  Rows 2-8 are rewritten
    in full and returned as a (7, 2m) view, whose entry (r, c) is at
    ``[4 + r - c, c]``.
    """
    ea, eb = descriptor(case_id).ab
    _, _, e1, e2, e3 = _source_terms(t, u, v, ea, eb)
    h2 = h * h
    if out is None:
        out = np.empty((9, 2 * len(t)), order="F")
    ab = out[2:]
    ab[:] = 0.0
    # left boundary: slope rows 0, 1 have offsets 0, +2, +4
    ab[4, 0:2] = -3.0
    ab[2, 2:4] = 4.0
    ab[0, 4:6] = -1.0
    # interior u-rows 2i have offsets -2, 0, +1, +2 and v-rows 2i+1 have
    # offsets -2, -1, 0, +2; d(e1 - e2)/du = a*e1 + e2, d(e1 - e2)/dv = -e2,
    # d(e2 - e3)/du = -e2, d(e2 - e3)/dv = e2 + b*e3
    ab[6, :-4] = 1.0
    ab[2, 4:] = 1.0
    ab[4, 2:-2:2] = -2.0 - h2 * (ea * e1[1:-1] + e2[1:-1])
    ab[4, 3:-2:2] = -2.0 - h2 * (e2[1:-1] + eb * e3[1:-1])
    ab[3, 3:-2:2] = h2 * e2[1:-1]
    ab[5, 2:-2:2] = h2 * e2[1:-1]
    # right boundary: Dirichlet rows on the diagonal
    ab[4, -2:] = 1.0
    return ab


def _fit_slope(t: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of w over the left 10% of the grid."""
    n = max(len(t) // 10, 4)
    slope, intercept = np.polyfit(t[:n], w[:n], 1)
    return float(slope), float(intercept)


def _relax(case_id: str, a: AsymptoticData, cfg: SolverConfig, m: int):
    """Damped-Newton (t, u, v, residual, history) on an m-point grid.

    Grids of WARM_START_POINTS nodes or more start from the m // COARSEN grid.
    """
    t = np.linspace(cfg.t_min, cfg.t_max, m)
    h = t[1] - t[0]
    if m < WARM_START_POINTS:
        # the piecewise-linear asymptotic shape
        u = float(a.gamma) * np.minimum(t, 0.0)
        v = float(a.delta) * np.minimum(t, 0.0)
    else:
        tc, uc, vc, _, _ = _relax(case_id, a, cfg, m // COARSEN)
        u = np.interp(t, tc, uc)
        v = np.interp(t, tc, vc)
    grid = (f"{m}-point grid" if m == cfg.grid_points
            else f"{m}-point warm-start grid")

    band = np.empty((9, 2 * m), order="F")
    res = residual_vector(case_id, a, t, u, v)
    norm = float(np.max(np.abs(res)))
    history = []
    for _ in range(cfg.max_iterations):
        if norm < cfg.newton_tol:
            break
        _jacobian(case_id, t, u, v, h, band)
        _, _, step, info = dgbsv(2, 4, band, -res, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgbsv")
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
            raise ConvergenceError(
                f"line search stalled at residual {norm:.3e} on the {grid}",
                norm, tuple(history))
        u, v, res, norm = un, vn, rn, nn
        history.append((nn, lam, float(np.max(np.abs(step)))))
    if norm >= cfg.newton_tol:
        raise ConvergenceError(
            f"no convergence after {cfg.max_iterations} iterations on the "
            f"{grid} (residual {norm:.3e})", norm, tuple(history))
    return t, u, v, norm, history


def solve_radial(case_id: str, a: AsymptoticData,
                 cfg: SolverConfig = SolverConfig()) -> RadialSolution:
    """Damped-Newton solution of the radial boundary-value problem.

    The solution's ``iterations`` and ``history`` count the Newton steps on
    the requested grid only, not those of the coarser warm-start grids.
    """
    if not in_region(case_id, a):
        raise ValueError(f"asymptotic data {tuple(a)} outside the region of "
                         f"case {case_id}")
    t, u, v, norm, history = _relax(case_id, a, cfg, cfg.grid_points)
    fg, cu = _fit_slope(t, u)
    fd, cv = _fit_slope(t, v)
    return RadialSolution(case_id, a, t, u, v, norm, fg, fd, len(history),
                          cu, cv, tuple(history))


@dataclass(frozen=True)
class AsymptoticsReport:
    gamma_ok: bool
    delta_ok: bool
    decay_ok: bool
    gamma_error: float
    delta_error: float
    boundary_value: float
    residual_ok: bool

    @property
    def ok(self) -> bool:
        return self.gamma_ok and self.delta_ok and self.decay_ok and self.residual_ok


def verify_asymptotics(sol: RadialSolution, tol_slope: float) -> AsymptoticsReport:
    """Fitted slopes within tol_slope, and a solved, decaying profile.

    The profile counts as solved when its Newton residual is below
    DEFAULT_NEWTON_TOL, whatever tolerance stopped the iteration: a profile
    left unsolved by a loose tolerance would otherwise pass on the exact
    slopes of the initial iterate.
    """
    ge = abs(sol.fitted_gamma - float(sol.asymptotic.gamma))
    de = abs(sol.fitted_delta - float(sol.asymptotic.delta))
    boundary = abs(float(sol.u[-1])) + abs(float(sol.v[-1]))
    return AsymptoticsReport(ge < tol_slope, de < tol_slope,
                             boundary < 10 * DEFAULT_NEWTON_TOL, ge, de, boundary,
                             sol.residual_norm < DEFAULT_NEWTON_TOL)
