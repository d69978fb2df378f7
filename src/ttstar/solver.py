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
asymptotic data.  Each iterate's three exponentials are evaluated once: the
residual that accepts the iterate is built from them, and so is the next
step's Jacobian.  The constants of a grid (a, b, 2t, the slope terms and
h^2) are computed once per grid.

With the unknowns interleaved as (u_0, v_0, u_1, v_1, ...), the Jacobian is
banded: the interior rows couple a node to its neighbours two columns away
and to the other function at the same node, and the one-sided slope rows
reach four columns to the right.  Each grid owns one Fortran-ordered (9, 2m)
LAPACK band buffer (lower bandwidth 2, upper 4, two rows for the fill-in of
the LU).  ``dgbsv`` overwrites it with the LU factors, so every Newton step
refills it in place: one copy of a cached read-only template of the entries
that no iterate changes, then the three rows that depend on the iterate.  It
is factored and solved with LAPACK's ``dgbsv``, called directly.

``dgbsv`` is the f2py wrapper of scipy's LAPACK extension module
``scipy.linalg._flapack``, the same object ``scipy.linalg.lapack.dgbsv``
is.  The solver loads that extension from its file in scipy's package
directory rather than importing ``scipy.linalg``: the package import walks
numpy's lazy submodules (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``,
``numpy.random``) and takes about 0.3 s on a 2-core x86-64 machine, which
a cold ``ttstar solve`` would otherwise pay for this one routine.  Python
records the loaded extension in ``sys.modules`` under its real name, so a
later import of ``scipy.linalg`` reuses it.

The iteration is nested.  A grid of at least WARM_START_POINTS nodes starts
from the converged solution of the grid COARSEN times coarser, interpolated
linearly.  A smaller grid starts from the piecewise-linear asymptotic shape
gamma*min(t - KINK, 0), delta*min(t - KINK, 0).  A solution behaves like
gamma*t + rho near t = -infinity, and at the integral points of 4a, 5a, 5c
and 6a that line crosses zero at t = -1.5 in the median; with the kink at
-2 the 256-point grid of the default solve needs 3.8 Newton steps there on
average to reach the default tolerance, against 6.5 with the kink at 0.
The requested grid iterates to the tolerance ``newton_tol``, and a coarser
grid only to max(newton_tol, WARM_START_TOL): the requested grid starts
from its linear interpolant, whose error is O(h_coarse^2) whatever the
coarse residual, so a tighter warm start buys no steps there.  The 256-point
grid then takes 2.8 steps on average at those points, and the requested grid
typically one.  The iteration limit holds on every grid.  Every accepted
step on the requested grid is recorded as (residual, lambda, max |step|) in
the solution's ``history``.
"""

from __future__ import annotations

import functools
import importlib.util
import math
from dataclasses import dataclass, field
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from pathlib import Path

import numpy as np

from .cases import AsymptoticData, descriptor, in_region


def _load_dgbsv():
    """``dgbsv`` from scipy's ``linalg/_flapack`` extension, loaded from its
    file without importing the ``scipy`` or ``scipy.linalg`` packages."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("the radial solver needs scipy, which is not installed")
    linalg = Path(scipy.submodule_search_locations[0], "linalg")
    finder = FileFinder(str(linalg), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {linalg}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgbsv


dgbsv = _load_dgbsv()


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
# the coarsest grid starts from the asymptotic shape bent at t = KINK, near
# where the converged asymptote crosses zero
KINK = -2.0
# a warm-start grid stops at max(newton_tol, WARM_START_TOL); 1e-6 is the
# loosest decade at which the default requested grid takes no more steps than
# with warm grids solved to 1e-10 (74 at the 76 integral points; at 1e-5 the
# tests' 172 sweep points take 193 instead of 185, and at 1e-4 the integral
# points 120)
WARM_START_TOL = 1e-6
# the largest grid a config accepts (its banded Newton matrix alone takes
# 38 MB); a far larger one would end in a numpy allocation error
MAX_GRID_POINTS = 2 ** 18


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
        if not 64 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points must be between 64 and {MAX_GRID_POINTS}")
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


def _exponentials(t2, u, v, a, b) -> np.ndarray:
    """e^{2t + au}, e^{2t + v - u} and e^{2t - bv} as the rows of one array,
    from t2 = 2t: the three source terms without their factor 4."""
    return np.exp([t2 + a * u, t2 + v - u, t2 - b * v])


def _problem(case_id: str, a: AsymptoticData, t: np.ndarray) -> tuple:
    """The constants of one discretized problem: the exponents (a, b), 2t at
    the interior nodes, the slope terms 2h*gamma and 2h*delta, and 4h^2."""
    ea, eb = descriptor(case_id).ab
    h = float(t[1] - t[0])
    return (ea, eb, 2.0 * t[1:-1], 2.0 * h * float(a.gamma),
            2.0 * h * float(a.delta), 4.0 * (h * h))


def _residual(problem: tuple, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The residual at the interleaved state s = (u_0, v_0, u_1, v_1, ...),
    and the exponentials at the interior nodes it was built from."""
    ea, eb, t2, slope_u, slope_v, c = problem
    e = _exponentials(t2, s[2:-2:2], s[3:-2:2], ea, eb)
    u0, v0, u1, v1, u2, v2 = s[:6].tolist()
    out = np.empty(len(s))
    out[0] = -3.0 * u0 + 4.0 * u1 - u2 - slope_u
    out[1] = -3.0 * v0 + 4.0 * v1 - v2 - slope_v
    # h^2 times the interleaved source terms (e1 - e2, e2 - e3), scaled by 4
    # in c (exactly: scaling by 4 rounds nothing)
    np.subtract((s[:-4] - 2.0 * s[2:-2] + s[4:]).reshape(-1, 2),
                c * (e[:2] - e[1:]).T, out=out[2:-2].reshape(-1, 2))
    out[-2:] = s[-2:]
    return out, e


def residual_vector(case_id: str, a: AsymptoticData, t: np.ndarray,
                    u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h^2-scaled residual of the discretized boundary-value problem.

    Layout: interleaved (F_u[i], F_v[i]) per node; boundary rows encode the
    one-sided slope condition at t_min and the Dirichlet condition at t_max.
    """
    return _residual(_problem(case_id, a, t), np.column_stack((u, v)).ravel())[0]


@functools.lru_cache(maxsize=8)
def _band_template(width: int) -> np.ndarray:
    """The read-only (9, width) band of ``_jacobian``'s entries that no
    iterate changes, zero elsewhere.  A nested solve has at most five grids,
    so the cache holds every width of one solve (at 2^18 points a template
    takes 38 MB, as much as the band)."""
    out = np.zeros((9, width), order="F")
    ab = out[2:]
    # left boundary: slope rows 0, 1 have offsets 0, +2, +4
    ab[4, 0:2] = -3.0
    ab[2, 2:4] = 4.0
    ab[0, 4:6] = -1.0
    # interior rows: the second difference's neighbours at offsets -2, +2
    ab[6, :-4] = 1.0
    ab[2, 4:] = 1.0
    # right boundary: Dirichlet rows on the diagonal
    ab[4, -2:] = 1.0
    out.flags.writeable = False
    return out


def _jacobian(case_id: str, t, u, v, h, out=None, e=None) -> np.ndarray:
    """Analytic Jacobian of residual_vector, written into a LAPACK band buffer.

    ``e`` is ``_exponentials`` at the interior nodes of (t, u, v) when the
    caller has it already (the Newton loop passes that of its residual);
    otherwise it is evaluated here.  ``out`` is a Fortran-ordered (9, 2m)
    buffer (a new one when None), the layout ``dgbsv`` takes for lower
    bandwidth 2 and upper 4: rows 0-1 hold the LU fill-in, and entry (r, c)
    of the interleaved 2m x 2m Jacobian sits at ``out[6 + r - c, c]``.  The
    buffer is rewritten in full: one copy of ``_band_template``, then the
    three rows that depend on the iterate.  Rows 2-8 are returned as a
    (7, 2m) view, whose entry (r, c) is at ``[4 + r - c, c]``.
    """
    ea, eb = descriptor(case_id).ab
    if e is None:
        e = _exponentials(2.0 * t[1:-1], u[1:-1], v[1:-1], ea, eb)
    if out is None:
        out = np.empty((9, 2 * len(t)), order="F")
    e1, e2, e3 = e
    c = 4.0 * (h * h)
    out[...] = _band_template(2 * len(t))
    ab = out[2:]
    # interior u-rows 2i have offsets -2, 0, +1, +2 and v-rows 2i+1 have
    # offsets -2, -1, 0, +2; d(e1 - e2)/du = a*e1 + e2, d(e1 - e2)/dv = -e2,
    # d(e2 - e3)/du = -e2, d(e2 - e3)/dv = e2 + b*e3 (c = 4h^2 takes the
    # source terms' factor 4)
    ab[4, 2:-2:2] = -2.0 - c * (ea * e1 + e2)
    ab[4, 3:-2:2] = -2.0 - c * (e2 + eb * e3)
    ab[3, 3:-2:2] = ab[5, 2:-2:2] = c * e2
    return ab


def _fit_slope(t: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of w over the left 10% of the grid,
    in closed form on the mean-centred points."""
    n = max(len(t) // 10, 4)
    x, y = t[:n], w[:n]
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float(dx @ (y - y_mean)) / float(dx @ dx)
    return slope, float(y_mean) - slope * float(x_mean)


def _relax(case_id: str, a: AsymptoticData, cfg: SolverConfig, m: int):
    """Damped-Newton (t, u, v, residual, history) on an m-point grid.

    Grids of WARM_START_POINTS nodes or more start from the m // COARSEN grid.
    The requested grid iterates to ``cfg.newton_tol``, and a coarser one to
    ``max(cfg.newton_tol, WARM_START_TOL)``.
    """
    t = np.linspace(cfg.t_min, cfg.t_max, m)
    s = np.empty(2 * m)  # the interleaved state (u_0, v_0, u_1, v_1, ...)
    if m < WARM_START_POINTS:
        # the asymptotic shape, bent at t = KINK
        bend = np.minimum(t - KINK, 0.0)
        s[0::2] = float(a.gamma) * bend
        s[1::2] = float(a.delta) * bend
    else:
        tc, uc, vc, _, _ = _relax(case_id, a, cfg, m // COARSEN)
        s[0::2] = np.interp(t, tc, uc)
        s[1::2] = np.interp(t, tc, vc)
    if m == cfg.grid_points:
        grid, tol = f"{m}-point grid", cfg.newton_tol
    else:
        grid, tol = f"{m}-point warm-start grid", max(cfg.newton_tol, WARM_START_TOL)

    problem = _problem(case_id, a, t)
    h = t[1] - t[0]
    band = np.empty((9, 2 * m), order="F")
    res, e = _residual(problem, s)
    norm = float(np.abs(res).max())
    history = []
    for _ in range(cfg.max_iterations):
        if norm < tol:
            break
        _jacobian(case_id, t, s[0::2], s[1::2], h, band, e)
        _, _, step, info = dgbsv(2, 4, band, -res, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgbsv")
        lam = 1.0
        for _ in range(40):
            sn = s + lam * step
            rn, en = _residual(problem, sn)
            nn = float(np.abs(rn).max())
            if nn < norm:  # a nan or inf residual never passes
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"line search stalled at residual {norm:.3e} on the {grid}",
                norm, tuple(history))
        s, res, e, norm = sn, rn, en, nn
        history.append((nn, lam, float(np.abs(step).max())))
    if norm >= tol:
        raise ConvergenceError(
            f"no convergence after {cfg.max_iterations} iterations on the "
            f"{grid} (residual {norm:.3e})", norm, tuple(history))
    return t, s[0::2], s[1::2], norm, history


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
