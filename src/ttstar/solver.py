"""Radial two-point boundary-value solver for the reduced PDE system.

For radial functions u(|z|), v(|z|) and t = log|z| the system

    u_{z zbar} = e^{au} - e^{v-u},   v_{z zbar} = e^{v-u} - e^{-bv}

becomes (using u_{z zbar} = (u_tt) / (4 e^{2t}) for radial u)

    u_tt = 4 e^{2t} (e^{au} - e^{v-u}),
    v_tt = 4 e^{2t} (e^{v-u} - e^{-bv}).

The solver discretizes with Numerov's fourth-order stencil on a uniform grid,

    y_{i-1} - 2 y_i + y_{i+1} - (h^2/12)(F_{i-1} + 10 F_i + F_{i+1}) = 0,

for y = (u, v) and y'' = F(t, y).  At t_min it imposes the log-slope
(gamma, delta) by the compact row

    y_1 - y_0 - h (gamma, delta) - h^2 (5 F_0 + F_1)/12 - h^3 y_0^(3)/12 = 0,

exact to O(h^5), where y^(3) = dF/dt + (dF/dy) y' is known at node 0 from the
slope itself; at t_max it imposes homogeneous Dirichlet data.  It relaxes
from the piecewise-linear asymptotic shape gamma*min(t - KINK, 0),
delta*min(t - KINK, 0) with a Newton iteration damped by a line search that
halves lambda from 1 until the residual drops.  A solution behaves like
gamma*t + rho near t = -infinity, and at the integral points of 4a, 5a, 5c
and 6a that line crosses zero at t = -1.5 in the median; with the kink at
-2 the default 256-point grid takes 3.8 Newton steps on average there, and
every point of a random sweep of those regions converges from it in at most
5 steps on grids of 256, 2048 and 4096 points.  The nonlinear terms are
always evaluated with combined exponents exp(2t + a*u) etc., which stay
bounded on the region of asymptotic data.  Each iterate's three
exponentials are evaluated once: the residual that accepts the iterate is
built from them, and so is the next step's Jacobian.  Every accepted step
is recorded as (residual, lambda, max |step|) in the solution's
``history``.

With the unknowns interleaved as (u_0, v_0, u_1, v_1, ...), the Jacobian is
banded with lower and upper bandwidth 3: a row of node i reaches both
functions at nodes i - 1, i and i + 1, and the slope rows reach nodes 0 and
1.  Every entry of a column depends on the iterate at that column's node
only.  Each solve owns one Fortran-ordered (10, 2m) LAPACK band buffer
(three rows for the fill-in of the LU); ``dgbsv`` overwrites it with the LU
factors, so every Newton step refills it in place.  It is factored and
solved with LAPACK's ``dgbsv``, called directly.

``dgbsv`` is the f2py wrapper of scipy's LAPACK extension module
``scipy.linalg._flapack``, the same object ``scipy.linalg.lapack.dgbsv``
is.  The solver loads that extension from its file in scipy's package
directory rather than importing ``scipy.linalg``: the package import walks
numpy's lazy submodules (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``,
``numpy.random``) and takes about 0.3 s on a 2-core x86-64 machine, which
a cold ``ttstar solve`` would otherwise pay for this one routine.  Python
records the loaded extension in ``sys.modules`` under its real name, so a
later import of ``scipy.linalg`` reuses it.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass, field
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from pathlib import Path
from typing import NamedTuple

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
# the initial iterate is the asymptotic shape bent at t = KINK, near where the
# converged asymptote crosses zero
KINK = -2.0
# the largest grid a config accepts (its Newton band alone takes 42 MB); a
# far larger one would end in a numpy allocation error
MAX_GRID_POINTS = 2 ** 18


@dataclass(frozen=True)
class SolverConfig:
    t_min: float = -12.0
    t_max: float = 4.0
    grid_points: int = 256
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


class _Problem(NamedTuple):
    """The constants of one discretized problem on m nodes, with c = h^2/3."""
    ab: tuple[int, int]
    # (u, v) @ exponents = (au, v - u, -bv), the source terms' exponents less 2t
    exponents: np.ndarray
    t2: np.ndarray  # (m, 3): 2t at every node, once per source term
    # (e1, e2, e3) @ source = c (e1 - e2, e2 - e3) = h^2 F/12, where F is the
    # right-hand side 4 (e1 - e2, e2 - e3) and e1 = e^{2t + au}, e2 =
    # e^{2t + v - u}, e3 = e^{2t - bv}; (e1, e2, e3) @ diagonal = c (a e1 + e2,
    # e2 + b e3), the diagonal of d(h^2 F/12)/d(u, v); the off-diagonal is -c e2
    source: np.ndarray
    diagonal: np.ndarray
    c: float
    slope: tuple[float, float]  # h (gamma, delta)
    # h c kappa: the rates kappa = (2 + a gamma, 2 + delta - gamma,
    # 2 - b delta) at which e1, e2, e3 decay along the asymptote
    rates: tuple[float, float, float]


def _problem(case_id: str, a: AsymptoticData, t: np.ndarray) -> _Problem:
    ea, eb = descriptor(case_id).ab
    h = float(t[1] - t[0])
    g, d, c = float(a.gamma), float(a.delta), h * h / 3.0
    return _Problem(
        (ea, eb), np.array([[ea, -1.0, 0.0], [0.0, 1.0, -eb]]),
        np.repeat(2.0 * t[:, None], 3, axis=1),
        c * np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]),
        c * np.array([[ea, 0.0], [1.0, 1.0], [0.0, eb]]), c, (h * g, h * d),
        (h * c * (2.0 + ea * g), h * c * (2.0 + d - g), h * c * (2.0 - eb * d)))


def _residual(problem: _Problem, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The residual at the interleaved state s = (u_0, v_0, u_1, v_1, ...),
    and the (m, 3) exponentials (e1, e2, e3) at every node it was built from."""
    e = s.reshape(-1, 2) @ problem.exponents
    e += problem.t2
    np.exp(e, out=e)
    z = (e @ problem.source).ravel()  # h^2 F/12, interleaved
    out = np.empty(len(s))
    # Numerov: w_{i-1} - 2 w_i + w_{i+1} - 12 z_i with w = y - z
    w = s - z
    out[2:-2] = w[:-4] + w[4:] - 2.0 * (s[2:-2] + 5.0 * z[2:-2])
    # the slope rows y_1 - y_0 - h (gamma, delta) - h^2 (5 F_0 + F_1)/12 -
    # h^3 y_0^(3)/12, where y^(3) = dF/dt + (dF/dy) y' at t_min is
    # 4 (k1 e1 - k2 e2, k2 e2 - k3 e3) with y' = (gamma, delta)
    u0, v0, u1, v1 = s[:4].tolist()
    zu0, zv0, zu1, zv1 = z[:4].tolist()
    e1, e2, e3 = e[0].tolist()
    (slope_u, slope_v), (k1, k2, k3) = problem.slope, problem.rates
    out[0] = u1 - u0 - slope_u - 5.0 * zu0 - zu1 - (k1 * e1 - k2 * e2)
    out[1] = v1 - v0 - slope_v - 5.0 * zv0 - zv1 - (k2 * e2 - k3 * e3)
    out[-2:] = s[-2:]
    return out, e


def residual_vector(case_id: str, a: AsymptoticData, t: np.ndarray,
                    u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h^2-scaled residual of the discretized boundary-value problem.

    Layout: interleaved (F_u[i], F_v[i]) per node; boundary rows encode the
    compact slope condition at t_min and the Dirichlet condition at t_max.
    """
    return _residual(_problem(case_id, a, t), np.column_stack((u, v)).ravel())[0]


def _jacobian(problem: _Problem, e: np.ndarray, out=None) -> np.ndarray:
    """Analytic Jacobian of ``_residual``, written into a LAPACK band buffer.

    ``e`` is the exponentials ``_residual`` returns with the residual.
    ``out`` is a Fortran-ordered (10, 2m) buffer (a new one when None), the
    layout ``dgbsv`` takes for lower and upper bandwidth 3: rows 0-2 hold the
    LU fill-in, and entry (r, c) of the interleaved 2m x 2m Jacobian sits at
    ``out[6 + r - c, c]``.  The buffer is rewritten in full.  Rows 3-9 are
    returned as a (7, 2m) view, whose entry (r, c) is at ``[3 + r - c, c]``.
    """
    if out is None:
        out = np.empty((10, 2 * len(e)), order="F")
    # the derivatives of h^2 F/12 at every node: the diagonal p, interleaved,
    # and the off-diagonal -q; all entries of a column come from its own node
    p = (e @ problem.diagonal).ravel()
    q = problem.c * e[:, 1]
    out.fill(0.0)
    # interior rows of nodes i - 1, i, i + 1 reach node i with weights 1, 10, 1
    out[8, :-4] = 1.0 - p[:-4]
    out[6, 2:-2] = -2.0 - 10.0 * p[2:-2]
    out[4, 4:] = 1.0 - p[4:]
    out[9, 0:-4:2] = out[7, 1:-4:2] = q[:-2]
    out[7, 2:-2:2] = out[5, 3:-2:2] = 10.0 * q[1:-1]
    out[5, 4::2] = out[3, 5::2] = q[2:]
    # the slope rows 0, 1 reach node 1 with weight 1, and node 0 with weight
    # 5 and through its third derivative
    pu0, pv0, pu1, pv1 = p[:4].tolist()
    e1, e2, e3 = e[0].tolist()
    (ea, eb), (k1, k2, k3) = problem.ab, problem.rates
    q0, q1 = 5.0 * q[0] + k2 * e2, q[1]
    out[6:8, 0] = -1.0 - 5.0 * pu0 - k1 * ea * e1 - k2 * e2, q0
    out[5:7, 1] = q0, -1.0 - 5.0 * pv0 - k2 * e2 - k3 * eb * e3
    out[4:6, 2] = 1.0 - pu1, q1
    out[3:5, 3] = q1, 1.0 - pv1
    # the Dirichlet rows at t_max
    out[6, -2:] = 1.0
    return out[3:]


def _fit_slope(t: np.ndarray, w: np.ndarray):
    """Least-squares (slope, intercept) of w, or of each column of w, over the
    left 10% of the uniform grid t, in closed form: the n nodes are t_0 + ih,
    with mean t_0 + (n - 1)h/2 and sum of squared deviations h^2 n(n^2 - 1)/12."""
    n = max(len(t) // 10, 4)
    h = float(t[1] - t[0])
    y = w[:n]
    slope = (np.arange(n) - 0.5 * (n - 1)) @ y * (12.0 / (h * n * (n * n - 1)))
    return slope, y.sum(axis=0) / n - slope * (float(t[0]) + 0.5 * (n - 1) * h)


def solve_radial(case_id: str, a: AsymptoticData,
                 cfg: SolverConfig = SolverConfig()) -> RadialSolution:
    """Damped-Newton solution of the radial boundary-value problem."""
    if not in_region(case_id, a):
        raise ValueError(f"asymptotic data {tuple(a)} outside the region of "
                         f"case {case_id}")
    m = cfg.grid_points
    t = np.linspace(cfg.t_min, cfg.t_max, m)
    # the interleaved state (u_0, v_0, u_1, v_1, ...), first the asymptotic
    # shape bent at t = KINK
    s = np.outer(np.minimum(t - KINK, 0.0), (float(a.gamma), float(a.delta))).ravel()
    problem = _problem(case_id, a, t)
    band = np.empty((10, 2 * m), order="F")
    res, e = _residual(problem, s)
    norm = float(np.abs(res).max())
    history = []
    for _ in range(cfg.max_iterations):
        if norm < cfg.newton_tol:
            break
        _jacobian(problem, e, band)
        _, _, step, info = dgbsv(3, 3, band, -res, overwrite_ab=1, overwrite_b=1)
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
                f"line search stalled at residual {norm:.3e} on the {m}-point grid",
                norm, tuple(history))
        s, res, e, norm = sn, rn, en, nn
        history.append((nn, lam, float(np.abs(step).max())))
    if norm >= cfg.newton_tol:
        raise ConvergenceError(
            f"no convergence after {cfg.max_iterations} iterations on the "
            f"{m}-point grid (residual {norm:.3e})", norm, tuple(history))
    (fg, fd), (cu, cv) = (x.tolist() for x in _fit_slope(t, s.reshape(-1, 2)))
    return RadialSolution(case_id, a, t, s[0::2], s[1::2], norm, fg, fd,
                          len(history), cu, cv, tuple(history))


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
