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
halves lambda from 1 until the residual's max-norm drops, and stops below
``newton_tolerance``, which the grid and (gamma, delta) fix.  A solution
behaves like gamma*t + rho near t = -infinity, and at the integral points of
4a, 5a, 5c and 6a that line crosses zero at t = -1.5 in the median; with the
kink at -2 the default 256-point grid takes 3.8 Newton steps on average
there, and every point of a random sweep of those regions converges from it
in at most 5 steps on grids of 256, 2048 and 4096 points.  The nonlinear
terms are always evaluated with combined exponents exp(2t + a*u) etc., which
stay bounded on the region of asymptotic data.  Each iterate's three
exponentials are evaluated once: the residual that accepts the iterate is
built from them, and so is the next step's Jacobian.  Every accepted step
is recorded as (residual, lambda, max |step|) in the solution's
``history``.

With the unknowns interleaved as (u_0, v_0, u_1, v_1, ...), the Jacobian is
banded with lower and upper bandwidth 3: a row of node i reaches both
functions at nodes i - 1, i and i + 1, and the slope rows reach nodes 0 and
1.  Every entry of a column depends on the iterate at that column's node
only, and linearly on its exponentials (e1, e2, e3) = (e^{2t + au},
e^{2t + v - u}, e^{2t - bv}).  Each solve owns one Fortran-ordered (10, 2m)
LAPACK band buffer (three rows for the fill-in of the LU); ``dgbsv``
overwrites it with the LU factors, so every Newton step refills it in
place.  A node's two columns are 20 contiguous doubles of that buffer, so
the buffer viewed as (m, 20) is filled by one matrix product of the (m, 4)
array (e1, e2, e3, 1) with a 4 x 20 table of each entry's coefficients,
whose last row is the entry's constant.  The fill-in rows' coefficients are
zero.  Only node 0's four slope-row entries and the constants where the
matrix ends (the Dirichlet rows, the slots outside it) are written
afterwards.  It is factored and solved with LAPACK's ``dgbsv``, called
directly.

Everything a solve needs that its (gamma, delta) leave alone is built on
first use for each exponent pair (a, b) and grid (t_min, t_max,
grid_points), not at import.  That is the grid t, 2t per source term, the
exponent and source matrices, the band table and the slope-fit weights.
An ``lru_cache`` keeps the last 8 of them, so the cache holds at most 8
grids of about 40 bytes a node: 10 KB for the default 256 points and
10.5 MB for MAX_GRID_POINTS.  A solve then only turns (gamma, delta) into
its slope and decay rates.  The cached t is read-only, and it is the
solution's ``grid``.

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
from collections import namedtuple
from functools import lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from pathlib import Path

import numpy as np

from .cases import AsymptoticData, check_region, descriptor


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


# the initial iterate is the asymptotic shape bent at t = KINK, near where the
# converged asymptote crosses zero
KINK = -2.0
# the largest grid a config accepts (its Newton band alone takes 42 MB); a
# far larger one would end in a numpy allocation error
MAX_GRID_POINTS = 2 ** 18
# the largest t_max a config accepts: from t_max 9.25 to 9.75, depending on
# the grid, the residual's rounding floor, which grows like h^2 e^{2 t_max},
# is out of reach at every integral point, while the far field K_0(4e^t) is
# zero to double precision from t = 3 on
MAX_T_MAX = 8.0
# the Newton steps a solve may take; no measured solve took more than 12
MAX_NEWTON_STEPS = 60
# the largest error of a fitted slope that ``verify_asymptotics`` accepts by
# default
SLOPE_TOL = 0.05


class SolverConfig(namedtuple("SolverConfig", "t_min t_max grid_points")):
    """The window [t_min, t_max] and its number of grid points."""

    __slots__ = ()

    def __new__(cls, t_min: float = -12.0, t_max: float = 4.0,
                grid_points: int = 256):
        if not (math.isfinite(t_min) and math.isfinite(t_max)):
            raise ValueError("t_min and t_max must be finite")
        if not t_min < t_max:
            raise ValueError("t_min must be below t_max")
        if t_max > MAX_T_MAX:
            raise ValueError(f"t_max must be at most {MAX_T_MAX:g}")
        if not 64 <= grid_points <= MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points must be between 64 and {MAX_GRID_POINTS}")
        return super().__new__(cls, t_min, t_max, grid_points)


# the spacing of the default grid, where a solve stops at the residual 1e-10
_DEFAULT = SolverConfig()
H0 = (_DEFAULT.t_max - _DEFAULT.t_min) / (_DEFAULT.grid_points - 1)


def newton_tolerance(t: np.ndarray, a: AsymptoticData) -> float:
    """The residual max-norm at which a solve on the uniform grid t stops.

    The residual is h^2-scaled, so 1e-10 (h/H0)^2 asks every grid for the
    accuracy 1e-10 gives on the default one: about 4e-7 from the grid's
    discrete solution.  On fine grids that falls below the residual's
    rounding floor, 32 eps times the size of the asymptote at t_min, so
    the tolerance is the larger of the two (at 16 eps, 5a (-1, 1/3) and
    (-1, -1/2) stalled at 1.5e-12 with t_min -400 on 65,536 points).
    """
    t_min = float(t[0])
    h = (float(t[-1]) - t_min) / (len(t) - 1)
    return max(1e-10 * (h / H0) * (h / H0),
               32.0 * math.ulp(1.0) * max(1.0, abs(float(a.gamma) * t_min),
                                          abs(float(a.delta) * t_min)))


class RadialSolution(namedtuple("RadialSolution", "case asymptotic grid u v "
                                "residual_norm fitted_gamma fitted_delta "
                                "iterations offset_u offset_v history")):
    """A converged profile: u and v on the grid, the Newton residual, the
    least-squares slopes and offsets over the first ``FIT_SPAN`` of t (the
    additive constants of u - gamma*t and v - delta*t near t_min, which
    (gamma, delta) fix as they fix the slopes: in closed form on the line
    delta = -gamma of 4a and 4b, by the Painleve III connection formula;
    only the slopes are checked), the Newton steps taken, and the history
    (residual after the step, line-search factor lambda, max |Newton step|)
    of each accepted step.  Its repr leaves out the arrays and the history.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "RadialSolution(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self)
            if name not in ("grid", "u", "v", "history")) + ")"


# The constants of one exponent pair (a, b) on one uniform grid t: all that
# a solve needs and its (gamma, delta) leave alone.
#   t: read-only
#   exponents, t2: exp((u, v) @ exponents + t2) = (e1, e2, e3, 1) at every
#     node, where e1 = e^{2t + au}, e2 = e^{2t + v - u}, e3 = e^{2t - bv}
#   source: (e1, e2, e3, 1) @ source = c (e1 - e2, e2 - e3) = h^2 F/12 with
#     c = h^2/3, where F is the right-hand side 4 (e1 - e2, e2 - e3)
#   band: (e1, e2, e3, 1) @ band is a node's 20 band entries (its two
#     columns), but for node 0's slope rows and the end nodes' missing
#     neighbours
#   fit: fit @ w[:n] is the least-squares (slope, intercept) of w over the
#     first n = max(int(FIT_SPAN/h), 4) nodes
_Grid = namedtuple("_Grid", "ab t exponents t2 source band fit")

# the slopes are fitted over the first FIT_SPAN of t, whatever the window:
# the n nodes whose cells [t_i, t_i + h] lie within it, (m - 1) // 10 of m
# nodes on the default window (-12 to 4), so m // 10 unless 10 divides m
FIT_SPAN = 1.6


@lru_cache(maxsize=8)
def _grid(ab: tuple[int, int], t_min: float, t_max: float, m: int) -> _Grid:
    """The constants on m nodes from t_min to t_max."""
    # a grid of huge or non-finite extent gives inf and nan constants, which
    # the line search then rejects; numpy's warnings about them are noise
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linspace(t_min, t_max, m)
        h = float(t[1] - t[0])
        # the guard keeps a span of exactly n cells from rounding down
        n = min(max(int(FIT_SPAN / h + 1e-9), 4), m)
        exponents = np.array([[ab[0], -1.0, 0.0, 0.0], [0.0, 1.0, -ab[1], 0.0]])
        source = h * h / 3.0 * np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
        # the Numerov rows (r = 0 for u, 1 for v) of the nodes i - 1, i,
        # i + 1 reach the unknown k of node i with weights 1, 10, 1 through
        # d(h^2 F_r/12)/dy_k = (e1, e2, e3) @ (source[:, r] * exponents[k]),
        # at band row 6 + r - k + 2 offset of column 2i + k
        band = np.zeros((4, 20))
        for offset, weight, second in ((-1, 1.0, 1.0), (0, 10.0, -2.0), (1, 1.0, 1.0)):
            for r, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
                band[:, 10 * k + 6 - k + 2 * offset + r] = (
                    -weight * source[:, r] * exponents[k] + (0, 0, 0, second * (r == k)))
        # the slope of n nodes t_0 + ih has weights (i - (n - 1)/2) h / S with
        # S = h^2 n(n^2 - 1)/12; the intercept is their mean less slope * mean t
        slope = (np.arange(n) - 0.5 * (n - 1)) * (12.0 / (h * n * (n * n - 1)))
        t.flags.writeable = False
        return _Grid(ab, t, exponents, np.outer(2.0 * t, (1.0, 1.0, 1.0, 0.0)), source,
                     band, np.array([slope, 1.0 / n - slope * (t_min + 0.5 * (n - 1) * h)]))


def _problem(grid: _Grid, a: AsymptoticData):
    """The grid, h (gamma, delta) and h c kappa, where kappa = (2 + a gamma,
    2 + delta - gamma, 2 - b delta) are the rates at which e1, e2, e3 decay
    along the asymptote."""
    (ea, eb), h = grid.ab, float(grid.t[1] - grid.t[0])
    g, d, c = float(a.gamma), float(a.delta), h * h / 3.0
    return grid, (h * g, h * d), (h * c * (2.0 + ea * g), h * c * (2.0 + d - g),
                                  h * c * (2.0 - eb * d))


def _residual(problem, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The residual at the interleaved state s = (u_0, v_0, u_1, v_1, ...),
    and the (m, 4) exponentials (e1, e2, e3, 1) at every node it was built from."""
    grid, (slope_u, slope_v), (k1, k2, k3) = problem
    e = s.reshape(-1, 2) @ grid.exponents
    e += grid.t2
    np.exp(e, out=e)
    z = (e @ grid.source).ravel()  # h^2 F/12, interleaved
    # Numerov: w_{i-1} - 2 w_i + w_{i+1} - 12 z_i with w = y - z
    w = s - z
    out = np.empty(len(s))
    np.subtract(w[:-4] + w[4:], 2.0 * (s[2:-2] + 5.0 * z[2:-2]), out=out[2:-2])
    # the slope rows y_1 - y_0 - h (gamma, delta) - h^2 (5 F_0 + F_1)/12 -
    # h^3 y_0^(3)/12, where y^(3) = dF/dt + (dF/dy) y' at t_min is
    # 4 (k1 e1 - k2 e2, k2 e2 - k3 e3) with y' = (gamma, delta)
    (u0, v0, u1, v1), (zu0, zv0, zu1, zv1) = s[:4].tolist(), z[:4].tolist()
    e1, e2, e3, _ = e[0].tolist()
    out[0] = u1 - u0 - slope_u - 5.0 * zu0 - zu1 - (k1 * e1 - k2 * e2)
    out[1] = v1 - v0 - slope_v - 5.0 * zv0 - zv1 - (k2 * e2 - k3 * e3)
    out[-2:] = s[-2:]
    return out, e


def residual_vector(case_id: str, a: AsymptoticData, t: np.ndarray,
                    u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h^2-scaled residual of the discretized boundary-value problem on the
    uniform grid t of len(t) nodes from t[0] to t[-1].

    Layout: interleaved (F_u[i], F_v[i]) per node; boundary rows encode the
    compact slope condition at t_min and the Dirichlet condition at t_max.
    Rows that overflow are inf or nan, as in ``solve_radial``, without numpy
    warnings.
    """
    problem = _problem(_grid(descriptor(case_id).ab, t[0], t[-1], len(t)), a)
    with np.errstate(over="ignore", invalid="ignore"):
        return _residual(problem, np.column_stack((u, v)).ravel())[0]


def _jacobian(problem, e: np.ndarray, out=None) -> np.ndarray:
    """Analytic Jacobian of ``_residual``, written into a LAPACK band buffer.

    ``e`` is the exponentials ``_residual`` returns with the residual.
    ``out`` is a Fortran-ordered (10, 2m) buffer (a new one when None), the
    layout ``dgbsv`` takes for lower and upper bandwidth 3: rows 0-2 hold the
    LU fill-in, and entry (r, c) of the interleaved 2m x 2m Jacobian sits at
    ``out[6 + r - c, c]``.  The buffer is rewritten in full.  Rows 3-9 are
    returned as a (7, 2m) view, whose entry (r, c) is at ``[3 + r - c, c]``.
    """
    grid, _, (k1, k2, k3) = problem
    if out is None:
        out = np.empty((10, 2 * len(e)), order="F")
    # node i's columns 2i and 2i + 1 are 20 contiguous doubles of the
    # Fortran-ordered buffer, so this is a view of it
    nodes = out.T.reshape(-1, 20)
    np.matmul(e, grid.band, out=nodes)
    # node 0 reaches no row before its own, node m - 2 none of the Dirichlet
    # rows at t_max, which are node m - 1's, and node m - 1 no row after them
    nodes[0, 4:6] = nodes[0, 13:15] = nodes[-2, 8:10] = nodes[-2, 17:19] = 0.0
    nodes[-1, 6:10], nodes[-1, 15:19] = (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)
    # the slope rows reach node 1 as node 0's Numerov rows would, and node 0
    # with weight 5 and through its third derivative; c = h^2/3
    (e1, e2, e3, _), (ea, eb), c = e[0].tolist(), grid.ab, float(grid.source[0, 0])
    q0 = 5.0 * (c * e2) + k2 * e2
    nodes[0, 6:8] = -1.0 - 5.0 * (c * ea * e1 + c * e2) - k1 * ea * e1 - k2 * e2, q0
    nodes[0, 15:17] = q0, -1.0 - 5.0 * (c * e2 + c * eb * e3) - k2 * e2 - k3 * eb * e3
    return out[3:]


def _fit_slope(grid: _Grid, w: np.ndarray) -> np.ndarray:
    """Least-squares (slope, intercept) of w, or of each column of w, over the
    first ``FIT_SPAN`` of the grid."""
    return grid.fit @ w[:grid.fit.shape[1]]


def solve_radial(case_id: str, a: AsymptoticData,
                 cfg: SolverConfig = _DEFAULT) -> RadialSolution:
    """Damped-Newton solution of the radial boundary-value problem."""
    check_region(case_id, a)
    m = cfg.grid_points
    grid = _grid(descriptor(case_id).ab, cfg.t_min, cfg.t_max, m)
    problem, tol = _problem(grid, a), newton_tolerance(grid.t, a)
    band = np.empty((10, 2 * m), order="F")
    history = []
    # the line search rejects the nan and inf that a diverging iterate, or
    # the initial one of a window too wide for doubles, gives, so numpy's
    # warnings about them are noise
    with np.errstate(over="ignore", invalid="ignore"):
        # the interleaved state (u_0, v_0, u_1, v_1, ...), first the
        # asymptotic shape bent at t = KINK
        s = np.outer(np.minimum(grid.t - KINK, 0.0),
                     (float(a.gamma), float(a.delta))).ravel()
        res, e = _residual(problem, s)
        norm = float(np.abs(res).max())
        for _ in range(MAX_NEWTON_STEPS):
            if norm < tol:
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
    if norm >= tol:
        raise ConvergenceError(
            f"no convergence after {MAX_NEWTON_STEPS} iterations on the "
            f"{m}-point grid (residual {norm:.3e})", norm, tuple(history))
    (fg, fd), (cu, cv) = _fit_slope(grid, s.reshape(-1, 2)).tolist()
    return RadialSolution(case_id, a, grid.t, s[0::2], s[1::2], norm, fg, fd,
                          len(history), cu, cv, tuple(history))


class AsymptoticsReport(namedtuple("AsymptoticsReport", "gamma_ok delta_ok "
                                   "gamma_error delta_error residual_ok")):
    """The fitted slopes' errors, whether each is within tolerance, and
    whether the profile is solved (``verify_asymptotics``)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.gamma_ok and self.delta_ok and self.residual_ok


def verify_asymptotics(sol: RadialSolution,
                       tol_slope: float = SLOPE_TOL) -> AsymptoticsReport:
    """Fitted slopes within tol_slope, and a solved profile: a Newton
    residual below ``newton_tolerance`` on its grid, as ``solve_radial``
    returns, so a profile left unsolved does not pass on the exact slopes of
    the initial iterate.  It then decays too: the residual's last two rows
    are u and v at t_max, so |u| + |v| there is at most twice it.
    """
    ge = abs(sol.fitted_gamma - float(sol.asymptotic.gamma))
    de = abs(sol.fitted_delta - float(sol.asymptotic.delta))
    return AsymptoticsReport(ge < tol_slope, de < tol_slope, ge, de,
                             sol.residual_norm < newton_tolerance(sol.grid, sol.asymptotic))
