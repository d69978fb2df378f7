"""Value semantics of the thirteen record types: equality and hash, read-only
fields, the validation and normalisation their constructors do, and the
repr of a radial solution."""

import math
import re
from fractions import Fraction as F

import pytest

from ttstar.cases import (CASE_IDS, AsymptoticData, CaseDescriptor, KVector,
                          SymmetryError, descriptor, make_k)
from ttstar.enumeration import CosPair, SolutionRecord, integral_solutions
from ttstar.solver import (MAX_GRID_POINTS, AsymptoticsReport, RadialSolution,
                           SolverConfig, solve_radial)
from ttstar.stokes import CaseFormula, case_formula, stokes_from_k
from ttstar.theta import CISpec, CorollaryReport, ThetaPoly


def _descriptor_copy():
    d = descriptor("4a")
    return CaseDescriptor(d.id, d.n_plus_1, d.ab, d.symmetry, d.group,
                          d.classes, d.class_of, d.corners, d.center_sum)


def _formula_copy():
    c = case_formula("5a")
    return CaseFormula(c.slots, c.t, c.c2)


def _record_copy():
    r = integral_solutions("5a")[7]
    return SolutionRecord(r.case, r.a_label, r.b_label, r.asymptotic,
                          r.stokes_int, r.k, r.tk, r.block)


# (a factory that builds a new, equal record on every call, one of its
# fields, and a record that differs from it in that field)
RECORDS = {
    "AsymptoticData": (lambda: AsymptoticData(F(3), F(1)), "delta",
                       AsymptoticData(F(3), F(-1))),
    "CaseDescriptor": (_descriptor_copy, "group", descriptor("4b")),
    "KVector": (lambda: make_k("4a", [0, F(-1, 2), 1, F(-1, 2)]), "entries",
                make_k("4a", [1, F(-1, 2), 0, F(-1, 2)])),
    "CaseFormula": (_formula_copy, "c2", case_formula("5c")),
    "StokesData": (lambda: stokes_from_k(make_k("5a", [F(-1, 3)] * 5)), "s2",
                   stokes_from_k(make_k("5a", [0, F(-1, 2), 0, 0, F(-1, 2)]))),
    "CosPair": (lambda: CosPair(F(1, 3), F(1, 2), 1, 0), "p",
                CosPair(F(1, 3), F(1, 2), 1, 1)),
    "SolutionRecord": (_record_copy, "block", integral_solutions("5a")[8]),
    "ThetaPoly": (lambda: ThetaPoly((0, 1, 3), 4), "q", ThetaPoly((0, 1, 3), 5)),
    "CISpec": (lambda: CISpec((1, 2, 3), (2,)), "degrees", CISpec((1, 2, 3))),
    "SolverConfig": (lambda: SolverConfig(grid_points=512), "grid_points",
                     SolverConfig()),
    "AsymptoticsReport": (lambda: AsymptoticsReport(True, False, 0.01, 0.2, True),
                          "delta_ok", AsymptoticsReport(True, True, 0.01, 0.2, True)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_alike(name):
    make, _, other = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and b != other and len({a, other}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    make, field, other = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    assert record == make()


def test_case_descriptor_derived_values():
    """Every case's derived fields, each found here from the symmetry
    pairs and (a, b): the classes are the pairs, then each unpaired
    position; class_of indexes each position's class; the corners are
    (-2/a, 2/b) and center_sum their sum."""
    for case_id in CASE_IDS:
        d = descriptor(case_id)
        paired = {i for pair in d.symmetry for i in pair}
        classes = d.symmetry + tuple((i,) for i in range(d.n_plus_1)
                                     if i not in paired)
        assert d.classes == classes, case_id
        assert d.class_of == tuple(next(c for c, cls in enumerate(classes) if i in cls)
                                   for i in range(d.n_plus_1)), case_id
        a, b = d.ab
        assert d.corners == (F(-2, a), F(2, b)), case_id
        assert d.center_sum == F(-2, a) + F(2, b), case_id
    d = descriptor("4a")
    assert (d.classes, d.class_of) == (((1, 3), (0,), (2,)), (1, 0, 2, 0))
    assert (d.corners, d.center_sum) == ((F(-1), F(1)), 0)
    assert _descriptor_copy() == d and hash(_descriptor_copy()) == hash(d)


def test_kvector_validation():
    with pytest.raises(ValueError, match=r"^case 4a needs 4 entries, got 3$") as info:
        KVector("4a", (F(0),) * 3)
    assert not isinstance(info.value, SymmetryError)
    with pytest.raises(SymmetryError, match=r"^case 4a requires k_1 = k_3$"):
        KVector("4a", (F(0), F(1), F(0), F(0)))
    with pytest.raises(SymmetryError, match=r"^case 6a requires k_0 = k_5$"):
        make_k("6a", [0, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match=r"^unknown case '7z'$"):
        KVector("7z", ())
    k = make_k("4a", [0, F(-1, 2), 1, F(-1, 2)])
    assert (k.case, k.entries) == ("4a", (0, F(-1, 2), 1, F(-1, 2)))
    assert k.N == 4 and k.admissible
    assert make_k("4a", [-2, 0, 0, 0]).admissible is False


@pytest.mark.parametrize("weights, degrees, message", [
    ((), (), "weights must be a nonempty list of positive integers"),
    ((1, 0), (), "weights must be a nonempty list of positive integers"),
    ((1, 2), (0,), "degrees must be positive integers"),
    ((1, 2), (3,), "sum of weights must exceed sum of degrees"),
    ((1, 1), (1, 1), "sum of weights must exceed sum of degrees"),
])
def test_cispec_validation(weights, degrees, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CISpec(weights, degrees)


def test_cispec_sorted_with_default_degrees():
    spec = CISpec((3, 1, 2), (2,))
    assert spec == CISpec((1, 2, 3), (2,)) == CISpec(weights=(2, 3, 1), degrees=(2,))
    assert (spec.weights, spec.degrees, str(spec)) == ((1, 2, 3), (2,), "X^{1,2,3}_{2}")
    plain = CISpec((2, 1))
    assert (plain.weights, plain.degrees, str(plain)) == ((1, 2), (), "P^{1,2}")


@pytest.mark.parametrize("options, message", [
    ({"t_min": math.inf}, "t_min and t_max must be finite"),
    ({"t_max": math.nan}, "t_min and t_max must be finite"),
    ({"t_min": 4.0}, "t_min must be below t_max"),
    ({"t_min": 1.0, "t_max": -1.0}, "t_min must be below t_max"),
    ({"grid_points": 63}, f"grid_points must be between 64 and {MAX_GRID_POINTS}"),
    ({"grid_points": MAX_GRID_POINTS + 1},
     f"grid_points must be between 64 and {MAX_GRID_POINTS}"),
    ({"t_max": 8.5}, "t_max must be at most 8"),
    ({"t_min": -1e300, "t_max": 400.0}, "t_max must be at most 8"),
])
def test_solver_config_validation(options, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverConfig(**options)


def test_solver_config_defaults_and_positional_order():
    cfg = SolverConfig()
    assert cfg._fields == ("t_min", "t_max", "grid_points")
    assert tuple(cfg) == (-12.0, 4.0, 256)
    assert SolverConfig(-8.0, 2.0, 128) == SolverConfig(
        t_min=-8.0, t_max=2.0, grid_points=128)


def test_theta_poly_gcd_normalisation():
    t = ThetaPoly((4, 0, 2), 12)
    assert (t.numerators, t.q) == ((0, 1, 2), 6)
    assert t == ThetaPoly([2, 1, 0], 6) and hash(t) == hash(ThetaPoly((0, 1, 2), 6))
    assert t.roots == (0, F(1, 6), F(1, 3)) and t.degree == 3
    assert str(t) == "θ(θ-1/6)(θ-1/3)"
    zeros = ThetaPoly((0, 0), 5)
    assert (zeros.numerators, zeros.q, str(zeros)) == ((0, 0), 1, "θ^2")
    empty = ThetaPoly((), 3)
    assert (empty.numerators, empty.q, empty.degree, str(empty)) == ((), 1, 0, "1")


def test_stokes_data_and_report_methods():
    s = stokes_from_k(make_k("5a", [F(-1, 3)] * 5))
    assert s.integral() == (0, 0) and not s.s1_sign_ambiguous
    irrational = stokes_from_k(make_k("5a", [0, F(-3, 4), F(-1, 2), F(-1, 2), F(-3, 4)]))
    assert irrational.integral() is None
    assert AsymptoticsReport(True, True, 0.0, 0.0, True).ok
    assert not AsymptoticsReport(True, True, 0.0, 0.0, False).ok


def test_corollary_report_equality():
    a, b = (CorollaryReport("4a", 12, 0, [], 0, [], []) for _ in range(2))
    assert a == b and a.ok and a.forward_checked == a.converse_checked == 0
    assert a.forward_mismatches is not b.forward_mismatches
    a.forward_mismatches.append("x")
    assert a != b and not a.ok
    b.forward_mismatches.append("x")
    assert a == b
    with pytest.raises(AttributeError):
        b.converse_checked = 3
    assert a == b and b.converse_checked == 0
    full = CorollaryReport("6a", 24, 9, ["m"], 5, ["v"], ["f"])
    assert full == CorollaryReport(
        case="6a", bound=24, forward_checked=9, forward_mismatches=["m"],
        converse_checked=5, converse_violations=["v"], flagged_non_ci=["f"])
    assert full != CorollaryReport("6a", 24, 9, ["m"], 5, ["v"], []) and not full.ok
    assert a != ("4a", 12)
    with pytest.raises(TypeError):
        hash(a)


def test_radial_solution_repr_leaves_out_arrays():
    sol = solve_radial("4a", AsymptoticData(F(0), F(0)))
    text = repr(sol)
    assert text.startswith("RadialSolution(case='4a', asymptotic=AsymptoticData("
                           "gamma=Fraction(0, 1), delta=Fraction(0, 1)), residual_norm=")
    assert re.findall(r"(?:\(|, )(\w+)=", text) == [
        "case", "asymptotic", "gamma", "delta", "residual_norm", "fitted_gamma",
        "fitted_delta", "iterations", "offset_u", "offset_v"]
    assert "array" not in text and "\n" not in text
    copy = RadialSolution(sol.case, sol.asymptotic, sol.grid, sol.u, sol.v,
                          sol.residual_norm, sol.fitted_gamma, sol.fitted_delta,
                          sol.iterations, sol.offset_u, sol.offset_v, sol.history)
    assert copy == sol and repr(copy) == text
    with pytest.raises(TypeError):  # the arrays are unhashable
        hash(sol)
    with pytest.raises(AttributeError):
        sol.iterations = 0
