import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from opspace import corpus, criteria, gadgets, matcore, spaces, witness
from opspace.errors import InvalidInputError, ShapeError

from conftest import (adjoint_block, build_M_pm, circle_norms, closure_row_deviations, corner_unit, haar_unitary,
                      non_algebra_system, oracle_space_with_involution, proof_b, rand_cmat, random_element,
                      tridiagonal_3)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T.copy()
SQRT2 = math.sqrt(2)


@pytest.fixture(scope="module")
def m2_entry():
    return corpus.build_full_matrix(2)


# ---------------------------------------------------------------------------
# unitality


def test_four_rotation_m2_holds_with_spot_margin(criterion_cache):
    rep = criterion_cache("full_matrix_2", "unitary-four-rotation")
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    space = corpus.build_full_matrix(2).space
    x = spaces.LevelElement(1, np.array([[[0, 0.3, 0, 0]]], dtype=complex))
    v = criteria.four_rotation_violation_at(space, None, x)
    want = math.sqrt(1.3) - (0.3 + math.sqrt(4.09)) / 2
    assert v == pytest.approx(want, abs=1e-9)
    assert v < 0  # slack at this point, about -0.021


def test_four_rotation_linf_e1_violated(criterion_cache):
    rep = criterion_cache("linf3_e1", "unitary-four-rotation")
    assert rep.verdict == criteria.VIOLATED
    assert -rep.margin >= SQRT2 - 1 - 1e-3
    space = corpus.build_linf(3, "e1").space
    e2 = spaces.LevelElement(1, np.array([[[0, 1.0, 0]]], dtype=complex))
    assert criteria.four_rotation_violation_at(space, None, e2) == pytest.approx(
        SQRT2 - 1, abs=1e-12
    )


def test_four_rotation_trace_oracle_level1(criterion_cache):
    rep = criterion_cache("trace_class_2", "unitary-four-rotation")
    assert rep.verdict == criteria.VIOLATED
    assert rep.levels_checked == [1]
    assert criteria.LEVEL1_NOTE in rep.notes
    space = corpus.build_trace_class_2().space
    pinned = spaces.LevelElement(1, np.array([[[0, 0, 0.25, 0]]], dtype=complex))
    gap = criteria.four_rotation_violation_at(space, None, pinned)
    assert gap == pytest.approx(math.sqrt(1.25) - math.sqrt(1.0625), abs=1e-9)
    assert -rep.margin >= 0.08


def test_t_gadget_verdicts(criterion_cache):
    assert criterion_cache("full_matrix_2", "unitary-t-gadget").verdict == criteria.HOLDS_WITHIN_BUDGET
    assert criterion_cache("upper_triangular_2", "unitary-t-gadget").verdict == criteria.HOLDS_WITHIN_BUDGET
    assert criterion_cache("column_H2", "unitary-t-gadget").verdict == criteria.VIOLATED


def test_t_gadget_oracle_unsupported():
    space = corpus.build_trace_class_2().space
    rep = criteria.CRITERION_RUNNERS["unitary-t-gadget"](space)
    assert rep.verdict == criteria.UNSUPPORTED_LEVEL
    assert rep.levels_checked == []


def test_unit_preconditions(m2_entry):
    space = corpus.entry("non_algebra_span").space  # no distinguished element
    with pytest.raises(InvalidInputError):
        criteria.CRITERION_RUNNERS["unitary-four-rotation"](space)
    with pytest.raises(InvalidInputError):
        criteria.CRITERION_RUNNERS["unitary-four-rotation"](m2_entry.space, u=2 * m2_entry.space.unit)


#: The re-evaluator of each searched row, by the name callers look it up by.
REEVALUATORS = {
    "unitary-four-rotation": "four_rotation_violation_at",
    "unitary-t-gadget": "t_gadget_violation_at",
    "coisometry": "row_deviation_at",
    "isometry": "column_deviation_at",
    "operator-system": "r_gadget_deviation_at",
}


def test_runners_are_the_searched_rows_then_the_two_closure_checks():
    assert list(criteria.SEARCH_CRITERIA) == list(REEVALUATORS)
    assert list(criteria.CRITERION_RUNNERS) == [*REEVALUATORS, "mult-closed", "cstar-among-systems"]
    for name, row in criteria.SEARCH_CRITERIA.items():
        assert criteria.CRITERION_RUNNERS[name] == row.check
    assert criteria.CRITERION_RUNNERS["mult-closed"] is criteria.check_mult_closed
    assert criteria.CRITERION_RUNNERS["cstar-among-systems"] is criteria.check_cstar_among_systems


# ---------------------------------------------------------------------------
# the criterion table and run_check

MULTIPLIERS = ("multiplier-left", "multiplier-right", "multiplier-quasi")
#: The two criteria whose inputs (x and z, or a coefficient map T) only a caller can give.
CALLER_ONLY = ("adjoint", "left-multiplier-map")


def reference_multiplication_tensor(space):
    """The structure tensor as one membership residual per basis product, written out."""
    if space.p != space.q:
        raise ShapeError("multiplication closure needs a square ambient")
    k = space.dim
    norms = matcore.op_norm_stack(space.basis)
    t = np.zeros((k, k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            prod = space.basis[i] @ space.basis[j]
            if spaces.membership_residual(space, prod) / (norms[i] * norms[j]) > criteria.PRODUCT_TOL:
                raise InvalidInputError("space is not closed under multiplication")
            t[i, j] = spaces.coefficients_of(space, prod)
    return t


def reference_run_check(space, criterion, cfg, w_index=None):
    """The name-to-check chain that ``criteria.CRITERIA`` replaced, written out branch by branch."""
    if criterion in criteria.CRITERION_RUNNERS:
        return criteria.CRITERION_RUNNERS[criterion](space, cfg=cfg)
    if criterion == "algebra-product":
        return criteria.check_algebra_product(space, space.unit, reference_multiplication_tensor(space), cfg)
    if criterion == "positive":
        if space.unit is None:
            raise InvalidInputError("the positivity check tests the space's distinguished element; none is set")
        return criteria.check_positive(space, spaces.unit_element(space), cfg)
    if criterion in MULTIPLIERS:
        if w_index is None:
            raise InvalidInputError("multiplier checks need --w-index (basis element acting as w)")
        if not 0 <= w_index < space.dim:
            raise InvalidInputError(f"--w-index {w_index} out of range")
        return criteria.check_multiplier(space, space.basis[w_index], criterion.split("-", 1)[1], cfg)
    raise InvalidInputError(f"unknown criterion {criterion!r}")


def test_the_table_holds_all_fourteen_criteria():
    assert set(criteria.CRITERIA) == {*criteria.CRITERION_RUNNERS, "algebra-product", "positive", *MULTIPLIERS,
                                      *CALLER_ONLY}
    assert len(criteria.CRITERIA) == 14
    assert criteria.SPACE_CRITERIA == tuple(sorted(set(criteria.CRITERIA) - set(CALLER_ONLY)))
    assert [name for name, row in criteria.CRITERIA.items() if row.takes_w] == list(MULTIPLIERS)
    assert all(criteria.CRITERIA[name].check is None for name in CALLER_ONLY)


def test_multiplication_tensor_matches_the_written_out_loop(corpus_entries):
    built = 0
    for entry in corpus_entries.values():
        try:
            want = reference_multiplication_tensor(entry.space)
        except (InvalidInputError, ShapeError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                criteria.multiplication_tensor(entry.space)
            continue
        got = criteria.multiplication_tensor(entry.space)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), entry.name
        built += 1
    assert built >= 3


@pytest.mark.parametrize("name", criteria.SPACE_CRITERIA)
def test_run_check_matches_the_written_out_chain(corpus_entries, name):
    # same report, bit for bit, on every corpus entry the chain runs; the same refusal on every other one
    cfg = witness.SearchConfig(seed=7)
    w_index = 0 if name in MULTIPLIERS else None
    ran = 0
    for entry in corpus_entries.values():
        try:
            want = reference_run_check(entry.space, name, cfg, w_index)
        except (InvalidInputError, ShapeError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                criteria.run_check(entry.space, name, cfg, w_index)
            continue
        got = criteria.run_check(entry.space, name, cfg, w_index)
        assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True), entry.name
        ran += 1
    assert ran


def test_positive_defaults_to_the_distinguished_element(corpus_entries):
    cfg = witness.SearchConfig(seed=7)
    ran = 0
    for entry in corpus_entries.values():
        space = entry.space
        if space.unit is None:
            with pytest.raises(InvalidInputError, match="none is set"):
                criteria.check_positive(space)
            continue
        if space.p != space.q:
            continue
        want = criteria.check_positive(space, spaces.unit_element(space), cfg)
        assert json.dumps(criteria.check_positive(space, cfg=cfg).to_dict()) == json.dumps(want.to_dict())
        ran += 1
    assert ran >= 5


def test_algebra_product_defaults_to_the_unit_and_the_ambient_product(corpus_entries):
    cfg = witness.SearchConfig(seed=7)
    ran = 0
    for entry in corpus_entries.values():
        space = entry.space
        if space.unit is None or space.p != space.q or space.norm_mode != spaces.EMBEDDED:
            continue
        try:
            tensor = criteria.multiplication_tensor(space)
        except InvalidInputError:
            continue
        want = criteria.check_algebra_product(space, space.unit, tensor, cfg)
        assert json.dumps(criteria.check_algebra_product(space, cfg=cfg).to_dict()) == json.dumps(want.to_dict())
        ran += 1
    assert ran >= 3


@pytest.mark.parametrize("name", [n for n in criteria.SPACE_CRITERIA if n not in MULTIPLIERS])
def test_run_check_refuses_a_w_index_on_a_criterion_without_w(m2_entry, name):
    with pytest.raises(InvalidInputError, match=f"{name} takes no --w-index"):
        criteria.run_check(m2_entry.space, name, witness.SearchConfig(), w_index=0)


def test_corpus_keeps_the_tensor_name_the_benchmark_calls():
    assert corpus.multiplication_tensor is criteria.multiplication_tensor


def first_violated(corpus_entries, corpus_reports, crit):
    """(entry, report) of the first corpus entry whose ``crit`` report is VIOLATED."""
    return next((corpus_entries[name], reports[crit]) for name, reports in corpus_reports.items()
                if crit in reports and reports[crit].verdict == criteria.VIOLATED)


@pytest.mark.parametrize("crit", list(REEVALUATORS))
def test_each_row_check_reports_what_the_corpus_runs(corpus_entries, corpus_reports, crit):
    entry, rep = first_violated(corpus_entries, corpus_reports, crit)
    cfg = witness.SearchConfig()
    assert criteria.SEARCH_CRITERIA[crit].check(entry.space, cfg=cfg).to_dict() == rep.to_dict()


@pytest.mark.parametrize("crit", list(REEVALUATORS))
def test_each_reevaluator_reproduces_a_corpus_violation(corpus_entries, corpus_reports, crit):
    entry, rep = first_violated(corpus_entries, corpus_reports, crit)
    reevaluate = getattr(criteria, REEVALUATORS[crit])
    value = reevaluate(entry.space, entry.space.unit, rep.witness_element())
    assert value == pytest.approx(rep.witness["aux"]["violation"], abs=1e-9)
    assert value == criteria.SEARCH_CRITERIA[crit].value_at(entry.space, None, rep.witness_element())


def test_violated_witnesses_reproduce_margins(corpus_entries, corpus_reports):
    from conftest import evaluate_witness

    checked = 0
    for name, reports in corpus_reports.items():
        for crit, rep in reports.items():
            if rep.verdict != criteria.VIOLATED or crit == "mult-closed":
                continue
            value = evaluate_witness(corpus_entries[name], rep)
            assert value == pytest.approx(-rep.margin, abs=1e-9), (name, crit)
            checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# coisometry / isometry


def test_row_column_m2_exact(criterion_cache):
    assert criterion_cache("full_matrix_2", "coisometry").verdict == criteria.HOLDS_WITHIN_BUDGET
    assert criterion_cache("full_matrix_2", "isometry").verdict == criteria.HOLDS_WITHIN_BUDGET
    # C*-identity makes the row norm exactly sqrt(2) at any norm-one x
    space = corpus.build_full_matrix(2).space
    x = random_element(space, 2, matcore.stream(61, 0), target_norm=1.0)
    assert criteria.row_deviation_at(space, None, x) <= 1e-10


def test_column_space_row_column_split(criterion_cache):
    assert criterion_cache("column_H2", "isometry").verdict == criteria.HOLDS_WITHIN_BUDGET
    rep = criterion_cache("column_H2", "coisometry")
    assert rep.verdict == criteria.VIOLATED
    space = corpus.entry("column_H2").space
    e2 = spaces.LevelElement(1, np.array([[[0, 1.0]]], dtype=complex))
    assert criteria.row_deviation_at(space, None, e2) == pytest.approx(SQRT2 - 1, abs=1e-12)


def test_left_identity_is_coisometry(criterion_cache):
    assert criterion_cache("left_identity_pair", "coisometry").verdict == criteria.HOLDS_WITHIN_BUDGET
    assert criterion_cache("left_identity_pair", "isometry").verdict == criteria.VIOLATED


# ---------------------------------------------------------------------------
# operator systems


def test_operator_system_verdicts(criterion_cache):
    assert criterion_cache("full_matrix_2", "operator-system").verdict == criteria.HOLDS_WITHIN_BUDGET
    rep = criterion_cache("twisted_selfadjoint", "operator-system")
    assert rep.verdict == criteria.VIOLATED
    # at the witness x = E_22 the skew gadget's Gram matrix splits into 2x2
    # blocks whose top eigenvalue is (3+sqrt(5))/2, the square of the golden
    # ratio, so the deviation from sqrt(2) is exactly phi - sqrt(2)
    golden = (1 + math.sqrt(5)) / 2
    space = corpus.entry("twisted_selfadjoint").space
    e22 = spaces.LevelElement(1, np.array([[[0.0, 1.0]]], dtype=complex))
    assert criteria.r_gadget_deviation_at(space, None, e22) == pytest.approx(
        golden - SQRT2, abs=1e-12
    )
    assert -rep.margin >= golden - SQRT2 - 1e-6


def test_operator_system_scalars_hold():
    space = spaces.make_space(np.eye(2).reshape(1, 2, 2), unit=np.array([1.0]),
                              involution=np.eye(1))
    rep = criteria.CRITERION_RUNNERS["operator-system"](space, cfg=witness.SearchConfig(restarts=16))
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET


def test_operator_system_preconditions(m2_entry):
    no_inv = corpus.entry("column_H2").space
    with pytest.raises(InvalidInputError):
        criteria.CRITERION_RUNNERS["operator-system"](no_inv)
    # on a level-1 oracle space the missing involution is reported before UNSUPPORTED_LEVEL
    with pytest.raises(InvalidInputError, match="requires an involution"):
        criteria.CRITERION_RUNNERS["operator-system"](corpus.build_trace_class_2().space)
    space = m2_entry.space
    not_selfadjoint = np.array([0, 1.0, 0, 0])  # E_12
    with pytest.raises(InvalidInputError, match="selfadjoint"):
        criteria.CRITERION_RUNNERS["operator-system"](space, u=not_selfadjoint)


@pytest.mark.parametrize("name,reason", [
    ("unitary-t-gadget", "the doubling gadget needs 2x2 blocks over X"),
    ("coisometry", "row/column gadgets need rectangular blocks over X"),
    ("isometry", "row/column gadgets need rectangular blocks over X"),
    ("operator-system", "the skew gadget needs 2x2 blocks over X"),
])
def test_level1_oracle_refusal_states_its_reason(name, reason):
    rep = criteria.CRITERION_RUNNERS[name](oracle_space_with_involution())
    assert rep.verdict == criteria.UNSUPPORTED_LEVEL
    assert rep.notes == [reason]
    assert rep.levels_checked == []
    assert rep.samples == 0


@pytest.mark.parametrize("v,match", [
    (np.array([0, 1.0, 0, 0]), "selfadjoint"),  # E12
    (np.array([5.0, 0, 0, 0]), "contraction"),  # 5 E11, of norm 5
], ids=["E12", "5E11"])
def test_level1_oracle_space_refuses_an_invalid_unit_before_unsupported_level(v, match):
    with pytest.raises(InvalidInputError, match=match):
        criteria.CRITERION_RUNNERS["operator-system"](oracle_space_with_involution(), u=v)


@pytest.mark.parametrize("bad", [
    {"tolerance": math.nan, "restarts": -5, "threads": 0},
    {"tolerance": math.nan},
    {"restarts": -5},
    {"threads": 0},
], ids=["all", "tolerance", "restarts", "threads"])
@pytest.mark.parametrize("name", ["unitary-t-gadget", "coisometry", "isometry", "operator-system"])
def test_level1_oracle_refusal_never_accepts_an_invalid_config(name, bad):
    space = oracle_space_with_involution() if name == "operator-system" else corpus.build_trace_class_2().space
    with pytest.raises(InvalidInputError, match="SearchConfig"):
        criteria.CRITERION_RUNNERS[name](space, cfg=witness.SearchConfig(**bad))


# ---------------------------------------------------------------------------
# positivity and adjoints


def test_positive_examples(m2_entry):
    space = m2_entry.space
    rep = criteria.check_positive(space, np.diag([0.5, 0.25]))
    assert (rep.verdict, rep.margin, rep.samples) == (criteria.HOLDS_WITHIN_BUDGET, 0.0, 1)
    assert rep.witness["aux"] == {"gap": -0.5, "hermitian_residual": 0.0}
    rep = criteria.check_positive(space, np.zeros((2, 2)))
    assert (rep.verdict, rep.margin) == (criteria.HOLDS_WITHIN_BUDGET, 0.0)
    rep = criteria.check_positive(space, -0.5 * np.eye(2))
    assert rep.verdict == criteria.VIOLATED
    assert rep.witness["aux"] == {"z": [2.0, 0.0], "gap": 1.0, "hermitian_residual": 0.0}
    assert rep.margin == -1.0
    # the stored circle point reproduces the margin from scratch
    z = complex(*rep.witness["aux"]["z"])
    recomputed = matcore.op_norm(np.eye(2) - z * (-0.5 * np.eye(2))) - 1.0
    assert recomputed == pytest.approx(-rep.margin, abs=1e-12)


@pytest.mark.parametrize("x, gap, residual", [
    (np.array([[0.5, 1e-3], [0.0, 0.5]]), None, 5e-4),
    (0.5 * np.eye(2) + 1e-4 * (E12 - E21), None, 1e-4),
    (np.diag([0.5, -1e-2]), 2e-2, 0.0),
    (np.diag([0.5, -1e-3]), 2e-3, 0.0),
    (np.diag([0.5, -1e-5]), 2e-5, 0.0),
], ids=["upper-1e-3", "skew-1e-4", "minus-1e-2", "minus-1e-3", "minus-1e-5"])
def test_positive_finds_what_the_circle_misses(m2_entry, x, gap, residual):
    # the circle's gap is of second order in x - x*: below the tolerance on the first two, which are not
    # Hermitian; the Hermitian diag(.5, -delta) has gap 2 delta at z = 2
    rep = criteria.check_positive(m2_entry.space, x)
    aux, tolerance = rep.witness["aux"], rep.config["tolerance"]
    assert rep.verdict == criteria.VIOLATED
    assert aux["hermitian_residual"] == pytest.approx(residual, rel=1e-12, abs=0)
    if gap is None:
        assert circle_norms(x).max() - 1.0 <= tolerance and "z" not in aux
        assert rep.margin == -aux["hermitian_residual"]
    else:
        assert aux["gap"] == pytest.approx(gap, rel=1e-9) and aux["z"] == [2.0, 0.0]
        assert rep.margin == -aux["gap"]


def test_positive_requires_contraction(m2_entry):
    with pytest.raises(InvalidInputError):
        criteria.check_positive(m2_entry.space, 2.0 * np.eye(2))


def test_adjoint_examples():
    assert criteria.check_adjoint(E12, E21).verdict == criteria.HOLDS_WITHIN_BUDGET
    rep = criteria.check_adjoint(E12, -E21)
    assert rep.verdict == criteria.VIOLATED
    # D = x - z* = 2 E12: the supremum ||D|| / 2 of the gap |t| + 1 - sqrt(1 + t^2), approached as |t| grows
    assert (rep.margin, rep.witness["aux"]["deviation"], rep.samples) == (-1.0, 1.0, 1)
    t_star = rep.witness["aux"]["t"]
    recomputed = matcore.op_norm(adjoint_block(E12, -E21, t_star)) - math.sqrt(1 + t_star**2)
    assert recomputed == pytest.approx(abs(t_star) + 1.0 - math.sqrt(1 + t_star**2), abs=1e-12)
    assert rep.config["tolerance"] < recomputed < -rep.margin
    z = np.zeros((2, 2))
    assert criteria.check_adjoint(z, z).verdict == criteria.HOLDS_WITHIN_BUDGET


@pytest.mark.parametrize("x, z, deviation", [
    (np.zeros((2, 2)), 0.2 * np.eye(2), 0.1),
    (np.diag([0.5, 0.2]), np.diag([0.5, 0.2]) + 0.1j * np.eye(2), 0.05),
    (0.999 * E12, 0.999 * E21 + 5e-4 * np.diag([1.0, 0.0]), 2.5e-4),
], ids=["zero-scalar", "diagonal-imaginary", "near-adjoint"])
def test_adjoint_finds_violations_beyond_a_bounded_t(x, z, deviation):
    # each gap stays below the tolerance on |t| <= 4 and rises to ||x - z*|| / 2 only as |t| grows
    rep = criteria.check_adjoint(x, z)
    assert rep.verdict == criteria.VIOLATED
    assert rep.witness["aux"]["deviation"] == pytest.approx(deviation, rel=1e-12)
    t = rep.witness["aux"]["t"]
    assert matcore.op_norm(adjoint_block(x, z, t)) - math.sqrt(1.0 + t * t) > rep.config["tolerance"]


def test_adjoint_requires_square_x_and_z_of_equal_size():
    for x, z in ((E12, np.zeros((3, 3))), (np.zeros((2, 3)), np.zeros((2, 3)))):
        with pytest.raises(ShapeError, match="x and z must be square of equal size"):
            criteria.check_adjoint(x, z)


def test_positive_and_adjoint_name_no_arg_max_when_they_hold(m2_entry):
    # below the tolerance no point is a witness: only the measured terms are reported
    for x in (np.diag([0.5, 0.25]), np.zeros((2, 2)), np.eye(2)):
        rep = criteria.check_positive(m2_entry.space, x)
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
        assert set(rep.witness["aux"]) == {"gap", "hermitian_residual"}
        assert rep.margin == 0.0 - max(rep.witness["aux"]["gap"], rep.witness["aux"]["hermitian_residual"])
    for x, z in ((E12, E21), (np.zeros((2, 2)), np.zeros((2, 2)))):
        rep = criteria.check_adjoint(x, z)
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
        assert rep.witness["aux"] == {"deviation": -rep.margin}


def contraction(d, rng, norm=1.0):
    m = rand_cmat(d, d, rng)
    return norm * m / matcore.op_norm(m)


#: Points at which the adjoint oracle assembles the block, out to where its gap nears the supremum.
ADJOINT_TS = np.array([0.0, 0.5, 4.0, 40.0, 1e3, 1e4])


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_adjoint_deviation_is_the_supremum_of_the_assembled_gap(d):
    # sup_t ||[[t, x], [-z, t]]|| - sqrt(1 + t^2) = ||x - z*|| / 2 (criteria module docstring): no t beats
    # the reported deviation, and a violation's t has a gap of at least (deviation + tolerance) / 2
    rng = matcore.stream(116, d)
    x = contraction(d, rng, 0.999)
    for z in (matcore.dagger(x), matcore.dagger(x) + 5e-4 * contraction(d, rng), contraction(d, rng)):
        rep = criteria.check_adjoint(x, z)
        deviation, tolerance = rep.witness["aux"]["deviation"], rep.config["tolerance"]
        gaps = [matcore.op_norm(adjoint_block(x, z, t)) - math.sqrt(1.0 + t * t) for t in (*ADJOINT_TS, *-ADJOINT_TS)]
        assert max(gaps) <= deviation + 1e-12
        assert rep.verdict == (criteria.VIOLATED if deviation > tolerance else criteria.HOLDS_WITHIN_BUDGET)
        if rep.verdict == criteria.VIOLATED:
            t = rep.witness["aux"]["t"]
            gap = matcore.op_norm(adjoint_block(x, z, t)) - math.sqrt(1.0 + t * t)
            assert gap > tolerance and gap >= (deviation + tolerance) / 2 - 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_positive_holds_on_psd_contractions_and_projections(d):
    # x >= 0: the assembled circle stays within 1 of 1 - z x, and the check holds with a margin of rounding
    # (h h* is Hermitian only up to its last bits, and a top eigenvalue 1 may round ||1 - 2x|| above 1)
    rng = matcore.stream(117, d)
    h = rand_cmat(d, d, rng)
    psd = h @ matcore.dagger(h)
    space = corpus.build_full_matrix(d).space
    for x in (psd / matcore.op_norm(psd), 0.5 * psd / matcore.op_norm(psd),
              np.diag([1.0] * (d - d // 2) + [0.0] * (d // 2)), np.eye(d), np.zeros((d, d))):
        assert circle_norms(x).max() <= 1.0 + 1e-12
        rep = criteria.check_positive(space, x)
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET and -1e-15 <= rep.margin <= 0.0
        assert math.copysign(1.0, rep.margin) == 1.0 or rep.margin < 0.0  # never -0.0


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_positive_gap_is_the_assembled_norm_at_z(d):
    # a report naming z reproduces its gap from the assembled 1 - z x; a circle point past the tolerance
    # is always a violation, and z = 2 is such a point
    rng = matcore.stream(119, d)
    space = corpus.build_full_matrix(d).space
    herm = rand_cmat(d, d, rng)
    herm = herm + matcore.dagger(herm)
    for x in (contraction(d, rng), contraction(d, rng, 0.5), herm / matcore.op_norm(herm), -np.eye(d)):
        rep = criteria.check_positive(space, x)
        aux, tolerance = rep.witness["aux"], rep.config["tolerance"]
        if circle_norms(x).max() - 1.0 > tolerance:
            assert rep.verdict == criteria.VIOLATED
        if "z" in aux:
            z = complex(*aux["z"])
            assert abs(matcore.op_norm(np.eye(d) - z * x) - 1.0 - aux["gap"]) <= 1e-12
            assert circle_norms(x).max() - 1.0 >= aux["gap"] - 1e-12
        assert ("z" in aux) == (aux["gap"] > tolerance)


def test_positive_is_exact_on_projections():
    # 1 - 2x is a symmetry for a projection x: the gap is exactly 0
    for d in (3, 8):
        x = np.diag([1.0] * (d - 1) + [0.0])
        for z in (x, np.eye(d)):
            rep = criteria.check_positive(corpus.build_full_matrix(d).space, z)
            assert (rep.verdict, rep.margin, rep.witness["aux"]) == (criteria.HOLDS_WITHIN_BUDGET, 0.0,
                                                                     {"gap": 0.0, "hermitian_residual": 0.0})


def hermitian_with_spectrum(lam, rng):
    """q diag(lam) q*, symmetrized so that it is Hermitian to the last bit, for a Haar-like unitary q."""
    d = len(lam)
    q = np.linalg.qr(rand_cmat(d, d, rng))[0]
    h = q @ np.diag(lam) @ matcore.dagger(q)
    return 0.5 * (h + matcore.dagger(h))


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_positive_gap_is_spectral_on_hermitian_contractions(d, scale):
    # a Hermitian contraction h with eigenvalues lam has ||1 - 2h|| - 1 = max(-2 lam_min, 2 lam_max - 2) and no
    # Hermitian residual, so the check holds exactly when lam_min >= -tolerance / 2
    rng = matcore.stream(121, d)
    space = corpus.build_full_matrix(d).space
    for low in (-scale, -1e-5, -4e-7, 0.0):
        lam = rng.uniform(max(low, 0.0), scale, d)
        lam[0] = low
        h = hermitian_with_spectrum(lam, rng)
        rep = criteria.check_positive(space, h)
        aux, tolerance = rep.witness["aux"], rep.config["tolerance"]
        spectrum = np.linalg.eigvalsh(h)
        assert aux["hermitian_residual"] == 0.0
        assert aux["gap"] == pytest.approx(max(-2.0 * spectrum[0], 2.0 * spectrum[-1] - 2.0), rel=0, abs=1e-12)
        want = criteria.VIOLATED if low < -0.5 * tolerance else criteria.HOLDS_WITHIN_BUDGET
        assert rep.verdict == want, low
        assert rep.margin == 0.0 - max(aux["gap"], 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["psd", "hermitian", "general", "unitary"])
def test_positive_verdict_is_the_order_of_the_hermitian_part(kind, d):
    # ||1 - 2x|| >= lambda_max(Re(1 - 2x)) = 1 - 2 lambda_min(Re x): a report that holds has x - x* within twice
    # the tolerance and Re x >= -tolerance / 2; x >= 0 always holds, and a circle point past the tolerance
    # always violates
    rng = matcore.stream(123, d)
    space = corpus.build_full_matrix(d).space
    for draw in range(6):
        scale = rng.uniform(0.1, 1.0)
        if kind == "psd":
            h = rand_cmat(d, d, rng)
            x = scale * (h @ matcore.dagger(h)) / matcore.op_norm(h @ matcore.dagger(h))
        elif kind == "hermitian":
            x = scale * hermitian_with_spectrum(rng.uniform(-1.0, 1.0, d), rng)
        elif kind == "general":
            x = contraction(d, rng, scale)
        else:
            x = haar_unitary(d, 1000 * d + draw)
        rep = criteria.check_positive(space, x)
        aux, tolerance = rep.witness["aux"], rep.config["tolerance"]
        assert aux["hermitian_residual"] == pytest.approx(0.5 * matcore.op_norm(x - matcore.dagger(x)),
                                                          rel=1e-14, abs=0)
        assert aux["gap"] == pytest.approx(matcore.op_norm(np.eye(d) - 2.0 * x) - 1.0, rel=0, abs=1e-15)
        assert rep.margin == 0.0 - max(aux["gap"], aux["hermitian_residual"])
        assert ("z" in aux) == (aux["gap"] > tolerance)
        if rep.verdict == criteria.HOLDS_WITHIN_BUDGET:
            assert aux["hermitian_residual"] <= tolerance
            assert np.linalg.eigvalsh(0.5 * (x + matcore.dagger(x)))[0] >= -0.5 * tolerance - 1e-15
        if circle_norms(x).max() - 1.0 > tolerance:
            assert rep.verdict == criteria.VIOLATED
        if kind == "psd":
            assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
        elif kind in ("general", "unitary"):
            # neither draw is Hermitian: a random contraction, and a unitary other than 1
            assert rep.verdict == criteria.VIOLATED and aux["hermitian_residual"] > tolerance


# ---------------------------------------------------------------------------
# multiplicative structure


def test_mult_closed_verdicts(criterion_cache):
    assert criterion_cache("upper_triangular_2", "mult-closed").verdict == criteria.HOLDS_WITHIN_BUDGET
    assert criterion_cache("full_matrix_2", "mult-closed").verdict == criteria.HOLDS_WITHIN_BUDGET
    rep = criterion_cache("non_algebra_span", "mult-closed")
    assert rep.verdict == criteria.VIOLATED
    assert rep.margin == pytest.approx(-1.0, abs=1e-9)
    aux = rep.witness["aux"]
    assert aux["residual"] == aux["algebraic_max"] == -rep.margin
    # expected witness pair: x = E_12, y = E_12 (equal to dagger of basis E_21)
    x = spaces.realize(corpus.entry("non_algebra_span").space,
                       criteria.CheckReport.from_dict(rep.to_dict()).witness_element())
    assert np.allclose(x, E12) or np.allclose(x, E21)


def test_mult_closed_witness_recomputes(criterion_cache):
    rep = criterion_cache("non_algebra_span", "mult-closed")
    space = corpus.entry("non_algebra_span").space
    elem = rep.witness_element()
    aux = rep.witness["aux"]
    y = np.array(aux["y"], dtype=float)
    y = y[..., 0] + 1j * y[..., 1]
    prod = spaces.realize(space, elem) @ matcore.dagger(y)
    assert spaces.membership_residual(space, prod) == pytest.approx(-rep.margin, abs=1e-9)


def test_multiplier_examples():
    upper = corpus.build_upper_triangular(2).space
    rep = criteria.check_multiplier(upper, np.diag([1.0, 0.0]), "left")
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    span = corpus.entry("non_algebra_span").space
    rep = criteria.check_multiplier(span, np.eye(2), "quasi")
    assert rep.verdict == criteria.VIOLATED
    assert rep.margin == pytest.approx(-1.0, abs=1e-9)
    for side in ("left", "right", "quasi"):
        rep = criteria.check_multiplier(span, np.zeros((2, 2)), side)
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    with pytest.raises(InvalidInputError):
        criteria.check_multiplier(span, np.eye(2), "sideways")


# the text report prints a witness's aux entries in insertion order; the JSON reports sort them
MULT_CLOSED_KEYS = ["algebraic_max", "x_basis", "y_basis", "residual", "y"]
MULTIPLIER_KEYS = ["algebraic_max", "side", "basis_index", "residual"]


def test_violated_mult_closed_aux_keeps_its_order(criterion_cache):
    rep = criterion_cache("non_algebra_span", "mult-closed")
    assert rep.verdict == criteria.VIOLATED
    assert list(rep.witness["aux"]) == MULT_CLOSED_KEYS


@pytest.mark.parametrize("side", ["left", "right"])
def test_violated_multiplier_aux_keeps_its_order(side):
    span = corpus.entry("non_algebra_span").space
    rep = criteria.check_multiplier(span, span.basis[0], side)
    assert rep.verdict == criteria.VIOLATED
    assert list(rep.witness["aux"]) == MULTIPLIER_KEYS


def test_violated_multiplier_on_a_rectangular_ambient_has_no_metric_entries():
    corner = spaces.make_space(np.array([[[1.0, 0, 0], [0, 0, 0]]]))  # E11 in M_{2x3}
    rep = criteria.check_multiplier(corner, np.array([[0, 1.0], [1.0, 0]]), "left")  # swaps E11 to E21
    assert rep.verdict == criteria.VIOLATED
    assert list(rep.witness["aux"]) == MULTIPLIER_KEYS
    assert rep.notes == []


def test_holding_closure_checks_report_their_basis_products_only(criterion_cache):
    rep = criterion_cache("full_matrix_2", "mult-closed")
    assert (rep.verdict, rep.margin, rep.samples) == (criteria.HOLDS_WITHIN_BUDGET, 0.0, 16)
    assert rep.witness == {"level": None, "coeffs": None, "aux": {"algebraic_max": 0.0}}
    upper = corpus.build_upper_triangular(3).space
    for side, samples in (("left", 6), ("right", 6), ("quasi", 36)):
        rep = criteria.check_multiplier(upper, upper.basis[1], side)
        assert (rep.verdict, rep.samples, rep.notes) == (criteria.HOLDS_WITHIN_BUDGET, samples, [])
        assert list(rep.witness["aux"]) == ["algebraic_max", "side"]


def row_identity_spaces():
    """Every square corpus entry, then the 20 random 3x3 subspaces of test_11 in test_acceptance."""
    out = [pytest.param(e.space, id=e.name) for e in corpus.build_corpus() if e.space.p == e.space.q]
    for t in range(20):
        rng = matcore.stream(111, t)
        k = int(rng.integers(2, 5))
        basis = np.stack([rand_cmat(3, 3, rng) for _ in range(k)])
        out.append(pytest.param(spaces.make_space(basis), id=f"random_{t}"))
    return out


@pytest.mark.parametrize("space", row_identity_spaces())
def test_row_identity_fails_exactly_when_the_product_leaves_the_space(space):
    # the paper's 2x4 row identity, measured on assembled rows: with z = -P(x y*) its gap
    # is above the tolerance exactly when the membership residual of x y* is (the
    # criteria docstring), and within rounding of 0 for every filler when x y* lies in X;
    # the gap is of second order in the residual, and the residuals here are either
    # rounding noise or of order one
    tol = witness.SearchConfig().tolerance
    rng = matcore.stream(113, space.dim, space.p)
    d = space.p
    for _ in range(4):
        x, a = spaces.realize_stack(space, spaces.scale_to_norms(space, spaces.random_stack(space, 1, rng, 2), 1.0))
        y = matcore.dagger(a)  # x y* = x a, a product of X
        fillers = [b / matcore.op_norm(b) for b in (rand_cmat(d, d, rng) for _ in range(3))]
        devs = closure_row_deviations(space, x, y, fillers)
        residual = spaces.membership_residual(space, x @ a)
        assert (devs[0] > tol) == (residual > tol), (residual, devs[0])
        if residual <= tol:
            assert np.abs(devs).max() <= 1e-12
        else:
            assert residual > 1e-2 and devs.min() > 0


@pytest.mark.parametrize("scale", [1e-4, 1e-3, 1.0, 1e3])
def test_closure_verdicts_do_not_depend_on_the_basis_scale(scale):
    # span{E_12, E_21} is the same subspace at every scale of its basis: E_12 E_21 = E_11 leaves
    # it at distance 1, so both checks are VIOLATED with the residual of the norm-one product
    space = spaces.make_space(scale * np.stack([E12, E21]))
    for rep in (criteria.check_mult_closed(space), criteria.check_multiplier(space, space.basis[0], "left")):
        assert rep.verdict == criteria.VIOLATED, rep.criterion
        assert -rep.margin == pytest.approx(1.0, abs=1e-12), rep.criterion


def hermitian_space(basis, unit):
    """The span of selfadjoint matrices, whose involution is the identity on coefficients."""
    basis = np.asarray(basis, dtype=np.complex128)
    return spaces.make_space(basis, unit=unit, involution=np.eye(len(basis)))


def matrix_units(d, cells):
    out = np.zeros((len(cells), d, d), dtype=np.complex128)
    for s, (i, j) in enumerate(cells):
        out[s, i, j] = 1.0
    return out


def random_operator_system(t):
    """An operator system in M_3 from the seeded stream (115, t).

    Even t: a Haar conjugate of a unital C*-subalgebra (the diagonal, C (+) M_2
    or C (+) C 1_2) in a selfadjoint basis; odd t: span{1, H_1, ..., H_r} for
    one to three random Hermitian H, which is generically no algebra.
    """
    rng = matcore.stream(115, t)
    if t % 2:
        ms = [rand_cmat(3, 3, rng) for _ in range(int(rng.integers(1, 4)))]
        hs = [(m + matcore.dagger(m)) / 2 for m in ms]
        return hermitian_space([np.eye(3)] + hs, [1.0] + [0.0] * len(hs))
    e = matrix_units(3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])
    basis, unit = {0: ([e[0], e[1], e[2]], [1.0, 1.0, 1.0]),
                   2: ([e[0], e[1], e[2], e[3] + e[4], 1j * (e[3] - e[4])], [1.0, 1.0, 1.0, 0.0, 0.0]),
                   4: ([e[0], e[1] + e[2]], [1.0, 1.0])}[t % 6]
    U = haar_unitary(3, seed=1150 + t)
    return hermitian_space([U @ b @ matcore.dagger(U) for b in basis], unit)


#: The ids of the oracle spaces whose unit is a corner unit below the ambient 1.
CORNER_UNIT_SPACES = ("span_E11", "zero_plus_M2")


def cstar_oracle_spaces():
    """Every embedded corpus entry with a unit and an involution, M_3, the test operator systems, 20
    random operator systems in M_3, and the C*-algebras span{E_11} and 0 (+) M_2 (CORNER_UNIT_SPACES),
    whose units are projections below the ambient 1."""
    out = [pytest.param(e.space, id=e.name) for e in corpus.build_corpus()
           if e.space.norm_mode == spaces.EMBEDDED and e.space.unit is not None and e.space.involution is not None]
    out += [pytest.param(corpus.build_full_matrix(3).space, id="full_matrix_3"),
            pytest.param(non_algebra_system(), id="non_algebra_system"),
            pytest.param(tridiagonal_3(), id="tridiagonal_3")]
    out += [pytest.param(random_operator_system(t), id=f"random_{t}") for t in range(20)]
    e = matrix_units(3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])
    out += [pytest.param(hermitian_space(e[:1], [1.0]), id="span_E11"),
            pytest.param(hermitian_space([e[1], e[2], e[3] + e[4], 1j * (e[3] - e[4])], [1.0, 1.0, 0.0, 0.0]),
                         id="zero_plus_M2")]
    return out


@pytest.mark.parametrize("space", cstar_oracle_spaces())
def test_cstar_rows_leave_the_space_exactly_when_a_residual_exceeds_the_tolerance(space, request):
    # the paper's 2x6 rows, assembled: with z = -x y* and the canonical b their Gram is 1 on every
    # space (v (+) v in the corner v M v, when the unit v is a corner unit below 1, and then v
    # stands for 1 in the rows and in b), so only z and b leaving X can break the row identity, and
    # they leave it exactly when the check's largest residual exceeds the tolerance (the criteria
    # docstring); those leaving residuals are of order one, the others rounding noise, which the
    # square root in b takes from about 1e-16 up to about 1e-8 where ||h|| v - h has a repeated
    # eigenvalue 0.  span{E_11} and 0 (+) M_2 are C*-algebras with such units: they hold.
    tol = witness.SearchConfig().tolerance
    rep = criteria.check_cstar_among_systems(space)
    assert (-rep.margin > tol) == (rep.verdict == criteria.INCONCLUSIVE)
    one = corner_unit(space)
    rng = matcore.stream(114, space.dim, space.p)
    dag = matcore.dagger
    for _ in range(4):
        x, y = spaces.realize_stack(space, spaces.scale_to_norms(space, spaces.random_stack(space, 1, rng, 2), 1.0))
        z = -x @ dag(y)
        b = proof_b(x, y, z, one)
        for sign in "+-":
            M = build_M_pm(x, y, z, b, sign, one)
            assert np.abs(M @ dag(M) - np.kron(np.eye(2), one)).max() <= 1e-12
        residual = spaces.membership_residual_stack(space, np.stack([z, b])).max()
        assert (residual > tol) == (rep.verdict == criteria.INCONCLUSIVE), (residual, rep.witness["aux"])
        assert residual <= 1e-7 or residual > 1e-2, residual
    if request.node.callspec.id in CORNER_UNIT_SPACES:
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
        assert rep.witness["aux"]["identity_residual"] == 1.0 and rep.witness["aux"]["unit_residual"] <= 1e-15


def all_criteria_reports(entry, criterion_cache):
    """The reports of the 14 criteria on one square corpus entry, where each applies.

    The searched rows, ``mult-closed``, ``algebra-product`` and ``cstar`` as the
    corpus runs them; the multipliers on basis element 0; ``positive`` on the
    unit, ``adjoint`` on a contractive x against x* and against x, and
    ``left-multiplier-map`` with the identity and with the coefficients reversed.
    """
    space = entry.space
    cfg = witness.SearchConfig()
    reports = [criterion_cache(entry.name, crit) for crit in entry.expected]
    reports += [criteria.check_multiplier(space, space.basis[0], side, cfg) for side in ("left", "right", "quasi")]
    if space.unit is not None:
        reports.append(criteria.check_positive(space, spaces.unit_element(space), cfg))
    x = space.basis[0] / matcore.op_norm(space.basis[0])
    reports += [criteria.check_adjoint(x, matcore.dagger(x), cfg), criteria.check_adjoint(x, x, cfg)]
    if space.norm_mode == spaces.EMBEDDED:
        for T in (np.eye(space.dim), np.eye(space.dim)[::-1]):
            reports.append(criteria.check_left_multiplier_map(space, T, cfg))
    return reports


def test_no_margin_is_a_negative_zero(corpus_entries, criterion_cache):
    # README: a zero margin is written 0.0, never -0.0
    seen = set()
    for entry in corpus_entries.values():
        if entry.space.p != entry.space.q:
            continue
        for rep in all_criteria_reports(entry, criterion_cache):
            seen.add(rep.criterion)
            assert not (rep.margin == 0 and math.copysign(1.0, rep.margin) < 0), (entry.name, rep.criterion)
    assert len(seen) == 14


def test_left_multiplier_map_checks_T_before_the_level1_oracle_refusal():
    space = corpus.build_trace_class_2().space
    with pytest.raises(ShapeError, match="T must be a 4x4 coefficient matrix"):
        criteria.check_left_multiplier_map(space, np.eye(3))
    assert criteria.check_left_multiplier_map(space, np.eye(4)).verdict == criteria.UNSUPPORTED_LEVEL


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_left_multiplier_map_refuses_a_non_finite_T_before_any_draw(m2_entry, bad, monkeypatch):
    T = np.full((4, 4), np.nan) if bad == "nan" else np.eye(4)
    if bad == "inf":
        T[0, 0] = np.inf
    monkeypatch.setattr(criteria, "_worst_pair", lambda *a, **k: pytest.fail("a pair was drawn"))
    with pytest.raises(InvalidInputError, match="T has non-finite entries"):
        criteria.check_left_multiplier_map(m2_entry.space, T)


def test_left_multiplier_map_draws_its_own_pairs_whatever_the_restarts(m2_entry):
    # each level draws LEFT_MULTIPLIER_PAIRS pairs and adds the pairs (a, a); the search budget is not read
    space = m2_entry.space
    reports = [criteria.check_left_multiplier_map(space, 2 * np.eye(4), witness.SearchConfig(restarts=r))
               for r in (0, 8, 64, 256)]
    for rep in reports:
        assert rep.samples == 2 * 2 * criteria.LEFT_MULTIPLIER_PAIRS  # two levels, each pair with its (a, a)
        assert (rep.verdict, rep.margin, rep.witness) == (reports[0].verdict, reports[0].margin, reports[0].witness)


def test_left_multiplier_map_examples(m2_entry):
    space = m2_entry.space
    assert criteria.check_left_multiplier_map(space, np.eye(4)).verdict == criteria.HOLDS_WITHIN_BUDGET
    left_e11 = np.diag([1.0, 1.0, 0.0, 0.0])
    assert criteria.check_left_multiplier_map(space, left_e11).verdict == criteria.HOLDS_WITHIN_BUDGET
    rep = criteria.check_left_multiplier_map(space, 2 * np.eye(4))
    assert rep.verdict == criteria.VIOLATED
    # at a = b the stacked pair gives sqrt(5)||a|| against sqrt(2)||a||
    a = random_element(space, 1, matcore.stream(62, 0), target_norm=1.0)
    stacked = np.concatenate([2 * spaces.realize(space, a), spaces.realize(space, a)], axis=0)
    ref = np.concatenate([spaces.realize(space, a), spaces.realize(space, a)], axis=0)
    assert matcore.op_norm(stacked) == pytest.approx(math.sqrt(5), abs=1e-9)
    assert matcore.op_norm(ref) == pytest.approx(math.sqrt(2), abs=1e-9)
    assert -rep.margin >= math.sqrt(5) - math.sqrt(2) - 1e-6


def test_algebra_product_examples():
    entry = corpus.build_upper_triangular(2)
    tensor = criteria.multiplication_tensor(entry.space)
    rep = criteria.check_algebra_product(entry.space, entry.space.unit, tensor)
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    assert rep.witness["aux"]["failed"] == []

    doubled = criteria.check_algebra_product(entry.space, entry.space.unit, 2 * tensor)
    assert doubled.verdict == criteria.VIOLATED
    assert "right-unit" in doubled.witness["aux"]["failed"]
    assert doubled.witness["aux"]["unit_action_residual"] == pytest.approx(1.0, abs=1e-9)

    basis = np.zeros((2, 2, 2), dtype=complex)
    basis[0, 0, 0] = basis[1, 1, 1] = 1.0
    linf2 = spaces.make_space(basis, unit=np.array([1.0, 1.0]))
    pointwise = np.zeros((2, 2, 2), dtype=complex)
    pointwise[0, 0, 0] = pointwise[1, 1, 1] = 1.0
    rep = criteria.check_algebra_product(linf2, linf2.unit, pointwise)
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    assert rep.witness["aux"]["product_residual"] == 0.0  # the pointwise product is the ambient one


def test_algebra_product_proves_the_ambient_product_and_samples_any_other(criterion_cache):
    # the ambient product: [x a; b] = (x (+) 1)[a; b], so sub-check (ii) is proved and no pair is drawn
    rep = criterion_cache("upper_triangular_2", "algebra-product")
    aux = rep.witness["aux"]
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET and aux["failed"] == []
    assert aux["product_residual"] <= criteria.PROOF_TOL and "multiplier_max_deviation" not in aux
    assert any("left-multiplier sub-check proved" in note for note in rep.notes)
    # a tensor with m(x, u) = x kept but a non-contractive left action, m(x, y) = x y + (y_0 - y_2) x on
    # span{E11, E12, E22} with u = E11 + E22: the pairs are sampled, and only sub-check (ii) fails
    space = corpus.build_upper_triangular(2).space
    planted = criteria.multiplication_tensor(space) + np.einsum("il,j->ijl", np.eye(3), [1.0, 0.0, -1.0])
    rep = criteria.check_algebra_product(space, space.unit, planted)
    aux = rep.witness["aux"]
    assert rep.verdict == criteria.VIOLATED and aux["failed"] == ["left-multiplier"]
    assert "product_residual" not in aux and rep.margin == -aux["multiplier_max_deviation"] < -1.0
    assert rep.notes == []


AMBIENT_ALGEBRAS = {
    "linf_3": lambda: corpus.build_linf(3, "ones"),
    "upper_triangular_2": lambda: corpus.build_upper_triangular(2),
    "upper_triangular_3": lambda: corpus.build_upper_triangular(3),
    "full_matrix_2": lambda: corpus.build_full_matrix(2),
    "full_matrix_3": lambda: corpus.build_full_matrix(3),
}


@pytest.mark.parametrize("name", list(AMBIENT_ALGEBRAS))
def test_algebra_product_proof_agrees_with_the_sampled_pairs(name, monkeypatch):
    # the proved sub-check (ii) skips exactly the pairs that could not fire: with the proof disabled, the
    # sampled left action of the same ambient tensor stays within the tolerance, and the other sub-checks agree
    space = AMBIENT_ALGEBRAS[name]().space
    tensor = criteria.multiplication_tensor(space)
    proved = criteria.check_algebra_product(space, space.unit, tensor)
    aux, k = proved.witness["aux"], space.dim
    assert proved.verdict == criteria.HOLDS_WITHIN_BUDGET and aux["failed"] == []
    assert aux["product_residual"] <= criteria.PROOF_TOL and "multiplier_max_deviation" not in aux
    assert len(proved.notes) == 1 and proved.notes[0].startswith("left-multiplier sub-check proved")
    # the proof counts the k^2 basis products it measured in place of the sampled pairs
    coisometry = criteria.CRITERION_RUNNERS["coisometry"](space, u=space.unit)
    assert proved.samples == coisometry.samples + k * k + k
    # with every proof off, the coisometry row test is searched too
    monkeypatch.setattr(criteria, "PROOF_TOL", -1.0)
    sampled = criteria.check_algebra_product(space, space.unit, tensor)
    sampled_aux = sampled.witness["aux"]
    assert sampled.verdict == criteria.HOLDS_WITHIN_BUDGET and sampled.notes == []
    assert sampled_aux["multiplier_max_deviation"] <= sampled.config["tolerance"]
    for key in ("unit_coisometry_verdict", "unit_action_residual", "failed"):
        assert sampled_aux[key] == aux[key], key
    assert proved.samples < sampled.samples


@pytest.mark.parametrize("size", [1.0, 1e-2, 1e-9])
def test_algebra_product_samples_a_tensor_off_the_ambient_product(size):
    # any tensor further than PROOF_TOL from the ambient product is sampled, however close: here the planted
    # left action m(x, y) = x y + size (y_0 - y_2) x on UT_2 keeps m(x, u) = x
    space = corpus.build_upper_triangular(2).space
    planted = criteria.multiplication_tensor(space) + size * np.einsum("il,j->ijl", np.eye(3), [1.0, 0.0, -1.0])
    rep = criteria.check_algebra_product(space, space.unit, planted)
    aux = rep.witness["aux"]
    assert "product_residual" not in aux and rep.notes == []
    assert aux["unit_action_residual"] <= rep.config["tolerance"]
    # y = E11 and x = 1 give m(1, E11) = diag(1 + size, size): the left action exceeds 1 by about size
    if size > rep.config["tolerance"]:
        assert rep.verdict == criteria.VIOLATED and aux["failed"] == ["left-multiplier"]
        assert aux["multiplier_max_deviation"] > 0.0
    else:
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET and aux["failed"] == []


def test_algebra_product_refuses_a_non_finite_tensor(m2_entry):
    tensor = criteria.multiplication_tensor(m2_entry.space)
    tensor[0, 0, 0] = np.nan
    with pytest.raises(InvalidInputError, match="structure tensor has non-finite entries"):
        criteria.check_algebra_product(m2_entry.space, tensor=tensor)


def test_algebra_product_refuses_a_level1_oracle_space():
    space = corpus.build_trace_class_2().space
    tensor = np.zeros((space.dim,) * 3, dtype=complex)
    rep = criteria.check_algebra_product(space, space.unit, tensor)
    assert rep.verdict == criteria.UNSUPPORTED_LEVEL
    assert rep.notes == ["stacked columns need rectangular blocks over X"]
    assert rep.samples == 0


def test_cstar_among_systems(criterion_cache):
    rep = criterion_cache("full_matrix_2", "cstar-among-systems")
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    assert -rep.margin <= 1e-6


def test_cstar_reports_its_largest_residual():
    # on M_2 every product B_i B_j* and the identity lie in the space: HOLDS, margin minus the
    # largest residual, one sample per basis product and one for the identity
    space = corpus.build_full_matrix(2).space
    rep = criteria.check_cstar_among_systems(space)
    aux = rep.witness["aux"]
    assert (rep.verdict, rep.notes, rep.samples) == (criteria.HOLDS_WITHIN_BUDGET, [], 17)
    assert list(aux) == ["algebraic_max", "identity_residual"]
    assert rep.margin == 0.0 - max(aux.values()) and max(aux.values()) <= 1e-15
    # span{I, E_12 + E_21} is a commutative C*-algebra
    flip = spaces.make_space(np.stack([np.eye(2), E12 + E21]), unit=[1.0, 0.0], involution=np.eye(2))
    assert criteria.check_cstar_among_systems(flip).verdict == criteria.HOLDS_WITHIN_BUDGET
    # span{E_11} leaves out the ambient 1, but its unit E_11 passes the corner-unit identity, so b is
    # built from E_11 and the residual of E_11 decides in place of that of 1: one more sample
    e11 = spaces.make_space(np.array([[[1.0, 0.0], [0.0, 0.0]]]), unit=[1.0], involution=[[1.0]])
    rep = criteria.check_cstar_among_systems(e11)
    assert (rep.verdict, rep.notes, rep.samples, rep.margin) == (criteria.HOLDS_WITHIN_BUDGET, [], 3, 0.0)
    assert rep.witness["aux"] == {"algebraic_max": 0.0, "identity_residual": 1.0, "unit_residual": 0.0}
    # with the unit E_11 / 2, no projection, the rule does not apply, and the ambient 1 decides
    rep = criteria.check_cstar_among_systems(spaces.make_space(e11.basis, unit=[0.5], involution=[[1.0]]))
    assert rep.verdict == criteria.INCONCLUSIVE
    assert rep.witness["aux"] == {"algebraic_max": 0.0, "identity_residual": 1.0}
    assert (rep.margin, rep.samples) == (-1.0, 2)


def test_cstar_checks_its_inputs_before_the_level1_oracle_refusal():
    # the trace-norm oracle space has no involution: an input error, as on an embedded space
    with pytest.raises(InvalidInputError, match="requires an involution"):
        criteria.check_cstar_among_systems(corpus.build_trace_class_2().space)
    rep = criteria.check_cstar_among_systems(oracle_space_with_involution())
    assert (rep.verdict, rep.notes) == (criteria.UNSUPPORTED_LEVEL, ["needs an embedded space"])


def test_cstar_zero_pair_is_exact():
    z = np.zeros((2, 2), dtype=complex)
    m = build_M_pm(z, z, z, z, "+")
    w = rand_cmat(4, 4, matcore.stream(63, 0))  # a contraction in M_2(A), A = M_2
    w /= matcore.op_norm(w)
    row = np.concatenate([m, w], axis=1)
    assert matcore.op_norm(row) == pytest.approx(SQRT2, abs=1e-12)


def test_cstar_inconclusive_when_construction_leaves_space():
    # span{I, E_12 + E_21, diag(1, -1)} is selfadjoint and unital, but the
    # canonical z = -x y* lands outside it, so existence over X is uncertified
    basis = np.zeros((3, 2, 2), dtype=complex)
    basis[0] = np.eye(2)
    basis[1] = E12 + E21
    basis[2] = np.diag([1.0, -1.0])
    space = spaces.make_space(basis, unit=np.array([1.0, 0, 0]), involution=np.eye(3))
    rep = criteria.check_cstar_among_systems(space)
    assert rep.verdict == criteria.INCONCLUSIVE
    assert any("leave the space" in n for n in rep.notes)


def test_cstar_detects_perturbed_product():
    rng = matcore.stream(63, 1)
    x = rand_cmat(2, 2, rng)
    x /= max(1.0, matcore.op_norm(x))
    y = rand_cmat(2, 2, rng)
    y /= max(1.0, matcore.op_norm(y))
    z = -x @ matcore.dagger(y) + 0.3 * np.eye(2)
    b = proof_b(x, y, -x @ matcore.dagger(y))
    worst = 0.0
    for sign in ("+", "-"):
        m = build_M_pm(x, y, z, b, sign)
        for mlev in (1, 2):
            amp = matcore.scalar_amplify(m, mlev)
            for t in range(16):
                w = rand_cmat(4 * mlev, 4 * mlev, matcore.stream(63, 2, mlev, t))
                w /= matcore.op_norm(w)
                row = np.concatenate([amp, w], axis=1)
                worst = max(worst, abs(matcore.op_norm(row) - SQRT2))
    assert worst > 1e-3


def row_identity_bound(gram):
    """max(sqrt(1 + lambda_max) - sqrt(2), sqrt(2) - sqrt(1 + lambda_min)) of a Gram M M*.

    By ||[M (x) I_m, w]||^2 = ||M M* (x) I_m + w w*|| and Weyl's inequalities
    (Bhatia 1997, ch. III), a bound on | ||[M (x) I_m, w]|| - sqrt(2) | over
    every norm-one w at every level m.
    """
    lam = np.linalg.eigvalsh(gram)
    return max(math.sqrt(1.0 + lam[-1]) - SQRT2, SQRT2 - math.sqrt(1.0 + lam[0]))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_cstar_bound_covers_the_sampled_row_identity(d):
    # the identity the construction makes exact: ||[M+- (x) I_m, w]|| = sqrt(2) for unit w,
    # with x, y anywhere in M_d; a perturbed z breaks it, and the Gram's bound must still cover
    # every sample
    rng = matcore.stream(64, d)
    x, y = (m / matcore.op_norm(m) for m in (rand_cmat(d, d, rng), rand_cmat(d, d, rng)))
    z = -x @ matcore.dagger(y)
    b = proof_b(x, y, z)
    for shift in (0.0, 0.3):
        bounds = []
        for sign in ("+", "-"):
            m = build_M_pm(x, y, z + shift * np.eye(d), b, sign)
            gram = m @ matcore.dagger(m)
            if shift == 0.0:
                assert np.abs(gram - np.eye(2 * d)).max() <= 1e-12
            bound = row_identity_bound(gram)
            bounds.append(bound)
            for mlev in (1, 2, 3):
                amp = matcore.scalar_amplify(m, mlev)
                for _ in range(6):
                    w = rand_cmat(2 * d * mlev, 2 * d * mlev, rng)
                    w /= matcore.op_norm(w)
                    row = np.concatenate([amp, w], axis=1)
                    assert abs(matcore.op_norm(row) - SQRT2) <= bound + 1e-12
        if shift:
            assert max(bounds) > 0.05


#: Builders of the spaces whose cstar reports must not depend on the level budget.
LEVEL_FREE_CSTAR = {"full_matrix_2": lambda: corpus.build_full_matrix(2).space,
                    "twisted_selfadjoint": lambda: corpus.entry("twisted_selfadjoint").space}


@pytest.mark.parametrize("name", sorted(LEVEL_FREE_CSTAR))
def test_cstar_report_does_not_depend_on_the_level(name):
    # the residuals decide every level at once, so max_level moves only levels_checked and the config echo
    space = LEVEL_FREE_CSTAR[name]()
    reports = [criteria.check_cstar_among_systems(space, witness.SearchConfig(max_level=n)) for n in (1, 2, 3)]
    assert [r.levels_checked for r in reports] == [[1], [1, 2], [1, 2, 3]]
    first = reports[0]
    for rep in reports[1:]:
        assert (rep.verdict, rep.margin, rep.witness) == (first.verdict, first.margin, first.witness)


# ---------------------------------------------------------------------------
# report machinery


def test_report_round_trip(criterion_cache):
    rep = criterion_cache("linf3_e1", "unitary-four-rotation")
    d = rep.to_dict()
    again = criteria.CheckReport.from_dict(d)
    assert again.to_dict() == d


@pytest.mark.parametrize("name, crit", [("linf3_e1", "unitary-four-rotation"), ("full_matrix_2", "coisometry")])
def test_report_dict_holds_the_reports_own_fields(criterion_cache, name, crit):
    # to_dict and from_dict copy no field, and the JSON is what a one-level copy of every field gives
    rep = criterion_cache(name, crit)
    d = rep.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(rep) if f.name != "proof" or rep.proof is not None]
    assert all(d[key] is getattr(rep, key) for key in d)
    copied = {f.name: copy.copy(getattr(rep, f.name)) for f in dataclasses.fields(rep)}
    if rep.proof is None:
        del copied["proof"]
    assert json.dumps(d) == json.dumps(copied)
    again = criteria.CheckReport.from_dict(d)
    assert all(getattr(again, key) is d[key] for key in d)


def test_zero_restarts_inconclusive():
    # full_matrix_2 is proved without a search; its I + I/2 copy has no proof and must search
    space = corpus.build_full_matrix_plus_half(2).space
    cfg = witness.SearchConfig(restarts=0)
    rep = criteria.CRITERION_RUNNERS["unitary-four-rotation"](space, cfg=cfg)
    assert rep.verdict == criteria.INCONCLUSIVE
    assert rep.samples == 0


def test_dead_restarts_are_reported_not_called_zero_restarts(monkeypatch, m2_entry):
    space = m2_entry.space

    def all_nan(coeffs):
        return np.full(coeffs.shape[:-3], np.nan)

    def zero_gradient(coeffs):
        return np.zeros_like(coeffs)

    monkeypatch.setattr(criteria.SearchCriterion, "objective",
                        lambda self, space, u, level: (all_nan, zero_gradient))
    cfg = witness.SearchConfig(restarts=8, max_level=1)
    # four radius cells of two restarts each, every one dead at its start
    rep = criteria.SEARCH_CRITERIA["unitary-four-rotation"].search(space, space.unit, cfg)
    assert rep.verdict == criteria.INCONCLUSIVE
    assert rep.samples == 8
    assert rep.notes == ["8 of 8 restarts died on non-finite objective values"]
    assert all(v is None for cell in rep.trace for v in cell["restart_bests"])


def test_race_note_only_where_a_cell_held_a_violation(corpus_reports):
    note = re.compile(r"(\d+) of (\d+) restarts stopped early once their cell held a violation")
    raced = 0
    for name, reports in corpus_reports.items():
        for crit, rep in reports.items():
            found = [m for n in rep.notes if (m := note.fullmatch(n))]
            if rep.verdict != criteria.VIOLATED:
                assert not found, (name, crit)
            for m in found:
                started = sum(len(cell["restart_bests"]) for cell in rep.trace)
                assert 0 < int(m[1]) < int(m[2]) == started, (name, crit)
                raced += 1
    assert raced > 0


STOP_NOTES = re.compile(r"(\d+) of (\d+) restarts (?:stopped early once their cell held a violation"
                        r"|stopped once their cell could not beat the best found)")


def test_stop_notes_count_each_restart_at_most_once(corpus_reports):
    # a restart records the one rule that stopped it, so the race and cap counts share the restarts
    shared = 0  # reports whose restarts were stopped by more than one rule
    for name, reports in corpus_reports.items():
        for crit, rep in reports.items():
            if not rep.trace:
                continue
            started = sum(len(cell["restart_bests"]) for cell in rep.trace)
            counts = [int(m[1]) for n in rep.notes if (m := STOP_NOTES.fullmatch(n)) and int(m[2]) == started]
            assert len(counts) == sum(bool(STOP_NOTES.fullmatch(n)) for n in rep.notes), (name, crit)
            assert sum(counts) <= started, (name, crit)
            shared += len(counts) > 1
    assert shared > 0


def test_margin_sign_matches_verdict(corpus_reports, default_cfg):
    for name, reports in corpus_reports.items():
        for crit, rep in reports.items():
            if rep.verdict == criteria.VIOLATED:
                assert rep.margin < -1e-7, (name, crit)
            elif rep.verdict == criteria.HOLDS_WITHIN_BUDGET:
                assert rep.margin >= -default_cfg.tolerance, (name, crit)



def _norm_one_basis_0(space):
    return space.basis[0] / matcore.op_norm(space.basis[0])


#: The checks that measure the same deviation whatever the tolerance, each as (space, cfg) -> report.
BOUNDARY_CHECKS = {
    "positive": lambda sp, cfg: criteria.check_positive(sp, cfg=cfg),
    "adjoint z = x*": lambda sp, cfg: criteria.check_adjoint(_norm_one_basis_0(sp),
                                                             matcore.dagger(_norm_one_basis_0(sp)), cfg),
    "adjoint z = x": lambda sp, cfg: criteria.check_adjoint(_norm_one_basis_0(sp), _norm_one_basis_0(sp), cfg),
    "mult-closed": lambda sp, cfg: criteria.check_mult_closed(sp, cfg),
    **{f"multiplier-{side}": lambda sp, cfg, side=side: criteria.check_multiplier(sp, sp.basis[0], side, cfg)
       for side in ("left", "right", "quasi")},
    "cstar-among-systems": lambda sp, cfg: criteria.check_cstar_among_systems(sp, cfg),
    "left-multiplier-map T = 1": lambda sp, cfg: criteria.check_left_multiplier_map(sp, np.eye(sp.dim), cfg),
    "left-multiplier-map T = 2": lambda sp, cfg: criteria.check_left_multiplier_map(sp, 2 * np.eye(sp.dim), cfg),
}


def boundary_deviation(check, rep):
    """The deviation a report states apart from its margin (minus the margin where it states none)."""
    aux = (rep.witness or {}).get("aux", {})
    if check == "positive":
        return max(aux["gap"], aux["hermitian_residual"])
    if check == "cstar-among-systems":
        return max(aux["algebraic_max"], aux.get("unit_residual", aux["identity_residual"]))
    return aux.get("algebraic_max", aux.get("deviation", -rep.margin))


def float_bits(v) -> bytes:
    return np.float64(v).tobytes()


@pytest.mark.parametrize("name, check", [
    (name, check) for name in ("full_matrix_2", "non_algebra_span", "twisted_selfadjoint")
    for check in BOUNDARY_CHECKS
    # non_algebra_span has no distinguished element, which positive and cstar-among-systems test
    if not (name == "non_algebra_span" and check in ("positive", "cstar-among-systems"))])
def test_verdict_rule_at_the_tolerance_boundary(name, check):
    # a deviation equal to the tolerance holds; one ulp past it is VIOLATED (INCONCLUSIVE for cstar);
    # and the margin is 0.0 - deviation bit for bit, never -0.0, whatever the tolerance
    space, run = corpus.entry(name).space, BOUNDARY_CHECKS[check]
    past = criteria.INCONCLUSIVE if check == "cstar-among-systems" else criteria.VIOLATED
    deviation = boundary_deviation(check, run(space, witness.SearchConfig()))
    cases = {witness.SearchConfig().tolerance: None}
    if deviation > 0:
        cases[deviation] = criteria.HOLDS_WITHIN_BUDGET
        if (below := float(np.nextafter(deviation, 0.0))) > 0:
            cases[below] = past
    for tolerance, verdict in cases.items():
        rep = run(space, witness.SearchConfig(tolerance=tolerance))
        assert rep.verdict == (verdict or (past if deviation > tolerance else criteria.HOLDS_WITHIN_BUDGET))
        assert float_bits(rep.margin) == float_bits(0.0 - deviation)
        assert float_bits(rep.margin) != float_bits(-0.0)
        assert float_bits(boundary_deviation(check, rep)) == float_bits(deviation)


CAP_NOTE = re.compile(r"(\d+) of (\d+) restarts stopped once their cell could not beat the best found")

#: The VIOLATED corpus rows of the sphere rows; each reaches the sphere cap sqrt(2) - 1.
SPHERE_VIOLATED = [("linf3_e1", "coisometry"), ("linf3_e1", "isometry"), ("column_H2", "coisometry"),
                   ("left_identity_pair", "isometry")]


def cap_notes(name, crit, rep):
    """The counts of ``rep``'s cap note, each checked against the restarts its trace started."""
    found = [m for n in rep.notes if (m := CAP_NOTE.fullmatch(n))]
    for m in found:
        started = sum(len(cell["restart_bests"]) for cell in rep.trace)
        assert 0 < int(m[1]) <= int(m[2]) == started, (name, crit)
    return found


def test_cap_note_only_on_ball_rows_that_held_a_violation(corpus_entries, corpus_reports):
    capped = set()
    for name, reports in corpus_reports.items():
        for crit, rep in reports.items():
            found = cap_notes(name, crit, rep)
            if rep.verdict != criteria.VIOLATED or crit not in CAPPED_ROWS:
                assert not found, (name, crit)
            if found:
                capped.add((name, crit))
    # the linf3_e1 ball rows reach the radius-1 cap sqrt(2) - 1 exactly, and so do the sphere rows
    assert {("linf3_e1", "unitary-four-rotation"), ("linf3_e1", "unitary-t-gadget"),
            ("linf3_e1", "operator-system")} | set(SPHERE_VIOLATED) <= capped
    for seed in (7, 4242):
        for name, crit in SPHERE_VIOLATED:
            entry = corpus_entries[name]
            rep = criteria.SEARCH_CRITERIA[crit].check(entry.space, cfg=witness.SearchConfig(seed=seed))
            assert rep.verdict == criteria.VIOLATED and cap_notes(name, crit, rep), (seed, name, crit)


@pytest.mark.parametrize("seed", [7, 1729, 4242])
@pytest.mark.parametrize("name, crit", [("linf3_e1", "unitary-four-rotation"), ("linf3_e1", "unitary-t-gadget"),
                                        ("linf3_e1", "operator-system"), *SPHERE_VIOLATED])
def test_witness_at_its_cap_skips_only_the_polish(monkeypatch, corpus_entries, name, crit, seed):
    entry = corpus_entries[name]
    cfg = witness.SearchConfig(seed=seed)
    capped = criteria.SEARCH_CRITERIA[crit].check(entry.space, cfg=cfg)
    real, polishes = witness.refine_witness, []

    def uncapped(*args, cap=None, **kwargs):
        res = real(*args, **kwargs)
        polishes.append(res.evaluations)
        return res

    monkeypatch.setattr(witness, "refine_witness", uncapped)
    full = criteria.SEARCH_CRITERIA[crit].check(entry.space, cfg=cfg)
    a, b = capped.to_dict(), full.to_dict()
    assert capped.verdict == criteria.VIOLATED and len(polishes) == 1 and polishes[0] > 1
    # the skipped polish took its start evaluation alone
    assert b.pop("samples") - a.pop("samples") == polishes[0] - 1
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ---------------------------------------------------------------------------
# caps of the searched rows, on the balls and on the sphere


CAPPED_ROWS = sorted(name for name, spec in criteria.SEARCH_CRITERIA.items() if spec.cap is not None)

#: The (entry, row) pairs whose probes attain their caps: the unitary caps of linf3_e1 at radius times -e3,
#: its skew cap sqrt(1 + r^2) - 1 at radius times e2, and the sphere cap sqrt(2) - 1 of the VIOLATED sphere rows
#: at a basis element.
ATTAINED = {("linf3_e1", "unitary-four-rotation"), ("linf3_e1", "unitary-t-gadget"), ("linf3_e1", "operator-system"),
            *SPHERE_VIOLATED}


def cap_cases():
    """(space name, row, unit) for every corpus row with a cap, l1_2_diag_trace with a unit of norm 0.9,
    and the VIOLATED sphere rows with their units scaled to 0.9."""
    entries = {e.name: e for e in corpus.build_corpus()}
    cases = [(e.name, crit, None) for e in entries.values() for crit in e.expected
             if crit in CAPPED_ROWS and not (criteria.SEARCH_CRITERIA[crit].unsupported
                                             and e.space.norm_mode == spaces.LEVEL1_ORACLE)]
    return cases + [("l1_2_diag_trace", "unitary-four-rotation", (0.9, 0.0))] + [
        (name, crit, tuple(0.9 * entries[name].space.unit)) for name, crit in SPHERE_VIOLATED]


def cap_probes(space, level, radius, rng, sphere=False):
    """Points of the ball of ``radius``: random ones inside it (unless ``sphere``) and on its surface, and i^k times
    each basis element, at ``radius``."""
    inside = spaces.scale_to_norms(space, spaces.random_stack(space, level, rng, 8),
                                   radius * np.exp(rng.uniform(np.log(1e-3), 0.0, size=8)))
    surface = spaces.scale_to_norms(space, spaces.random_stack(space, level, rng, 8), radius)
    units = np.zeros((4 * space.dim, level, level, space.dim), dtype=np.complex128)
    for l in range(space.dim):
        units[4 * l:4 * l + 4, 0, 0, l] = 1j ** np.arange(4)
    return np.concatenate([inside[:0] if sphere else inside, surface, spaces.scale_to_norms(space, units, radius)])


def test_every_searched_row_has_a_cap():
    assert CAPPED_ROWS == sorted(criteria.SEARCH_CRITERIA) == [
        "coisometry", "isometry", "operator-system", "unitary-four-rotation", "unitary-t-gadget"]
    # on the unit sphere the sphere cap is sqrt(2) - 1 for every contraction, whatever its blocks
    for crit in ("coisometry", "isometry"):
        for nu in (1.0, 0.9, 0.5, 0.0):
            for delta in (0.0, 0.5, math.inf):
                assert criteria.SEARCH_CRITERIA[crit].cap(1.0, nu, delta) == math.sqrt(2) - 1


@pytest.mark.parametrize("entry_name, crit, u", cap_cases())
def test_no_cap_is_exceeded_on_its_ball(entry_name, crit, u):
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    spec = criteria.SEARCH_CRITERIA[crit]
    u = space.unit if u is None else np.array(u, dtype=np.complex128)
    profile = criteria._unit_profile(space, u)
    rng = np.random.default_rng(list(f"{entry_name}/{crit}/{u}".encode()))
    levels = [1] if space.norm_mode == spaces.LEVEL1_ORACLE else [1, 2]
    for level in levels:
        for radius in (1.0,) if spec.sphere else criteria.RADIUS_SWEEP:
            cap = spec.cap(radius, *profile)
            guard = witness._CAP_ULPS * np.finfo(float).eps * max(abs(cap), 1.0)
            values = [spec.value_at(space, u, spaces.LevelElement(level, coeffs))
                      for coeffs in cap_probes(space, level, radius, rng, spec.sphere)]
            assert max(values) <= cap + guard, (level, radius, max(values), cap)
            if (entry_name, crit) in ATTAINED:
                assert max(values) >= cap - 1e-12, (level, radius, max(values), cap)
                if spec.sphere:
                    assert cap == math.sqrt(2) - 1


def ragged_space():
    """C (+) M_2 inside M_3, conjugated by a Haar unitary: a 1 x 1 block, zero-padded to 2 x 2, and a 2 x 2 block."""
    U = haar_unitary(3, 43)
    basis = np.zeros((5, 3, 3), dtype=np.complex128)
    for l, (i, j) in enumerate([(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]):
        basis[l, i, j] = 1.0
    return spaces.make_space(U @ basis @ U.conj().T)


SKEW_SPACES = {"full_matrix_2": lambda: corpus.build_full_matrix(2).space,
               "full_matrix_3": lambda: corpus.build_full_matrix(3).space, "ragged": ragged_space}


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("kind", ["hermitian", "nearly-hermitian", "general"])
@pytest.mark.parametrize("space_name", sorted(SKEW_SPACES))
def test_skew_gadget_norm_obeys_the_unit_profile(space_name, kind, level):
    # ||r_x||^2 <= nu^2 + t^2 + 2 delta t and ||r_x|| >= max(nu, t), t = ||x||, for the profile (nu, delta) of v
    space = SKEW_SPACES[space_name]()
    if space_name == "ragged":
        assert space.blocks.shape == (5, 2, 2, 2)
    rng = np.random.default_rng(list(f"{space_name}/{kind}/{level}".encode()))
    guard = 16 * np.finfo(float).eps
    for _ in range(10):
        m = spaces.realize_stack(space, spaces.random_stack(space, 1, rng, 1))[0]
        h, a = (m + matcore.dagger(m)) / 2, (m - matcore.dagger(m)) / 2
        u = spaces.coefficients_of(space, {"hermitian": h, "nearly-hermitian": h + 1e-6 * a, "general": m}[kind])
        u *= rng.uniform(0.1, 1.0) / spaces.norm(space, spaces.LevelElement(1, u.reshape(1, 1, -1)))
        nu, delta = criteria._unit_profile(space, u)
        coeffs = spaces.scale_to_norms(space, spaces.random_stack(space, level, rng, 20), rng.uniform(0.0, 2.0, 20))
        vgrid = np.zeros((level, level, space.dim), dtype=np.complex128)
        vgrid[range(level), range(level)] = u
        gadget = gadgets.r_stack(spaces.realize_fibers_stack(space, vgrid), spaces.realize_fibers_stack(space, coeffs))
        norms, t = spaces.block_norms(space, gadget), spaces.norm_stack(space, coeffs)
        assert np.all(norms**2 <= (nu**2 + t**2 + 2 * delta * t) * (1 + guard)), (nu, delta)
        assert np.all(norms >= np.maximum(nu, t) * (1 - guard)), (nu, delta)


@pytest.mark.parametrize("conjugate", [False, True])
def test_operator_system_stops_at_its_cap_on_a_commutative_unit(conjugate):
    # the blocks of linf3_e1's unit are the real scalars 1, 0, 0 (delta 0, up to rounding on a Haar conjugate), so
    # the skew cap sqrt(1 + r^2) - 1 is attained at r e2, and the radius-1 cell stops there with the margin that a
    # search without caps finds
    entry = corpus.entry("linf3_e1")
    space = entry.space
    if conjugate:
        U = haar_unitary(3, 5)
        space = spaces.make_space(U @ space.basis @ U.conj().T, unit=space.unit, involution=space.involution)
    nu, delta = criteria._unit_profile(space, space.unit)
    assert abs(nu - 1.0) <= 1e-15 and 0.0 <= delta <= 1e-15
    cfg = witness.SearchConfig(seed=1729)
    spec = criteria.SEARCH_CRITERIA["operator-system"]
    capped = spec.check(space, cfg=cfg)
    plain = dataclasses.replace(spec, cap=None).check(space, cfg=cfg)
    assert capped.verdict == plain.verdict == criteria.VIOLATED
    assert capped.margin == plain.margin
    assert witness._at_cap(-capped.margin, spec.cap(1.0, nu, delta))
    assert capped.trace[0]["radius"] == 1.0 and capped.trace[0]["evaluations"] < plain.trace[0]["evaluations"]
    assert capped.samples < plain.samples
