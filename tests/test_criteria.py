import math

import numpy as np
import pytest

from opspace import corpus, criteria, gadgets, matcore, spaces, witness
from opspace.errors import InvalidInputError

from conftest import oracle_space_with_involution, random_element

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
    rep = criteria.check_unitary_t_gadget(space)
    assert rep.verdict == criteria.UNSUPPORTED_LEVEL
    assert rep.levels_checked == []


def test_unit_preconditions(m2_entry):
    space = corpus.build_non_algebra_span().space  # no distinguished element
    with pytest.raises(InvalidInputError):
        criteria.check_unitary_four_rotation(space)
    with pytest.raises(InvalidInputError):
        criteria.check_unitary_four_rotation(m2_entry.space, u=2 * m2_entry.space.unit)


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
    space = corpus.build_column_H2().space
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
    space = corpus.build_twisted_selfadjoint().space
    e22 = spaces.LevelElement(1, np.array([[[0.0, 1.0]]], dtype=complex))
    assert criteria.r_gadget_deviation_at(space, None, e22) == pytest.approx(
        golden - SQRT2, abs=1e-12
    )
    assert -rep.margin >= golden - SQRT2 - 1e-6


def test_operator_system_scalars_hold():
    space = spaces.make_space(np.eye(2).reshape(1, 2, 2), unit=np.array([1.0]),
                              involution=np.eye(1))
    rep = criteria.check_operator_system(space, cfg=witness.SearchConfig(restarts=16))
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET


def test_operator_system_preconditions(m2_entry):
    no_inv = corpus.build_column_H2().space
    with pytest.raises(InvalidInputError):
        criteria.check_operator_system(no_inv)
    # on a level-1 oracle space the missing involution is reported before UNSUPPORTED_LEVEL
    with pytest.raises(InvalidInputError, match="requires an involution"):
        criteria.check_operator_system(corpus.build_trace_class_2().space)
    space = m2_entry.space
    not_selfadjoint = np.array([0, 1.0, 0, 0])  # E_12
    with pytest.raises(InvalidInputError, match="selfadjoint"):
        criteria.check_operator_system(space, v=not_selfadjoint)


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
        criteria.check_operator_system(oracle_space_with_involution(), v=v)


# ---------------------------------------------------------------------------
# positivity and adjoints


def test_positive_examples(m2_entry):
    space = m2_entry.space
    assert criteria.check_positive(space, np.diag([0.5, 0.25])).verdict == criteria.HOLDS_WITHIN_BUDGET
    rep = criteria.check_positive(space, np.zeros((2, 2)))
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    assert rep.margin == pytest.approx(0.0, abs=1e-12)
    rep = criteria.check_positive(space, -0.5 * np.eye(2))
    assert rep.verdict == criteria.VIOLATED
    z = complex(*rep.witness["aux"]["z"])
    assert abs(z - 2.0) <= 1e-6
    assert rep.margin == pytest.approx(-1.0, abs=1e-9)
    # the stored circle point reproduces the margin from scratch
    recomputed = matcore.op_norm(np.eye(2) - z * (-0.5 * np.eye(2))) - 1.0
    assert recomputed == pytest.approx(-rep.margin, abs=1e-9)


def test_positive_requires_contraction(m2_entry):
    with pytest.raises(InvalidInputError):
        criteria.check_positive(m2_entry.space, 2.0 * np.eye(2))


def test_adjoint_examples():
    assert criteria.check_adjoint(E12, E21).verdict == criteria.HOLDS_WITHIN_BUDGET
    rep = criteria.check_adjoint(E12, -E21)
    assert rep.verdict == criteria.VIOLATED
    # the deviation |t| + 1 - sqrt(1 + t^2) grows toward the grid edge
    assert -rep.margin >= 4.0 + 1.0 - math.sqrt(17.0) - 1e-6
    t_star = rep.witness["aux"]["t"]
    recomputed = matcore.op_norm(gadgets.build_adjoint_block(E12, -E21, t_star)) - math.sqrt(
        1 + t_star**2
    )
    assert recomputed == pytest.approx(-rep.margin, abs=1e-9)
    z = np.zeros((2, 2))
    assert criteria.check_adjoint(z, z).verdict == criteria.HOLDS_WITHIN_BUDGET


def test_positive_and_adjoint_name_no_arg_max_when_they_hold(m2_entry):
    # below the tolerance the arg-max is a plateau or rounding noise: only the maximum is reported
    for x in (np.diag([0.5, 0.25]), np.zeros((2, 2)), np.eye(2)):
        rep = criteria.check_positive(m2_entry.space, x)
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
        assert set(rep.witness["aux"]) == {"max_norm"}
        assert rep.witness["aux"]["max_norm"] == pytest.approx(1.0 - rep.margin, abs=1e-15)
    for x, z in ((E12, E21), (np.zeros((2, 2)), np.zeros((2, 2)))):
        rep = criteria.check_adjoint(x, z)
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
        assert rep.witness["aux"] == {"deviation": -rep.margin}


# ---------------------------------------------------------------------------
# multiplicative structure


def test_mult_closed_verdicts(criterion_cache):
    assert criterion_cache("upper_triangular_2", "mult-closed").verdict == criteria.HOLDS_WITHIN_BUDGET
    assert criterion_cache("full_matrix_2", "mult-closed").verdict == criteria.HOLDS_WITHIN_BUDGET
    rep = criterion_cache("non_algebra_span", "mult-closed")
    assert rep.verdict == criteria.VIOLATED
    assert rep.margin == pytest.approx(-1.0, abs=1e-9)
    aux = rep.witness["aux"]
    assert aux["paths_agree"]
    # expected witness pair: x = E_12, y = E_12 (equal to dagger of basis E_21)
    x = spaces.realize(corpus.build_non_algebra_span().space,
                       criteria.CheckReport.from_dict(rep.to_dict()).witness_element())
    assert np.allclose(x, E12) or np.allclose(x, E21)


def test_mult_closed_witness_recomputes(criterion_cache):
    rep = criterion_cache("non_algebra_span", "mult-closed")
    space = corpus.build_non_algebra_span().space
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
    span = corpus.build_non_algebra_span().space
    rep = criteria.check_multiplier(span, np.eye(2), "quasi")
    assert rep.verdict == criteria.VIOLATED
    assert rep.margin == pytest.approx(-1.0, abs=1e-9)
    for side in ("left", "right", "quasi"):
        rep = criteria.check_multiplier(span, np.zeros((2, 2)), side)
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    with pytest.raises(InvalidInputError):
        criteria.check_multiplier(span, np.eye(2), "sideways")


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
    tensor = corpus.multiplication_tensor(entry.space)
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


def test_cstar_names_the_worst_sample_only_when_violated():
    # on HOLDS the largest |row norm - sqrt(2)| is rounding noise: its location is not reported
    space = corpus.build_full_matrix(2).space
    rep = criteria.check_cstar_among_systems(space, n_pairs=4, n_contractions=4)
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    assert rep.witness["aux"] == {"deviation": -rep.margin, "construction_residual": 0.0}
    # a tolerance below that noise turns it into a violation, which names where it is
    cfg = witness.SearchConfig(tolerance=1e-300)
    rep = criteria.check_cstar_among_systems(space, cfg, n_pairs=4, n_contractions=4)
    assert rep.verdict == criteria.VIOLATED
    aux = rep.witness["aux"]
    assert set(aux) == {"pair", "sign", "amplification", "deviation", "construction_residual"}
    assert aux["deviation"] == -rep.margin and aux["sign"] in ("+", "-") and aux["amplification"] in (1, 2)


def test_cstar_zero_pair_is_exact():
    z = np.zeros((2, 2), dtype=complex)
    m = gadgets.build_M_pm(z, z, z, z, "+")
    w = matcore.rand_cmat(4, 4, matcore.stream(63, 0))  # a contraction in M_2(A), A = M_2
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
    rep = criteria.check_cstar_among_systems(space, n_pairs=4, n_contractions=4)
    assert rep.verdict == criteria.INCONCLUSIVE
    assert any("leave the space" in n for n in rep.notes)


def test_cstar_detects_perturbed_product():
    rng = matcore.stream(63, 1)
    x = matcore.rand_cmat(2, 2, rng)
    x /= max(1.0, matcore.op_norm(x))
    y = matcore.rand_cmat(2, 2, rng)
    y /= max(1.0, matcore.op_norm(y))
    z = -x @ matcore.dagger(y) + 0.3 * np.eye(2)
    b = gadgets.proof_b(x, y, -x @ matcore.dagger(y))
    worst = 0.0
    for sign in ("+", "-"):
        m = gadgets.build_M_pm(x, y, z, b, sign)
        for mlev in (1, 2):
            amp = matcore.scalar_amplify(m, mlev)
            for t in range(16):
                w = matcore.rand_cmat(4 * mlev, 4 * mlev, matcore.stream(63, 2, mlev, t))
                w /= matcore.op_norm(w)
                row = np.concatenate([amp, w], axis=1)
                worst = max(worst, abs(matcore.op_norm(row) - SQRT2))
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# report machinery


def test_report_round_trip(criterion_cache):
    rep = criterion_cache("linf3_e1", "unitary-four-rotation")
    d = rep.to_dict()
    again = criteria.CheckReport.from_dict(d)
    assert again.to_dict() == d


def test_zero_restarts_inconclusive():
    # full_matrix_2 is proved without a search; its I + I/2 copy has no proof and must search
    space = corpus.build_full_matrix_plus_half(2).space
    cfg = witness.SearchConfig(restarts=0)
    rep = criteria.check_unitary_four_rotation(space, cfg=cfg)
    assert rep.verdict == criteria.INCONCLUSIVE
    assert rep.samples == 0


def test_dead_restarts_are_reported_not_called_zero_restarts(m2_entry):
    space = m2_entry.space

    def all_nan(coeffs):
        return np.full(coeffs.shape[:-3], np.nan)

    def zero_gradient(coeffs):
        return np.zeros_like(coeffs)

    cfg = witness.SearchConfig(restarts=8, max_level=1)
    rep = criteria._searched_check("all-nan", 99, space, cfg, lambda n: (all_nan, zero_gradient),
                                   [1], [0.5, 1.0])
    assert rep.verdict == criteria.INCONCLUSIVE
    assert rep.samples == 8
    assert rep.notes == ["8 of 8 restarts died on non-finite objective values"]
    assert all(v is None for cell in rep.trace for v in cell["restart_bests"])


def test_margin_sign_matches_verdict(corpus_reports, default_cfg):
    for name, reports in corpus_reports.items():
        for crit, rep in reports.items():
            if rep.verdict == criteria.VIOLATED:
                assert rep.margin < -1e-7, (name, crit)
            elif rep.verdict == criteria.HOLDS_WITHIN_BUDGET:
                assert rep.margin >= -default_cfg.tolerance, (name, crit)
