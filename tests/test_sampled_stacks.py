"""The sampled checks evaluate their trials as stacks; each must report what one trial at a time reports.

The references below take every trial, filler and membership residual one
matrix at a time: each trial makes its own draws, in turn, from its group's
stream, every norm is a single-matrix ``matcore.op_norm`` and every pick is
a strict ``>`` scan.  The stacked code must reproduce their reports byte for
byte, at two seeds.
"""

import json
import math

import numpy as np
import pytest

from opspace import corpus, criteria, formulas, gadgets, matcore, spaces, witness
from opspace.errors import InvalidInputError
from opspace.formulas import SuiteResult, t_norm_closed_form

SEEDS = (7, 1729)


def as_json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# one trial at a time


def ref_random_element(space, level, rng, target_norm=None):
    k = space.dim
    z = rng.normal(size=(level, level, k)) + 1j * rng.normal(size=(level, level, k))
    elem = spaces.LevelElement(level, z / np.sqrt(2.0))
    if target_norm is not None:
        nx = spaces.norm(space, elem)
        if nx > 0:
            elem = spaces.LevelElement(level, elem.coeffs * (target_norm / nx))
    return elem


def ref_membership_residual(space, m):
    a = matcore.as_cmat(m)
    c = a.reshape(-1) @ space._pinv
    proj = (c @ space._flat).reshape(space.p, space.q)
    return matcore.op_norm(a - proj)


def ref_pair_suite(name, tag, trials, seed, lhs_of, rhs_of):
    worst = 0.0
    rng = matcore.stream(seed, tag)
    for t in range(trials):
        a = matcore.rand_cmat(3, 3, rng)
        b = matcore.rand_cmat(3, 3, rng)
        worst = max(worst, abs(lhs_of(a, b) - rhs_of(a, b)))
    return SuiteResult(name, trials, worst, 1e-9)


def ref_gadget_suite(name, tag, test_spaces, trials, seed, deviation):
    worst = 0.0
    count = 0
    for si, space in enumerate(test_spaces):
        for level in (1, 2):
            rng = matcore.stream(seed, tag, si, level)
            for t in range(trials):
                x = ref_random_element(space, level, rng)
                worst = max(worst, deviation(space, x))
                count += 1
    return SuiteResult(name, count, worst, 1e-8)


def ref_run_all_suites(trials, seed, gadget_trials, bug=False):
    op = matcore.op_norm
    unital = [corpus.build_full_matrix(2).space, corpus.build_full_matrix(3).space,
              corpus.build_upper_triangular(2).space]
    selfadjoint = unital[:2]
    return [
        ref_pair_suite("sum-diff block identity", 21, trials, seed,
                       lambda a, b: op(matcore.block([[a, b], [b, a]])),
                       lambda a, b: max(op(a + b), op(a + b if bug else a - b))),
        ref_pair_suite("rotation block identity", 22, trials, seed,
                       lambda a, b: op(matcore.block([[a, -b], [b, a]])),
                       lambda a, b: max(op(a + 1j * b), op(a - 1j * b))),
        ref_gadget_suite("doubling gadget closed form", 23, unital, gadget_trials, seed,
                         lambda sp, x: abs(op(gadgets.build_t(sp, sp.unit, x)) ** 2
                                           - float(t_norm_closed_form(spaces.norm(sp, x))))),
        ref_gadget_suite("symmetric gadget norm", 24, selfadjoint, gadget_trials, seed,
                         lambda sp, x: abs(op(gadgets.build_s(sp, sp.unit, x)) - (1.0 + spaces.norm(sp, x)))),
        ref_gadget_suite("skew gadget norm", 25, selfadjoint, gadget_trials, seed,
                         lambda sp, x: abs(op(gadgets.build_r(sp, sp.unit, x))
                                           - np.sqrt(1.0 + spaces.norm(sp, x) ** 2))),
    ]


def ref_unit_fillers(rng, count, d):
    bs = []
    for _ in range(count):
        b = matcore.rand_cmat(d, d, rng)
        nb = matcore.op_norm(b)
        bs.append(b / nb if nb > 0 else b)
    return bs


def ref_metric_closure_deviation(space, x_mat, y_mat, cfg, rng):
    prod = x_mat @ matcore.dagger(y_mat)
    c = spaces.coefficients_of(space, prod)
    z_mat = -np.tensordot(c, space.basis, axes=(0, 0))
    bs = [gadgets.proof_b(x_mat, np.zeros_like(x_mat), z_mat)] + ref_unit_fillers(rng, cfg.b_samples, x_mat.shape[0])
    devs = criteria._mult_row_deviations(x_mat, z_mat, y_mat, np.stack(bs))
    return float(np.max(np.abs(devs))), z_mat


def ref_random_stack(space, level, rng, count, target_norm=None):
    return np.stack([ref_random_element(space, level, rng, target_norm).coeffs for _ in range(count)])


def ref_residual_stack(space, ms):
    ms = np.asarray(ms)
    flat = [ref_membership_residual(space, m) for m in ms.reshape((-1,) + ms.shape[-2:])]
    return np.array(flat).reshape(ms.shape[:-2])


def first_max(values: dict):
    """The key of the largest value, the first one on ties: the strict ``>`` scan."""
    best, best_key = -np.inf, None
    for key, v in values.items():
        if v > best:
            best, best_key = v, key
    return best, best_key


# ---------------------------------------------------------------------------
# spaces


def operator_system(basis, unit, involution):
    return spaces.make_space(np.asarray(basis, dtype=complex), unit=unit, involution=involution)


def tridiagonal_3():
    """span{E_ii, E_{i,i+1}, E_{i+1,i}} in M_3 with unit I: an operator system that is no algebra."""
    cells = [(i, j) for i in range(3) for j in range(3) if abs(i - j) <= 1]
    basis = np.zeros((len(cells), 3, 3))
    for s, (i, j) in enumerate(cells):
        basis[s, i, j] = 1.0
    involution = np.zeros((len(cells), len(cells)))
    for s, (i, j) in enumerate(cells):
        involution[cells.index((j, i)), s] = 1.0
    unit = [1.0 if i == j else 0.0 for i, j in cells]
    return operator_system(basis, unit, involution)


def non_algebra_system():
    """span{E_12, E_21} with u = E_12 + E_21 and the swap as involution."""
    nas = corpus.build_non_algebra_span().space
    return operator_system(nas.basis, [1.0, 1.0], [[0, 1], [1, 0]])


SPACES = {
    "full_matrix_2": lambda: corpus.build_full_matrix(2).space,
    "full_matrix_3": lambda: corpus.build_full_matrix(3).space,
    "upper_triangular_3": lambda: corpus.build_upper_triangular(3).space,
    "non_algebra_span": lambda: corpus.build_non_algebra_span().space,
    "non_algebra_system": non_algebra_system,
    "tridiagonal_3": tridiagonal_3,
    "linf3": lambda: corpus.build_linf(3, "ones").space,
}


# ---------------------------------------------------------------------------
# formulas


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials, gadget_trials", [(1, 1), (1, 5), (40, 12)])
def test_suites_match_one_trial_at_a_time(seed, trials, gadget_trials):
    got = formulas.run_all_suites(trials=trials, seed=seed, gadget_trials=gadget_trials)
    want = ref_run_all_suites(trials, seed, gadget_trials)
    assert as_json([s.to_dict() for s in got]) == as_json([s.to_dict() for s in want])
    assert all(s.passed for s in got)


def test_injected_bug_matches_one_trial_at_a_time(monkeypatch):
    monkeypatch.setenv(formulas.BUG_ENV_VAR, "1")
    got = formulas.run_all_suites(trials=30, seed=7, gadget_trials=2)
    want = ref_run_all_suites(30, 7, 2, bug=True)
    assert as_json([s.to_dict() for s in got]) == as_json([s.to_dict() for s in want])
    assert not got[0].passed


def test_suite_draws_do_not_depend_on_the_trial_count():
    a5, b5 = formulas._pair_stacks(5, 7, 21)
    a40, b40 = formulas._pair_stacks(40, 7, 21)
    assert a5.tobytes() == a40[:5].tobytes() and b5.tobytes() == b40[:5].tobytes()
    space = corpus.build_full_matrix(3).space
    few = spaces.random_stack(space, 2, matcore.stream(7, 24, 1, 2), 5)
    many = spaces.random_stack(space, 2, matcore.stream(7, 24, 1, 2), 40)
    assert few.tobytes() == many[:5].tobytes()


@pytest.mark.parametrize("name, value", [("trials", 0), ("trials", -3), ("gadget_trials", 0),
                                         ("trials", 2.0), ("gadget_trials", True)])
def test_suites_refuse_non_positive_trial_counts(name, value):
    with pytest.raises(InvalidInputError, match=f"{name} must be a positive integer"):
        formulas.run_all_suites(**{name: value})


# ---------------------------------------------------------------------------
# criteria


def stacked_and_reference(run, monkeypatch):
    """(stacked report, one-at-a-time report) of ``run()``, as JSON."""
    stacked = as_json(run().to_dict())
    with monkeypatch.context() as m:
        m.setattr(criteria, "_metric_closure_deviation", ref_metric_closure_deviation)
        m.setattr(spaces, "random_stack", ref_random_stack)
        m.setattr(spaces, "membership_residual_stack", ref_residual_stack)
        reference = as_json(run().to_dict())
    return stacked, reference


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["full_matrix_2", "upper_triangular_3", "non_algebra_span"])
def test_mult_closed_matches_one_trial_at_a_time(monkeypatch, seed, name):
    space = SPACES[name]()
    cfg = witness.SearchConfig(seed=seed)
    stacked, reference = stacked_and_reference(lambda: criteria.check_mult_closed(space, cfg), monkeypatch)
    assert stacked == reference

    k = space.dim
    residuals = {(i, j): ref_membership_residual(space, space.basis[i] @ space.basis[j])
                 for i in range(k) for j in range(k)}
    alg_max, (i, j) = first_max(residuals)
    report = json.loads(stacked)
    aux = report["witness"]["aux"]
    assert aux["algebraic_max"] == alg_max
    if aux.get("path") == "algebraic":
        assert (aux["x_basis"], aux["y_basis"]) == (i, j)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("side", ["left", "right", "quasi"])
@pytest.mark.parametrize("name, w", [("full_matrix_3", 1), ("upper_triangular_3", 1),
                                     ("non_algebra_span", 0)])
def test_multiplier_matches_one_trial_at_a_time(monkeypatch, seed, side, name, w):
    space = SPACES[name]()
    wm = space.basis[w]
    cfg = witness.SearchConfig(seed=seed)
    stacked, reference = stacked_and_reference(
        lambda: criteria.check_multiplier(space, wm, side, cfg), monkeypatch)
    assert stacked == reference

    k = space.dim
    if side == "left":
        products = {(i,): wm @ space.basis[i] for i in range(k)}
    elif side == "right":
        products = {(i,): space.basis[i] @ wm for i in range(k)}
    else:
        products = {(i, j): space.basis[i] @ wm @ space.basis[j] for i in range(k) for j in range(k)}
    alg_max, idx = first_max({key: ref_membership_residual(space, m) for key, m in products.items()})
    report = json.loads(stacked)
    assert report["witness"]["aux"]["algebraic_max"] == alg_max
    if report["verdict"] == criteria.VIOLATED:
        assert report["witness"]["aux"]["basis_index"] == list(idx)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["full_matrix_2", "full_matrix_3", "non_algebra_system", "tridiagonal_3",
                                  "linf3"])
def test_cstar_matches_one_trial_at_a_time(monkeypatch, seed, name):
    space = SPACES[name]()
    cfg = witness.SearchConfig(seed=seed)
    stacked, reference = stacked_and_reference(
        lambda: criteria.check_cstar_among_systems(space, cfg, n_pairs=6), monkeypatch)
    assert stacked == reference


@pytest.mark.parametrize("name", ["upper_triangular_3", "non_algebra_span"])
def test_cstar_refuses_spaces_without_involution_or_unit(name):
    with pytest.raises(InvalidInputError, match="requires an involution"):
        criteria.check_cstar_among_systems(SPACES[name]())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fillers_are_successive_normalized_draws(d):
    # the reference normalizes by single-matrix op_norm, the closed forms on M_2 as in the stack
    got = criteria._unit_fillers(matcore.stream(3, d), 64, d)
    want = np.stack(ref_unit_fillers(matcore.stream(3, d), 64, d))
    assert got.tobytes() == want.tobytes()


def test_stacked_draws_are_successive_single_draws():
    space = corpus.build_full_matrix(2).space
    for target in (None, 1.0, 0.3):
        stacked = spaces.random_stack(space, 2, matcore.stream(5, 1), 6, target_norm=target)
        rng = matcore.stream(5, 1)
        single = np.stack([ref_random_element(space, 2, rng, target).coeffs for _ in range(6)])
        assert stacked.tobytes() == single.tobytes()
        if target is not None:
            assert np.allclose(spaces.norm_stack(space, stacked), target, rtol=1e-12)


def test_stacked_residuals_are_single_matrix_residuals():
    space = corpus.build_upper_triangular(3).space
    rng = matcore.stream(11, 2)
    ms = (rng.normal(size=(4, 5, 3, 3)) + 1j * rng.normal(size=(4, 5, 3, 3))) / math.sqrt(2.0)
    got = spaces.membership_residual_stack(space, ms)
    assert got.shape == (4, 5)
    assert got.tobytes() == ref_residual_stack(space, ms).tobytes()
    assert spaces.membership_residual_stack(space, space.basis).max() < 1e-12
