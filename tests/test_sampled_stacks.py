"""The sampled checks evaluate their trials as stacks; each must report what one trial at a time reports.

The references below take every trial and membership residual one matrix at
a time: each trial makes its own draws, in turn, from its group's stream,
every norm is a single-matrix ``matcore.op_norm``, every basis product is
measured alone and every pick is a strict ``>`` scan.  The stacked code must
reproduce their reports byte for byte, at two seeds.  The Gram identity
||[A, B]||^2 = ||A A* + B B*|| behind the exactness of the C*-check's rows is
checked against the explicit rows' ``op_norm`` to 1e-13 relative on every
tested space.  The left-multiplier columns [T(a); b], measured through the
space's blocks, match the dense columns bit for bit on one-block spaces and
to 1e-13 relative on spaces of 2, 3 and 64 blocks.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from opspace import corpus, criteria, formulas, gadgets, matcore, spaces, witness
from opspace.errors import InvalidInputError, NumericalError
from opspace.formulas import SuiteResult, t_norm_closed_form

from conftest import (apply_involution, block, build_M_pm, gadget_operands, non_algebra_system, proof_b, psd_sqrt,
                      rand_cmat, tridiagonal_3)

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
        a = rand_cmat(3, 3, rng)
        b = rand_cmat(3, 3, rng)
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


def ref_gadget_norm(space, x, lower_left, corner=1.0):
    """||[[u_n, corner x], [y, u_n]]|| for one element x, y = 0, x* or -x* by ``lower_left``.

    The blocks are assembled with ``conftest.block``.
    """
    un, xm = gadget_operands(space, x)
    if lower_left == "0":
        y = np.zeros_like(xm)
    else:
        y = spaces.realize(space, apply_involution(space, x))
        y = -y if lower_left == "-x*" else y
    return matcore.op_norm(block([[un, corner * xm], [y, un]]))


def ref_run_all_suites(trials, seed, gadget_trials, corner=1.0):
    """Every suite one trial at a time, the upper-right block of each 2x2 block scaled by ``corner`` (1.0: none)."""
    op = matcore.op_norm
    unital = [corpus.build_full_matrix(2).space, corpus.build_full_matrix(3).space,
              corpus.build_upper_triangular(2).space]
    selfadjoint = unital[:2]
    return [
        ref_pair_suite("sum-diff block identity", 21, trials, seed,
                       lambda a, b: op(block([[a, corner * b], [b, a]])),
                       lambda a, b: max(op(a + b), op(a - b))),
        ref_pair_suite("rotation block identity", 22, trials, seed,
                       lambda a, b: op(block([[a, corner * -b], [b, a]])),
                       lambda a, b: max(op(a + 1j * b), op(a - 1j * b))),
        ref_gadget_suite("doubling gadget closed form", 23, unital, gadget_trials, seed,
                         lambda sp, x: abs(ref_gadget_norm(sp, x, "0", corner) ** 2
                                           - float(t_norm_closed_form(spaces.norm(sp, x))))),
        ref_gadget_suite("symmetric gadget norm", 24, selfadjoint, gadget_trials, seed,
                         lambda sp, x: abs(ref_gadget_norm(sp, x, "x*", corner) - (1.0 + spaces.norm(sp, x)))),
        ref_gadget_suite("skew gadget norm", 25, selfadjoint, gadget_trials, seed,
                         lambda sp, x: abs(ref_gadget_norm(sp, x, "-x*", corner)
                                           - np.sqrt(1.0 + spaces.norm(sp, x) ** 2))),
    ]


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


SPACES = {
    "full_matrix_2": lambda: corpus.build_full_matrix(2).space,
    "full_matrix_3": lambda: corpus.build_full_matrix(3).space,
    "upper_triangular_3": lambda: corpus.build_upper_triangular(3).space,
    "non_algebra_span": lambda: corpus.entry("non_algebra_span").space,
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


def test_broken_block_assembly_fails_every_suite_as_one_trial_at_a_time_does(monkeypatch):
    # the broken identity is injected from outside: every 2x2 block is assembled with its upper-right block doubled
    two_by_two = gadgets.two_by_two_stack
    monkeypatch.setattr(gadgets, "two_by_two_stack", lambda A, B, C, D: two_by_two(A, 2 * B, C, D))
    got = formulas.run_all_suites(trials=30, seed=7, gadget_trials=2)
    want = ref_run_all_suites(30, 7, 2, corner=2.0)
    assert as_json([s.to_dict() for s in got]) == as_json([s.to_dict() for s in want])
    assert not any(s.passed for s in got)


@pytest.mark.parametrize("module, name, matrix_axes, failing", [
    (spaces, "norm_stack", 3, 3),  # NaN space norms reach the three gadget suites alone
    (matcore, "op_norm_stack", 2, 5),  # NaN operator norms reach all five
])
def test_nan_deviations_fail_their_suites(monkeypatch, module, name, matrix_axes, failing):
    monkeypatch.setattr(module, name, lambda *args: np.full(np.shape(args[-1])[:-matrix_axes], np.nan))
    got = formulas.run_all_suites(trials=20, seed=7, gadget_trials=2)
    assert [s.passed for s in got] == [True] * (5 - failing) + [False] * failing
    assert all(math.isnan(s.max_deviation) for s in got[5 - failing:])


@pytest.mark.parametrize("per_chunk", [1, 3, 7])
def test_pair_suite_chunks_do_not_move_reports(monkeypatch, per_chunk):
    # 40 trials in chunks of 1, 3 (ending on a partial chunk) and 7 trials report what one chunk reports
    one_chunk = [s.to_dict() for s in formulas.run_all_suites(trials=40, seed=7, gadget_trials=1)]
    monkeypatch.setattr(formulas, "_PAIR_CHUNK_BYTES", per_chunk * formulas._PAIR_TRIAL_BYTES)
    sizes = [len(a) for a, _ in formulas._pair_stacks(40, 7, 21)]
    assert sizes == [per_chunk] * (40 // per_chunk) + ([40 % per_chunk] if 40 % per_chunk else [])
    chunked = [s.to_dict() for s in formulas.run_all_suites(trials=40, seed=7, gadget_trials=1)]
    assert as_json(chunked) == as_json(one_chunk)


def test_pair_suite_chunks_are_bounded_in_bytes():
    # 200 trials are one chunk, and a huge trial count never draws more than the bound at once
    assert [len(a) for a, _ in formulas._pair_stacks(200, 7, 21)] == [200]
    per_chunk = formulas._PAIR_CHUNK_BYTES // formulas._PAIR_TRIAL_BYTES
    first, _ = next(formulas._pair_stacks(10**8, 7, 21))
    assert len(first) == per_chunk and per_chunk * formulas._PAIR_TRIAL_BYTES <= formulas._PAIR_CHUNK_BYTES


def test_suites_build_each_test_space_once_per_call(monkeypatch):
    # M_2, M_3 and UT_2 are built once per call and shared by the three gadget suites
    built = []
    for name in ("build_full_matrix", "build_upper_triangular"):
        def counted(d, build=getattr(formulas, name), name=name):
            built.append((name, d))
            return build(d)

        monkeypatch.setattr(formulas, name, counted)
    for _ in range(2):
        formulas.run_all_suites(trials=1, seed=7, gadget_trials=1)
    assert sorted(built) == sorted(2 * [("build_full_matrix", 2), ("build_full_matrix", 3), ("build_upper_triangular", 2)])


def test_suite_draws_do_not_depend_on_the_trial_count():
    [(a5, b5)] = formulas._pair_stacks(5, 7, 21)
    [(a40, b40)] = formulas._pair_stacks(40, 7, 21)
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
# criteria: the per-pair loops the stacked checks replace, one matrix at a time


def ref_sample_space_matrix(space, rng):
    elem = ref_random_element(space, 1, rng, target_norm=1.0)
    return spaces.realize(space, elem), elem


def ref_norm_one(m):
    nm = matcore.op_norm(m)
    return m / nm if nm > 0 else m


def ref_check_mult_closed(space, cfg):
    k = space.dim
    unit = [ref_norm_one(b) for b in space.basis]
    residuals = {(i, j): ref_membership_residual(space, unit[i] @ unit[j]) for i in range(k) for j in range(k)}
    alg_max, (i, j) = first_max(residuals)
    verdict, welem, aux = criteria.HOLDS_WITHIN_BUDGET, None, {"algebraic_max": float(alg_max)}
    if alg_max > cfg.tolerance:
        verdict = criteria.VIOLATED
        aux.update(x_basis=i, y_basis=j, residual=float(alg_max),
                   y=criteria._encode_array(matcore.dagger(space.basis[j])))
        welem = spaces.LevelElement(1, np.eye(k, dtype=np.complex128)[i].reshape(1, 1, k))
    return criteria.CheckReport("mult-closed", verdict, 0.0 - alg_max, criteria._witness_dict(welem, aux),
                                [1], k * k, cfg.to_dict())


def ref_check_multiplier(space, w, side, cfg):
    w = ref_norm_one(matcore.as_cmat(w))
    k = space.dim
    unit = [ref_norm_one(b) for b in space.basis]
    if side == "left":
        products = {(i,): w @ unit[i] for i in range(k)}
    elif side == "right":
        products = {(i,): unit[i] @ w for i in range(k)}
    else:
        products = {(i, j): unit[i] @ w @ unit[j] for i in range(k) for j in range(k)}
    alg_max, idx = first_max({key: ref_membership_residual(space, m) for key, m in products.items()})
    verdict, aux = criteria.HOLDS_WITHIN_BUDGET, {"algebraic_max": float(alg_max), "side": side}
    if alg_max > cfg.tolerance:
        verdict = criteria.VIOLATED
        aux.update(basis_index=list(idx), residual=float(alg_max))
    return criteria.CheckReport(f"multiplier-{side}", verdict, 0.0 - alg_max, criteria._witness_dict(None, aux),
                                [1], len(products), cfg.to_dict())


def ref_check_cstar(space, cfg):
    k = space.dim
    unit = [ref_norm_one(b) for b in space.basis]
    residuals = {(i, j): ref_membership_residual(space, unit[i] @ matcore.dagger(unit[j]))
                 for i in range(k) for j in range(k)}
    alg_max, _ = first_max(residuals)
    identity = ref_membership_residual(space, np.eye(space.p))
    worst = max(alg_max, identity)
    verdict, notes = criteria.HOLDS_WITHIN_BUDGET, []
    if worst > cfg.tolerance:
        verdict = criteria.INCONCLUSIVE
        notes.append("the canonical z, b leave the space; existence over X not certified")
    aux = {"algebraic_max": float(alg_max), "identity_residual": float(identity)}
    return criteria.CheckReport("cstar-among-systems", verdict, 0.0 - worst, criteria._witness_dict(None, aux),
                                list(range(1, cfg.max_level + 1)), k * k + 1, cfg.to_dict(), notes)


def stacked_and_reference(run, reference):
    """(stacked report, one-pair-at-a-time report), as JSON."""
    return as_json(run().to_dict()), as_json(reference().to_dict())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["full_matrix_2", "upper_triangular_3", "non_algebra_span"])
def test_mult_closed_matches_one_trial_at_a_time(seed, name):
    space = SPACES[name]()
    cfg = witness.SearchConfig(seed=seed)
    stacked, reference = stacked_and_reference(lambda: criteria.check_mult_closed(space, cfg),
                                               lambda: ref_check_mult_closed(space, cfg))
    assert stacked == reference


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("side", ["left", "right", "quasi"])
@pytest.mark.parametrize("name, w", [("full_matrix_3", 1), ("upper_triangular_3", 1),
                                     ("non_algebra_span", 0)])
def test_multiplier_matches_one_trial_at_a_time(seed, side, name, w):
    space = SPACES[name]()
    wm = space.basis[w]
    cfg = witness.SearchConfig(seed=seed)
    stacked, reference = stacked_and_reference(lambda: criteria.check_multiplier(space, wm, side, cfg),
                                               lambda: ref_check_multiplier(space, wm, side, cfg))
    assert stacked == reference


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["full_matrix_2", "full_matrix_3", "non_algebra_system", "tridiagonal_3",
                                  "linf3"])
def test_cstar_matches_one_trial_at_a_time(seed, name):
    space = SPACES[name]()
    cfg = witness.SearchConfig(seed=seed)
    stacked, reference = stacked_and_reference(lambda: criteria.check_cstar_among_systems(space, cfg),
                                               lambda: ref_check_cstar(space, cfg))
    assert stacked == reference


@pytest.mark.parametrize("values", [[np.nan, 1.0, 3.0, np.nan, 3.0, 2.0], [2.0, np.inf, np.inf], [np.nan, np.nan],
                                    [-np.inf, -np.inf], []])
def test_picks_are_what_a_strict_scan_picks(values):
    # ties go to the first maximum and NaN never wins, as in the per-pair loops
    assert criteria._first_max(np.array(values)) == first_max(dict(enumerate(values)))


#: Items per chunk, as a multiple of a check's bytes per item (a basis product
#: or a pair): one item each, three or all at once.
CHUNKINGS = {"one": 1, "three": 3, "all": 10**6}

CHUNKED_CHECKS = {
    "mult-closed": ("full_matrix_2", lambda sp, cfg: criteria.check_mult_closed(sp, cfg), ref_check_mult_closed),
    "multiplier-quasi": ("upper_triangular_3",
                         lambda sp, cfg: criteria.check_multiplier(sp, sp.basis[1], "quasi", cfg),
                         lambda sp, cfg: ref_check_multiplier(sp, sp.basis[1], "quasi", cfg)),
    "cstar": ("non_algebra_system", criteria.check_cstar_among_systems, ref_check_cstar),
}


@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
@pytest.mark.parametrize("check", sorted(CHUNKED_CHECKS))
def test_chunk_boundaries_do_not_move_reports(monkeypatch, check, chunking):
    name, run, reference = CHUNKED_CHECKS[check]
    space = SPACES[name]()
    cfg = witness.SearchConfig(seed=SEEDS[1])
    seen = []
    chunks = criteria._chunks

    def sized(n_items, item_bytes):  # sets the chunk constant in units of the items chunked
        monkeypatch.setattr(criteria, "_CHUNK_BYTES", CHUNKINGS[chunking] * item_bytes)
        seen.append(chunks(n_items, item_bytes))
        return seen[-1]

    monkeypatch.setattr(criteria, "_chunks", sized)
    stacked = as_json(run(space, cfg).to_dict())
    monkeypatch.undo()
    assert stacked == as_json(reference(space, cfg).to_dict())

    # one chunked stack each: the basis products of a closure check (4, 16 and
    # 36 here, so "three" ends on a partial chunk and on a full one)
    [slices] = seen
    sizes = [s.stop - s.start for s in slices]
    n = sum(sizes)
    assert [s.start for s in slices] == list(np.cumsum([0] + sizes[:-1]))
    assert sizes == {"one": [1] * n, "three": [3] * (n // 3) + ([n % 3] if n % 3 else []), "all": [n]}[chunking]


#: The stacked checks' tracemalloc peak stays below this many chunk constants
#: (on full_matrix_3 about 0.25 for the 81 basis products of cstar and of
#: mult-closed).  On full_matrix_8, mult-closed and multiplier-quasi peak at
#: about 5.4 and 5.7: their 4096 basis products pass through in chunks (all
#: products at once peaked at 80).
PEAK_CHUNKS = 8


@pytest.mark.parametrize("check, size", [("cstar", 3), ("mult-closed", 3), ("mult-closed", 8),
                                         ("multiplier-quasi", 8)],
                         ids=["cstar", "mult-closed", "mult-closed-full_matrix_8", "multiplier-quasi-full_matrix_8"])
def test_sampled_checks_peak_within_a_multiple_of_the_chunk(monkeypatch, check, size):
    space = corpus.build_full_matrix(size).space
    cfg = witness.SearchConfig(seed=SEEDS[0])
    run = {"cstar": lambda: criteria.check_cstar_among_systems(space, cfg),
           "mult-closed": lambda: criteria.check_mult_closed(space, cfg),
           "multiplier-quasi": lambda: criteria.check_multiplier(space, space.basis[1], "quasi", cfg)}[check]
    run()  # lazy imports and caches outside the measurement
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_CHUNKS * criteria._CHUNK_BYTES


@pytest.mark.parametrize("name", ["upper_triangular_3", "non_algebra_span"])
def test_cstar_refuses_spaces_without_involution_or_unit(name):
    with pytest.raises(InvalidInputError, match="requires an involution"):
        criteria.check_cstar_among_systems(SPACES[name]())


#: The Gram route and the explicit rows' op_norm agree to this, relative to the row's norm.
GRAM_ROW_RTOL = 1e-13


@pytest.mark.parametrize("name", sorted(SPACES))
def test_gram_blocks_measure_what_the_explicit_rows_measure(name):
    # ||[M+- (x) I_m, w]||^2 = ||G (x) I_m + w w*|| with G = M+- M+-*, the identity that
    # makes the C*-check's rows exact, for the rows M+- of sampled x, y of each tested space
    space = SPACES[name]()
    dag = matcore.dagger
    rng = matcore.stream(5, 31)
    x_mat = ref_sample_space_matrix(space, rng)[0]
    y_mat = ref_sample_space_matrix(space, rng)[0]
    z_mat = -x_mat @ dag(y_mat)
    b_mat = proof_b(x_mat, y_mat, z_mat)
    for sign in "+-":
        M = build_M_pm(x_mat, y_mat, z_mat, b_mat, sign=sign)
        for m in (1, 2):
            for w in ref_random_stack(space, 2 * m, rng, 4, target_norm=1.0):
                w = spaces.realize_stack(space, w)
                row = np.concatenate([matcore.scalar_amplify(M, m), w], axis=1)
                gram = matcore.scalar_amplify(M @ dag(M), m) + w @ dag(w)
                norm = matcore.op_norm(row)
                assert abs(math.sqrt(np.linalg.eigvalsh(gram)[-1]) - norm) <= GRAM_ROW_RTOL * norm


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gadgets_on_a_stack_are_the_gadgets_of_each_matrix(d):
    rng = matcore.stream(17, d)
    x, y = (np.stack([rand_cmat(d, d, rng) for _ in range(5)]) for _ in range(2))
    x = x / matcore.op_norm_stack(x)[:, None, None]
    z = -x @ matcore.dagger(y)
    b = proof_b(x, y, z)
    assert b.tobytes() == np.stack([proof_b(x[i], y[i], z[i]) for i in range(5)]).tobytes()
    h = x @ matcore.dagger(x)
    assert psd_sqrt(h).tobytes() == np.stack([psd_sqrt(m) for m in h]).tobytes()
    for sign in ("+", "-"):
        M = build_M_pm(x, y, z, b, sign)
        assert M.tobytes() == np.stack([build_M_pm(x[i], y[i], z[i], b[i], sign)
                                        for i in range(5)]).tobytes()
        for n in (1, 2, 3):
            assert matcore.scalar_amplify(M, n).tobytes() == np.stack(
                [matcore.scalar_amplify(m, n) for m in M]).tobytes()


def test_stacked_gadget_errors_name_the_first_offending_matrix():
    h = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.diag([-1.0, 1.0])])
    with pytest.raises(NumericalError, match=r"at stack index \(1,\) is not positive semidefinite"):
        psd_sqrt(h)
    with pytest.raises(NumericalError, match=r"^operand is not positive semidefinite"):
        psd_sqrt(h[2])


def test_stacked_draws_are_successive_single_draws():
    space = corpus.build_full_matrix(2).space
    for target in (None, 1.0, 0.3):
        stacked = spaces.random_stack(space, 2, matcore.stream(5, 1), 6)
        if target is not None:
            stacked = spaces.scale_to_norms(space, stacked, target)
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


def ref_stacked_pair_norms(space, T, a, b):
    """(||[T(a); b]||, ||[a; b]||) with each column realized as one dense ambient matrix."""
    top = spaces.realize_stack(space, np.einsum("lm,...ijm->...ijl", T, a))
    bot, ref_top = spaces.realize_stack(space, b), spaces.realize_stack(space, a)
    return (matcore.op_norm_stack(np.concatenate([top, bot], axis=-2)),
            matcore.op_norm_stack(np.concatenate([ref_top, bot], axis=-2)))


def pair_grids(space, level, seed):
    """Eight pairs (a, b) of the level, the maps T = 1, the reversed basis and 2 T_rand / ||T_rand||."""
    rng = matcore.stream(seed, 3, level)
    a, b = (spaces.random_stack(space, level, rng, 8) for _ in range(2))
    t = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    return a, b, (np.eye(space.dim), np.eye(space.dim)[::-1], 2 * t / np.linalg.norm(t, 2))


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("name, blocks", [("linf3", 3), ("full_matrix_2_plus_half", 2), ("l1_2_model_64", 64)])
def test_pair_deviations_through_the_blocks_match_the_dense_columns(name, blocks, level):
    space = {"linf3": lambda: corpus.build_linf(3, "ones"),
             "full_matrix_2_plus_half": lambda: corpus.build_full_matrix_plus_half(2),
             "l1_2_model_64": lambda: corpus.build_l1_2_model(64)}[name]().space
    assert space.blocks.shape[1] == blocks
    a, b, maps = pair_grids(space, level, 7)
    for T in maps:
        lhs, rhs = ref_stacked_pair_norms(space, T, a, b)
        got = criteria._stacked_pair_deviations(space, T, a, b)
        assert (np.abs(got - (lhs - rhs)) <= 1e-13 * np.maximum(lhs, rhs)).all()


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("name", ["full_matrix_2", "upper_triangular_3"])
def test_pair_deviations_on_one_block_are_the_dense_columns_bit_for_bit(name, level):
    space = SPACES[name]()
    assert space.blocks.shape[1] == 1
    a, b, maps = pair_grids(space, level, 7)
    for T in maps:
        lhs, rhs = ref_stacked_pair_norms(space, T, a, b)
        assert criteria._stacked_pair_deviations(space, T, a, b).tobytes() == (lhs - rhs).tobytes()
