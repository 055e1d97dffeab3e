"""The sampled checks evaluate their trials as stacks; each must report what one trial at a time reports.

The references below take every trial, filler and membership residual one
matrix at a time: each trial makes its own draws, in turn, from its group's
stream, every norm is a single-matrix ``matcore.op_norm`` (or, for the block
rows of the closure checks, ``matcore.op_norm_gram_stack`` of one Gram matrix
assembled from its blocks), every cstar bound comes from the ``eigvalsh`` of
one Gram M M* and every pick is a strict ``>`` scan.
The stacked code must reproduce their reports byte for byte, at two seeds.
The Gram route itself is checked against the explicit rows' ``op_norm`` to
1e-13 relative on every tested space.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from opspace import corpus, criteria, formulas, gadgets, matcore, spaces, witness
from opspace.errors import InvalidInputError, NumericalError
from opspace.formulas import SuiteResult, t_norm_closed_form

from conftest import gadget_operands, mult_rows

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


def ref_gadget_norm(space, x, lower_left):
    """||[[u_n, x], [y, u_n]]|| for one element x, y = 0, x* or -x* by ``lower_left``, assembled with ``matcore.block``."""
    un, xm = gadget_operands(space, x)
    if lower_left == "0":
        y = np.zeros_like(xm)
    else:
        y = spaces.realize(space, spaces.apply_involution(space, x))
        y = -y if lower_left == "-x*" else y
    return matcore.op_norm(matcore.block([[un, xm], [y, un]]))


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
                         lambda sp, x: abs(ref_gadget_norm(sp, x, "0") ** 2
                                           - float(t_norm_closed_form(spaces.norm(sp, x))))),
        ref_gadget_suite("symmetric gadget norm", 24, selfadjoint, gadget_trials, seed,
                         lambda sp, x: abs(ref_gadget_norm(sp, x, "x*") - (1.0 + spaces.norm(sp, x)))),
        ref_gadget_suite("skew gadget norm", 25, selfadjoint, gadget_trials, seed,
                         lambda sp, x: abs(ref_gadget_norm(sp, x, "-x*")
                                           - np.sqrt(1.0 + spaces.norm(sp, x) ** 2))),
    ]


def gram_norm(g) -> float:
    return float(matcore.op_norm_gram_stack(g))


def ref_filler_grams(rng, count, d):
    """The Grams b b* of ``count`` successive fillers, each b scaled to norm 1 by its Gram's norm."""
    grams = []
    for _ in range(count):
        b = matcore.rand_cmat(d, d, rng)
        g = b @ matcore.dagger(b)
        nb = gram_norm(g)
        grams.append(g / np.square(nb if nb > 0 else 1.0))
    return grams


def ref_row_deviation(x, y, z, bb):
    """|| [[0,y,1,0],[2,x,z,b]] || - || [2,x,z,b] || from its Gram blocks, for single d x d entries, bb = b b*."""
    one = np.eye(x.shape[0])
    dag = matcore.dagger
    lower = 4 * one + x @ dag(x) + z @ dag(z) + bb
    cross = y @ dag(x) + dag(z)
    full = matcore.block([[one + y @ dag(y), cross], [dag(cross), lower]])
    return gram_norm(full) - gram_norm(lower)


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
# criteria: the per-pair loops the stacked checks replace, one matrix at a time


def ref_sample_space_matrix(space, rng):
    elem = ref_random_element(space, 1, rng, target_norm=1.0)
    return spaces.realize(space, elem), elem


def ref_metric_closure_deviation(space, x_mat, y_mat, cfg, rng):
    """Largest |deviation| of the 2x4 row identity over the canonical filler, then B_SAMPLES drawn ones."""
    c = spaces.coefficients_of(space, x_mat @ matcore.dagger(y_mat))
    z_mat = -np.tensordot(c, space.basis, axes=(0, 0))
    canonical = gadgets.proof_b(x_mat, np.zeros_like(x_mat), z_mat)
    grams = [canonical @ matcore.dagger(canonical)] + ref_filler_grams(rng, criteria.B_SAMPLES, x_mat.shape[0])
    worst = -np.inf
    for bb in grams:
        dev = abs(ref_row_deviation(x_mat, y_mat, z_mat, bb))
        if dev > worst:
            worst = dev
    return worst


def ref_check_mult_closed(space, cfg):
    k = space.dim
    residuals = {(i, j): ref_membership_residual(space, space.basis[i] @ space.basis[j])
                 for i in range(k) for j in range(k)}
    alg_max, (i, j) = first_max(residuals)
    samples = k * k
    metric, witnesses = {}, {}
    for t in range(criteria.MULT_METRIC_PAIRS):
        rng = matcore.stream(cfg.seed, criteria._KEY_MULT_CLOSED, 1, t)
        x_mat, x_elem = ref_sample_space_matrix(space, rng)
        y_mat = matcore.dagger(ref_sample_space_matrix(space, rng)[0])
        metric[t] = ref_metric_closure_deviation(space, x_mat, y_mat, cfg, rng)
        witnesses[t] = (x_elem, y_mat)
        samples += criteria.B_SAMPLES + 1
    met_max, best = first_max(metric)

    agree = (alg_max > cfg.tolerance) == (met_max > cfg.tolerance)
    aux = {"algebraic_max": float(alg_max), "metric_max": float(met_max), "paths_agree": bool(agree)}
    notes = [] if agree else ["metric/algebraic route disagreement: possible bug"]
    worst = max(alg_max, met_max)
    if worst > cfg.tolerance:
        if alg_max >= met_max:
            waux = dict(aux, path="algebraic", x_basis=i, y_basis=j, residual=float(alg_max),
                        y=criteria._encode_array(matcore.dagger(space.basis[j])))
            welem = spaces.LevelElement(1, np.eye(k, dtype=np.complex128)[i].reshape(1, 1, k))
        else:
            welem, y_mat = witnesses[best]
            waux = dict(aux, path="metric", deviation=float(met_max), y=criteria._encode_array(y_mat))
        return criteria.CheckReport("mult-closed", criteria.VIOLATED, -worst, criteria._witness_dict(welem, waux),
                                    [1], samples, cfg.to_dict(), notes)
    return criteria.CheckReport("mult-closed", criteria.HOLDS_WITHIN_BUDGET, -worst,
                                criteria._witness_dict(None, aux), [1], samples, cfg.to_dict(), notes)


def ref_check_multiplier(space, w, side, cfg):
    w = matcore.as_cmat(w)
    k = space.dim
    if side == "left":
        products = {(i,): w @ space.basis[i] for i in range(k)}
    elif side == "right":
        products = {(i,): space.basis[i] @ w for i in range(k)}
    else:
        products = {(i, j): space.basis[i] @ w @ space.basis[j] for i in range(k) for j in range(k)}
    alg_max, idx = first_max({key: ref_membership_residual(space, m) for key, m in products.items()})
    samples = len(products)

    met_max = agree = None
    if space.p == space.q:
        met_max = -np.inf
        for t in range(criteria.MULTIPLIER_METRIC_PAIRS):
            rng = matcore.stream(cfg.seed, criteria._KEY_MULTIPLIER, 1, t)
            a_mat, _ = ref_sample_space_matrix(space, rng)
            if side == "left":
                x_mat, y_mat = w, matcore.dagger(a_mat)
            elif side == "right":
                x_mat, y_mat = a_mat, matcore.dagger(w)
            else:
                b_mat, _ = ref_sample_space_matrix(space, rng)
                x_mat, y_mat = a_mat @ w, matcore.dagger(b_mat)
            dev = ref_metric_closure_deviation(space, x_mat, y_mat, cfg, rng)
            samples += criteria.B_SAMPLES + 1
            if dev > met_max:
                met_max = dev
        agree = (alg_max > cfg.tolerance) == (met_max > cfg.tolerance)

    aux = {"algebraic_max": float(alg_max), "side": side}
    notes = []
    if met_max is not None:
        aux["metric_max"] = float(met_max)
        aux["paths_agree"] = bool(agree)
        if not agree:
            notes.append("metric/algebraic route disagreement: possible bug")
    criterion = f"multiplier-{side}"
    if alg_max > cfg.tolerance:
        waux = dict(aux, basis_index=list(idx), residual=float(alg_max))
        return criteria.CheckReport(criterion, criteria.VIOLATED, -alg_max, criteria._witness_dict(None, waux),
                                    [1], samples, cfg.to_dict(), notes)
    return criteria.CheckReport(criterion, criteria.HOLDS_WITHIN_BUDGET, -alg_max,
                                criteria._witness_dict(None, aux), [1], samples, cfg.to_dict(), notes)


def ref_check_cstar(space, cfg):
    worst, where, in_space_max = -np.inf, None, 0.0
    for tpair in range(criteria.CSTAR_PAIRS):
        rng = matcore.stream(cfg.seed, criteria._KEY_CSTAR, tpair)
        x_mat, _ = ref_sample_space_matrix(space, rng)
        y_mat, _ = ref_sample_space_matrix(space, rng)
        z_mat = -x_mat @ matcore.dagger(y_mat)
        b_mat = gadgets.proof_b(x_mat, y_mat, z_mat)
        for m in (z_mat, b_mat):
            r = ref_membership_residual(space, m)
            if r > in_space_max:
                in_space_max = r
        for sign in ("+", "-"):
            M = gadgets.build_M_pm(x_mat, y_mat, z_mat, b_mat, sign=sign)
            lam = np.linalg.eigvalsh(M @ matcore.dagger(M))
            bound = max(math.sqrt(1.0 + lam[-1]) - criteria.SQRT2, criteria.SQRT2 - math.sqrt(1.0 + lam[0]))
            if bound > worst:
                worst, where = bound, (tpair, sign)

    verdict, notes = criteria.HOLDS_WITHIN_BUDGET, []
    if in_space_max > cfg.tolerance:
        verdict = criteria.INCONCLUSIVE
        notes.append("the canonical z, b leave the space; existence over X not certified")
    elif worst > cfg.tolerance:
        verdict = criteria.INCONCLUSIVE
        notes.append(f"the bound of pair {where[0]}, sign {where[1]} exceeds the tolerance; it shows no violation")
    aux = {} if where is None else {"deviation": worst}
    aux["construction_residual"] = float(in_space_max)
    return criteria.CheckReport("cstar-among-systems", verdict, -worst, criteria._witness_dict(None, aux),
                                list(range(1, cfg.max_level + 1)), 2 * criteria.CSTAR_PAIRS, cfg.to_dict(), notes)


def at_cstar_pairs(n_pairs, check):
    """``check(space, cfg)`` (the stacked cstar check or its reference) run with ``criteria.CSTAR_PAIRS`` = n_pairs."""
    def run(space, cfg):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criteria, "CSTAR_PAIRS", n_pairs)
            return check(space, cfg)
    return run


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
def test_cstar_matches_one_trial_at_a_time(monkeypatch, seed, name):
    space = SPACES[name]()
    cfg = witness.SearchConfig(seed=seed)
    monkeypatch.setattr(criteria, "CSTAR_PAIRS", 6)
    stacked, reference = stacked_and_reference(lambda: criteria.check_cstar_among_systems(space, cfg),
                                               lambda: ref_check_cstar(space, cfg))
    assert stacked == reference


@pytest.mark.parametrize("values", [[np.nan, 1.0, 3.0, np.nan, 3.0, 2.0], [2.0, np.inf, np.inf], [np.nan, np.nan],
                                    [-np.inf, -np.inf], []])
def test_picks_are_what_a_strict_scan_picks(values):
    # ties go to the first maximum and NaN never wins, as in the per-pair loops
    assert criteria._first_max(np.array(values)) == first_max(dict(enumerate(values)))


#: Items per chunk, as a multiple of a check's bytes per item (a basis product
#: or a pair): one item each, three (the last chunk of 16, 8 or 7 pairs is
#: partial) or all at once.
CHUNKINGS = {"one": 1, "three": 3, "all": 10**6}

CHUNKED_CHECKS = {
    "mult-closed": ("full_matrix_2", lambda sp, cfg: criteria.check_mult_closed(sp, cfg), ref_check_mult_closed),
    "multiplier-quasi": ("upper_triangular_3",
                         lambda sp, cfg: criteria.check_multiplier(sp, sp.basis[1], "quasi", cfg),
                         lambda sp, cfg: ref_check_multiplier(sp, sp.basis[1], "quasi", cfg)),
    "cstar": ("non_algebra_system", at_cstar_pairs(7, criteria.check_cstar_among_systems),
              at_cstar_pairs(7, ref_check_cstar)),
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

    *products, pairs = seen  # the closure checks chunk their basis products before their pairs
    assert len(products) == (check != "cstar")
    for slices in seen:
        sizes = [s.stop - s.start for s in slices]
        assert [s.start for s in slices] == list(np.cumsum([0] + sizes[:-1]))
        if chunking == "one":
            assert set(sizes) == {1}
        elif chunking == "three":
            assert sizes[:-1] == [3] * (len(sizes) - 1) and 0 < sizes[-1] <= 3
        else:
            assert len(sizes) == 1
    if chunking == "three":
        assert pairs[-1].stop - pairs[-1].start < 3


#: The stacked checks' tracemalloc peak stays below this many chunk constants
#: (on full_matrix_3 about 2.1 for cstar's 60 pairs, 56 to a chunk, and 1.3
#: for mult-closed; without chunks about 22 for mult-closed, measured on the
#: explicit rows).  On
#: full_matrix_8, mult-closed and multiplier-quasi peak at about 5.3: their 4096
#: basis products pass through in chunks, and the fillers of one pair in parts
#: (all products at once peaked at 80).
PEAK_CHUNKS = 8


@pytest.mark.parametrize("check, size", [("cstar", 3), ("mult-closed", 3), ("mult-closed", 8),
                                         ("multiplier-quasi", 8)],
                         ids=["cstar", "mult-closed", "mult-closed-full_matrix_8", "multiplier-quasi-full_matrix_8"])
def test_sampled_checks_peak_within_a_multiple_of_the_chunk(monkeypatch, check, size):
    space = corpus.build_full_matrix(size).space
    cfg = witness.SearchConfig(seed=SEEDS[0])
    monkeypatch.setattr(criteria, "CSTAR_PAIRS", 60)
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


#: One cstar pair on linf 32 (p = 32): its M+- (64 x 192) and G (64 x 64) for
#: both signs take 512 KiB, two chunk constants, so it passes through alone,
#: with a tracemalloc peak of 0.94 MiB (about 3.8 chunk constants).
ONE_PAIR_PEAK_CHUNKS = 8


def test_cstar_peak_below_one_pair_on_a_large_ambient(monkeypatch):
    space = corpus.build_linf(32, "ones").space
    cfg = witness.SearchConfig(seed=SEEDS[0])
    monkeypatch.setattr(criteria, "CSTAR_PAIRS", 1)
    run = lambda: criteria.check_cstar_among_systems(space, cfg)  # noqa: E731
    run()
    tracemalloc.start()
    try:
        report = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == criteria.HOLDS_WITHIN_BUDGET
    assert peak < ONE_PAIR_PEAK_CHUNKS * criteria._CHUNK_BYTES


@pytest.mark.parametrize("name", ["upper_triangular_3", "non_algebra_span"])
def test_cstar_refuses_spaces_without_involution_or_unit(name):
    with pytest.raises(InvalidInputError, match="requires an involution"):
        criteria.check_cstar_among_systems(SPACES[name]())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fillers_are_successive_normalized_draws(d):
    # the reference normalizes each filler's Gram by its own norm, one filler at a time
    got = criteria._filler_grams(matcore.stream(3, d).normal(size=(64, 2, d, d)))
    want = np.stack(ref_filler_grams(matcore.stream(3, d), 64, d))
    assert got.tobytes() == want.tobytes()
    b = matcore.rand_cmat(d, d, matcore.stream(3, d))
    b = b / matcore.op_norm(b)
    assert np.allclose(got[0], b @ matcore.dagger(b), rtol=0, atol=1e-14)


#: The Gram route and the explicit rows' op_norm agree to this, relative to the row's norm.
GRAM_ROW_RTOL = 1e-13


@pytest.mark.parametrize("name", sorted(SPACES))
def test_gram_blocks_measure_what_the_explicit_rows_measure(name):
    # the closure route's 2x4 rows on every tested space, and the cstar rows where the check runs
    space = SPACES[name]()
    dag = matcore.dagger
    rng = matcore.stream(5, 31)
    x_mat = ref_sample_space_matrix(space, rng)[0]
    y_mat = dag(ref_sample_space_matrix(space, rng)[0])
    z_mat = -spaces.project_stack(space, x_mat @ dag(y_mat))
    bs = [gadgets.proof_b(x_mat, np.zeros_like(x_mat), z_mat)]
    for _ in range(8):
        b = matcore.rand_cmat(space.p, space.p, rng)
        bs.append(b / matcore.op_norm(b))
    got = criteria._mult_row_deviations(x_mat, z_mat, y_mat, np.stack([b @ dag(b) for b in bs]))
    for b, dev in zip(bs, got):
        two_by_four, row = mult_rows(x_mat, y_mat, z_mat, b)
        norm = matcore.op_norm(two_by_four)
        assert abs(dev - (norm - matcore.op_norm(row))) <= GRAM_ROW_RTOL * norm

    if space.involution is None or space.unit is None:
        return
    y_mat = dag(y_mat)
    z_mat = -x_mat @ dag(y_mat)
    b_mat = gadgets.proof_b(x_mat, y_mat, z_mat)
    for sign in "+-":
        M = gadgets.build_M_pm(x_mat, y_mat, z_mat, b_mat, sign=sign)
        for m in (1, 2):
            for w in ref_random_stack(space, 2 * m, rng, 4, target_norm=1.0):
                w = spaces.realize_stack(space, w)
                row = np.concatenate([matcore.scalar_amplify(M, m), w], axis=1)
                gram = matcore.scalar_amplify(M @ dag(M), m) + w @ dag(w)
                norm = matcore.op_norm(row)
                assert abs(gram_norm(gram) - norm) <= GRAM_ROW_RTOL * norm


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gadgets_on_a_stack_are_the_gadgets_of_each_matrix(d):
    rng = matcore.stream(17, d)
    x, y = (np.stack([matcore.rand_cmat(d, d, rng) for _ in range(5)]) for _ in range(2))
    x = x / matcore.op_norm_stack(x)[:, None, None]
    z = -x @ matcore.dagger(y)
    b = gadgets.proof_b(x, y, z)
    assert b.tobytes() == np.stack([gadgets.proof_b(x[i], y[i], z[i]) for i in range(5)]).tobytes()
    h = x @ matcore.dagger(x)
    assert gadgets.psd_sqrt(h).tobytes() == np.stack([gadgets.psd_sqrt(m) for m in h]).tobytes()
    for sign in ("+", "-"):
        M = gadgets.build_M_pm(x, y, z, b, sign)
        assert M.tobytes() == np.stack([gadgets.build_M_pm(x[i], y[i], z[i], b[i], sign)
                                        for i in range(5)]).tobytes()
        for n in (1, 2, 3):
            assert matcore.scalar_amplify(M, n).tobytes() == np.stack(
                [matcore.scalar_amplify(m, n) for m in M]).tobytes()


def test_stacked_gadget_errors_name_the_first_offending_matrix():
    h = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.diag([-1.0, 1.0])])
    with pytest.raises(NumericalError, match=r"at stack index \(1,\) is not positive semidefinite"):
        gadgets.psd_sqrt(h)
    with pytest.raises(NumericalError, match=r"^operand is not positive semidefinite"):
        gadgets.psd_sqrt(h[2])


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
