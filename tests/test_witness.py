import dataclasses
import math
import warnings

import numpy as np
import pytest

from opspace import corpus, criteria, matcore, spaces, witness
from opspace.errors import InvalidInputError

from conftest import psd_sqrt, zero_element


@pytest.fixture(scope="module")
def m2():
    return corpus.build_full_matrix(2).space


def norm_objective(space):
    def f(coeffs):
        return spaces.norm_stack(space, coeffs)
    return f


def realize_adjoint_stack(space, W):
    """Adjoint of ``spaces.realize_stack``: ambient cotangents (..., rp, cq) -> coefficient gradients (..., r, c, k).

    g_ijl = sum_pq W[ip, jq] conj(B_l[p, q]), so that Re<W, realize(dc)> =
    Re sum(conj(g) dc): the real and imaginary parts of g are the partial
    derivatives along the real and imaginary parts of the coefficients.
    """
    r, c = W.shape[-2] // space.p, W.shape[-1] // space.q
    grid = W.reshape(W.shape[:-2] + (r, space.p, c, space.q))
    return np.einsum("...ipjq,lpq->...ijl", grid, np.conj(space.basis))


def norm_gradient(space, sign=1.0):
    """Gradient of sign * norm on a dense-layout embedded space."""
    def g(coeffs):
        _, W = matcore.norm_cotangent_stack(spaces.realize_stack(space, coeffs))
        return sign * realize_adjoint_stack(space, W)
    return g


def test_norm_objective_maximized_on_sphere(m2):
    cfg = witness.SearchConfig(restarts=16)
    res, = witness.maximize_violation(norm_objective(m2), m2, 1, cfg, cells=[(1.0, ())],
                                      gradient=norm_gradient(m2))
    assert res.best_value == pytest.approx(1.0, abs=1e-4)
    assert res.best_point is not None
    assert spaces.norm(m2, res.best_point) <= 1.0 + 1e-9


def test_four_rotation_search_finds_known_witness():
    entry = corpus.build_linf(3, "e1")
    space = entry.space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    cfg = witness.SearchConfig(restarts=16)
    res, = witness.maximize_violation(obj, space, 1, cfg, cells=[(1.0, (99,))], gradient=grad)
    assert res.best_value >= math.sqrt(2) - 1 - 1e-3


def test_determinism_and_thread_independence(m2):
    obj = norm_objective(m2)
    results = []
    for threads in (1, 8):
        cfg = witness.SearchConfig(restarts=8, threads=threads)
        results += witness.maximize_violation(obj, m2, 1, cfg, cells=[(0.5, (3,))],
                                              gradient=norm_gradient(m2))
    a, b = results
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_point.coeffs, b.best_point.coeffs)
    assert a.restart_bests == b.restart_bests
    assert a.evaluations == b.evaluations


def test_zero_restarts_yield_no_evidence(m2):
    cfg = witness.SearchConfig(restarts=0)
    res, = witness.maximize_violation(norm_objective(m2), m2, 1, cfg, cells=[(0.5, ())],
                                      gradient=norm_gradient(m2))
    assert res.evaluations == 0
    assert res.best_point is None


def test_ball_feasibility_of_all_restart_results(m2):
    obj = norm_objective(m2)
    cfg = witness.SearchConfig(restarts=12)
    for radius in (0.25, 1.0):
        res, = witness.maximize_violation(obj, m2, 2, cfg, cells=[(radius, (4,))],
                                          gradient=norm_gradient(m2))
        assert spaces.norm(m2, res.best_point) <= radius + 1e-9


def test_best_value_matches_objective_at_best_point(m2):
    obj = norm_objective(m2)
    cfg = witness.SearchConfig(restarts=8)
    res, = witness.maximize_violation(obj, m2, 1, cfg, cells=[(0.7, (5,))],
                                      gradient=norm_gradient(m2))
    again = float(obj(res.best_point.coeffs[None])[0])
    assert res.best_value == pytest.approx(again, abs=1e-9)


def test_refine_never_decreases(m2):
    entry = corpus.build_linf(3, "e1")
    space = entry.space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    # the exact witness is a maximizer along its ray; refinement must hold the value
    e2 = spaces.LevelElement(1, np.array([[[0, 1.0, 0]]], dtype=complex))
    start = float(obj(e2.coeffs[None])[0])
    res = witness.refine_witness(obj, space, e2, 1.0, gradient=grad)
    assert res.best_value >= start - 1e-12
    assert res.best_value >= math.sqrt(2) - 1 - 1e-9


def test_refine_counts_each_evaluation_once():
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    calls = {"objective": 0, "gradient": 0}

    def counted_obj(coeffs):
        calls["objective"] += int(np.prod(coeffs.shape[:-3]))
        return obj(coeffs)

    def counted_grad(coeffs):
        calls["gradient"] += coeffs.shape[0]
        return grad(coeffs)

    start = spaces.LevelElement(1, np.array([[[0.2, 0.3j, -0.1]]], dtype=complex))
    res = witness.refine_witness(counted_obj, space, start, 1.0, gradient=counted_grad)
    assert calls["objective"] > 1 and calls["gradient"] > 0
    assert res.evaluations == calls["objective"] + calls["gradient"]


def test_refine_keeps_zero_fixed_under_nonpositive_objective(m2):
    def neg_norm(coeffs):
        return -spaces.norm_stack(m2, coeffs)

    z = zero_element(m2)
    res = witness.refine_witness(neg_norm, m2, z, 1.0, gradient=norm_gradient(m2, sign=-1.0))
    assert res.best_value == pytest.approx(0.0, abs=1e-12)


def test_refine_from_the_origin_stays_finite(m2):
    # x = 0 has no ray to rescale along: its radial trials stay at 0, with no division by ||x|| = 0
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(m2, m2.unit, 2)
    z = zero_element(m2, 2)
    f0 = float(obj(z.coeffs[None])[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = witness.refine_witness(obj, m2, z, 1.0, gradient=grad)
    assert math.isfinite(res.best_value) and res.best_value >= f0


def test_sphere_mode_stays_on_sphere(m2):
    def dev(coeffs):
        return np.abs(spaces.norm_stack(m2, coeffs) - 1.0)

    cfg = witness.SearchConfig(restarts=6)
    def dev_gradient(coeffs):
        sign = np.sign(spaces.norm_stack(m2, coeffs) - 1.0)
        return sign[:, None, None, None] * norm_gradient(m2)(coeffs)

    res, = witness.maximize_violation(dev, m2, 1, cfg, cells=[(1.0, (6,))],
                                      mode=witness.SPHERE, gradient=dev_gradient)
    assert res.best_value <= 1e-9


def test_non_finite_objective_aborts_restart_and_continues(m2):
    def sometimes_nan(coeffs):
        vals = spaces.norm_stack(m2, coeffs)
        return np.where(np.real(coeffs[..., 0, 0, 0]) > 0, np.nan, vals)

    cfg = witness.SearchConfig(restarts=12)
    res, = witness.maximize_violation(sometimes_nan, m2, 1, cfg, cells=[(1.0, (7,))],
                                      gradient=norm_gradient(m2))
    assert np.isfinite(res.best_value)


def same_result(a, b):
    return (a.best_value == b.best_value
            and a.best_point.coeffs.tobytes() == b.best_point.coeffs.tobytes()
            and a.evaluations == b.evaluations
            and a.restart_bests == b.restart_bests
            and a.stopped == b.stopped
            and a.capped == b.capped)


@pytest.mark.parametrize("entry_name, mode, level, dead_cell, restarts", [
    ("linf3_e1", witness.BALL, 1, False, 3),
    ("linf3_e1", witness.BALL, 2, False, 3),
    ("linf3_e1", witness.SPHERE, 1, False, 3),
    ("linf3_e1", witness.SPHERE, 2, False, 3),
    ("linf3_e1", witness.SPHERE, 1, True, 3),
    ("linf3_e1", witness.SPHERE, 2, False, 8),
    ("full_matrix_2", witness.BALL, 1, False, 3),
    ("full_matrix_2", witness.BALL, 2, False, 3),
], ids=["ball-1", "ball-2", "sphere-1", "sphere-2", "sphere-1-dead-cell", "sphere-2-racing",
        "ball-1-origin", "ball-2-origin"])
def test_cells_ascend_independently(monkeypatch, entry_name, mode, level, dead_cell, restarts):
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, level)
    if dead_cell:
        # NaN beyond norm 0.75: every start of the radius-1 sphere cell dies at once
        live = obj

        def obj(coeffs):
            return np.where(spaces.norm_stack(space, coeffs) > 0.75, np.nan, live(coeffs))

    monkeypatch.setattr(witness, "ASCENT_STEPS", 40)
    cfg = witness.SearchConfig(restarts=restarts)
    cells = [(r, (5, level, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    merged = witness.maximize_violation(obj, space, level, cfg, cells=cells, mode=mode, gradient=grad)
    assert len(merged) == len(cells)
    for cell, res in zip(cells, merged):
        alone, = witness.maximize_violation(obj, space, level, cfg, cells=[cell], mode=mode,
                                            gradient=grad)
        assert same_result(res, alone), cell
        assert len(res.restart_bests) == restarts
    if dead_cell:
        assert merged[0].restart_bests == [-np.inf] * 3
        assert merged[0].stopped == 0
        assert all(np.isfinite(res.best_value) for res in merged[1:])
    if restarts == 8:
        # every cell holds a violation after 16 steps, and some race away restarts
        assert sum(res.stopped for res in merged) > 0


def counted(objective, gradient, log):
    """The objective and gradient, logging ("objective" | "gradient", rows) per call."""
    def f(coeffs):
        log.append(("objective", int(np.prod(coeffs.shape[:-3]))))
        return objective(coeffs)

    def g(coeffs):
        log.append(("gradient", coeffs.shape[0]))
        return gradient(coeffs)

    return f, g


@pytest.mark.parametrize("mode", [witness.BALL, witness.SPHERE])
def test_one_gradient_batch_per_step_and_evaluations_count_rows(monkeypatch, mode):
    # a searched corpus row; 40 steps leave restarts moving on the last step
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    monkeypatch.setattr(witness, "ASCENT_STEPS", 40)
    cfg = witness.SearchConfig(restarts=1)
    cells = [(r, (8, ri, j)) for ri, r in enumerate(criteria.RADIUS_SWEEP) for j in range(2)]
    log = []
    f, g = counted(obj, grad, log)
    merged = witness.maximize_violation(f, space, 1, cfg, cells=cells, mode=mode, gradient=g)
    kinds = [kind for kind, _ in log]
    # the starts' objective batch, then one trial batch per step: each gradient
    # batch (the starts', then at most one per step) follows an objective batch
    assert kinds[:2] == ["objective", "gradient"]
    assert not any(a == b == "gradient" for a, b in zip(kinds, kinds[1:]))
    assert kinds.count("gradient") <= kinds.count("objective")
    for cell, res in zip(cells, merged):
        log = []
        f, g = counted(obj, grad, log)
        alone, = witness.maximize_violation(f, space, 1, cfg, cells=[cell], mode=mode, gradient=g)
        # one restart: its start, its trial rows and its gradient rows
        assert alone.evaluations == sum(rows for _, rows in log), cell
        assert alone.evaluations == res.evaluations, cell


@pytest.mark.parametrize("entry_name, tolerance", [
    ("full_matrix_2", 1e-6),  # four-rotation holds: every value stays at or below 0
    ("linf3_e1", 1.0),  # values reach sqrt(2) - 1 but never the tolerance
])
def test_cell_below_tolerance_never_races(monkeypatch, entry_name, tolerance):
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 2)
    cfg = witness.SearchConfig(restarts=8, tolerance=tolerance)
    cells = [(r, (9, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    raced = witness.maximize_violation(obj, space, 2, cfg, cells=cells, gradient=grad)
    monkeypatch.setattr(witness, "_RACE_STEPS", ())
    plain = witness.maximize_violation(obj, space, 2, cfg, cells=cells, gradient=grad)
    for a, b in zip(raced, plain):
        assert a.best_value <= tolerance
        assert a.stopped == 0
        assert same_result(a, b)


@pytest.mark.parametrize("mode", [witness.BALL, witness.SPHERE])
def test_evaluations_count_every_row_of_raced_restarts(monkeypatch, mode):
    # a trace-norm cell whose restarts still climb at step 16 in both modes
    space = {e.name: e for e in corpus.build_corpus()}["trace_class_2"].space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    monkeypatch.setattr(witness, "ASCENT_STEPS", 40)
    cfg = witness.SearchConfig(restarts=8)
    cell = [(1.0, (5, 1, 1))]
    log = []
    f, g = counted(obj, grad, log)
    res, = witness.maximize_violation(f, space, 1, cfg, cells=cell, mode=mode, gradient=g)
    assert res.stopped > 0
    assert res.evaluations == sum(rows for _, rows in log)
    # the race saves evaluations; here it keeps the winning restart
    monkeypatch.setattr(witness, "_RACE_STEPS", ())
    plain, = witness.maximize_violation(obj, space, 1, cfg, cells=cell, mode=mode, gradient=grad)
    assert plain.stopped == 0
    assert res.evaluations < plain.evaluations
    assert res.best_value == plain.best_value


def test_snap_zeroes_whole_small_coefficients_and_never_reaches_the_origin():
    points = np.array([
        [[[0.5, 1e-3 + 1e-3j, 0.0]]],  # one small entry: zeroed whole
        [[[0.5, 0.2, 0.0]]],  # no small nonzero entry: no snap
        [[[1e-3, 1e-3j, 0.0]]],  # every entry small: the snap would be the origin
        [[[1e-3 + 0.5j, 0.5, 2e-3]]],  # a small real part alone keeps its entry
    ])
    snap, snaps = witness._snap(points, np.full(4, 0.01))
    assert snap.tolist() == [True, False, False, True]
    assert snaps.tolist() == [[[[0.5, 0.0, 0.0]]], [[[1e-3 + 0.5j, 0.5, 0.0]]]]


def trial_rows(mode):
    """The trial points one restart's line search evaluates per step."""
    return witness._LINE_SCALES.size + (witness._RADIAL_SCALES.size if mode == witness.BALL else 0)


@pytest.mark.parametrize("mode", [witness.BALL, witness.SPHERE])
def test_snap_row_rides_a_trial_batch_and_counts_once(mode):
    # four-rotation on linf3_e1 peaks at sparse points such as -e3, at sqrt(2) - 1
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    log = []
    f, g = counted(obj, grad, log)
    res, = witness.maximize_violation(f, space, 1, witness.SearchConfig(restarts=1), cells=[(1.0, (15,))],
                                      mode=mode, gradient=g)
    assert res.evaluations == sum(rows for _, rows in log)
    trials = [rows for kind, rows in log[2:] if kind == "objective"]
    # one restart: each trial batch holds its trial points, and one more row when it snaps
    assert {rows for rows in trials} == {trial_rows(mode), trial_rows(mode) + 1}
    assert res.best_value == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    assert (res.best_point.coeffs == 0).sum() == 2  # the witness is a multiple of one basis element


def test_hot_step_projects_its_trials_and_snap_rows_in_one_call(monkeypatch):
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    monkeypatch.setattr(witness, "ASCENT_STEPS", 60)
    projected = []
    project = witness._project

    def counted_project(space, coeffs, radius, mode):
        projected.append(int(np.prod(coeffs.shape[:-3])))
        return project(space, coeffs, radius, mode)

    monkeypatch.setattr(witness, "_project", counted_project)
    log = []
    f, g = counted(obj, grad, log)
    cells = [(r, (14, 1, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    results = witness.maximize_violation(f, space, 1, witness.SearchConfig(restarts=4), cells=cells, gradient=g)
    assert all(res.best_value > 1e-6 for res in results)
    steps = [rows for kind, rows in log[1:] if kind == "objective"]  # after the starts' batch
    # each step projects exactly the rows it evaluates, in one call
    assert projected == steps
    assert any(rows % trial_rows(witness.BALL) for rows in steps)  # some of them carry snap rows


@pytest.mark.parametrize("entry_name, level", [("linf3_e1", 1), ("full_matrix_2", 2), ("trace_class_2", 1)])
def test_four_rotation_measures_x_and_its_rotations_in_one_kernel_call(monkeypatch, entry_name, level):
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    calls = []
    for name in ("block_norms", "block_norm_cotangents", "realize_fibers_adjoint_stack"):
        def counted_kernel(*args, _kernel=getattr(spaces, name), _name=name):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(spaces, name, counted_kernel)
    pts = spaces.random_stack(space, level, matcore.stream(3, level), 5)
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, level)
    obj(pts)
    assert calls == ["block_norms"]
    calls.clear()
    grad(pts)
    assert calls == ["block_norm_cotangents", "realize_fibers_adjoint_stack"]
    if space.norm_mode == spaces.LEVEL1_ORACLE:
        return  # the t-gadget needs 2x2 blocks over X
    # the t-gadget's blocks are twice as wide and high as x's: two kernel calls, one pullback
    obj, grad = criteria.SEARCH_CRITERIA["unitary-t-gadget"].objective(space, space.unit, level)
    calls.clear()
    obj(pts)
    grad(pts)
    assert calls == ["block_norms"] * 2 + ["block_norm_cotangents"] * 2 + ["realize_fibers_adjoint_stack"]


def test_starts_of_all_cells_are_scaled_in_one_call(monkeypatch):
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 2)
    monkeypatch.setattr(witness, "ASCENT_STEPS", 2)
    scaled = []
    scale_to_norms = spaces.scale_to_norms

    def counted_scale(space, coeffs, target_norms):
        scaled.append(coeffs.shape[0])
        return scale_to_norms(space, coeffs, target_norms)

    monkeypatch.setattr(spaces, "scale_to_norms", counted_scale)
    cells = [(r, (6, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    for mode in (witness.BALL, witness.SPHERE):
        scaled.clear()
        witness.maximize_violation(obj, space, 2, witness.SearchConfig(restarts=3), cells=cells, mode=mode,
                                   gradient=grad)
        assert scaled == [3 * len(cells)]


def test_one_blend_equals_the_split_blends():
    rng = matcore.stream(3, 1)
    shape = (9, 2, 2, 3)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b[1] = a[1]  # a zero segment
    a[2] = 0.0
    b[3, 0, 1, 2] = np.nan  # a non-finite end: the blend keeps a
    b[4, 1, 0, 0] = np.inf
    b[5] = 1e3 * a[5]  # lambda clipped at 1: the blend is a
    a[6] = 1e3 * b[6]  # lambda clipped at 0: the blend is b
    for cut in (0, 1, 4, 8, 9):
        split = [witness._min_norm_pair(a[:cut], b[:cut]), witness._min_norm_pair(a[cut:], b[cut:])]
        assert np.array_equal(witness._min_norm_pair(a, b), np.concatenate(split), equal_nan=True), cut


@pytest.mark.parametrize("entry_name, mode, level", [
    ("linf3_e1", witness.BALL, 1),
    ("linf3_e1", witness.SPHERE, 2),
    ("column_H2", witness.BALL, 2),
    ("trace_class_2", witness.SPHERE, 1),
])
def test_snapping_cells_ascend_independently(monkeypatch, entry_name, mode, level):
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, level)
    monkeypatch.setattr(witness, "ASCENT_STEPS", 60)
    cfg = witness.SearchConfig(restarts=4)
    cells = [(r, (14, level, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    log = []
    f, g = counted(obj, grad, log)
    merged = witness.maximize_violation(f, space, level, cfg, cells=cells, mode=mode, gradient=g)
    # some trial batch carries snap rows: a row count that is no multiple of the trial points
    assert any(rows % trial_rows(mode) for kind, rows in log[2:] if kind == "objective")
    for cell, res in zip(cells, merged):
        alone, = witness.maximize_violation(obj, space, level, cfg, cells=[cell], mode=mode,
                                            gradient=grad)
        assert res.best_value > cfg.tolerance
        assert same_result(res, alone), cell


@pytest.mark.parametrize("entry_name, tolerance", [
    ("full_matrix_2", 1e-6),  # four-rotation holds: every value stays at or below 0
    ("linf3_e1", 1.0),  # values reach sqrt(2) - 1 but never the tolerance
])
def test_cell_holding_no_violation_never_snaps(monkeypatch, entry_name, tolerance):
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    cfg = witness.SearchConfig(restarts=8, tolerance=tolerance)
    cells = [(r, (15, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    start = spaces.LevelElement(1, np.zeros((1, 1, space.dim), dtype=complex))
    start.coeffs[0, 0, :3] = [0.3, 1e-4j, -0.6]
    searched = witness.maximize_violation(obj, space, 1, cfg, cells=cells, gradient=grad)
    refined = witness.refine_witness(obj, space, start, 1.0, gradient=grad)
    monkeypatch.setattr(witness, "SNAP_STEPS", 0)
    plain = witness.maximize_violation(obj, space, 1, cfg, cells=cells, gradient=grad)
    for a, b in zip(searched, plain):
        assert a.best_value <= tolerance
        assert same_result(a, b)
    # refine_witness never snaps either, even from a point with a small coefficient
    assert same_result(refined, witness.refine_witness(obj, space, start, 1.0, gradient=grad))


@pytest.mark.parametrize("entry_name, criterion, margin, samples", [
    ("linf3_e1", "unitary-four-rotation", -0.4142135620355629, 18145),
    ("linf3_e1", "unitary-t-gadget", -0.4142135620373888, 20345),
    ("linf3_e1", "isometry", -0.4142135623465044, 2476),
    ("column_H2", "unitary-four-rotation", -0.1075869819364863, 10337),
])
def test_snap_steps_zero_reproduces_the_search_without_snaps(monkeypatch, entry_name, criterion, margin,
                                                             samples):
    # the margins and sample counts of these reports at seed 1729 with neither the snap trial nor the caps
    entry = {e.name: e for e in corpus.build_corpus()}[entry_name]
    cfg = corpus.entry_config(entry, witness.SearchConfig(seed=1729))
    snapping = criteria.run_check(entry.space, criterion, cfg)
    monkeypatch.setattr(witness, "SNAP_STEPS", 0)
    spec = criteria.SEARCH_CRITERIA[criterion]
    plain = dataclasses.replace(spec, cap=None).check(entry.space, cfg=cfg)
    assert plain.verdict == snapping.verdict == criteria.VIOLATED
    assert plain.margin == pytest.approx(margin, rel=1e-12, abs=0)
    assert plain.samples == samples
    # snapping finds at least as large a violation with fewer samples
    assert abs(snapping.margin) >= abs(plain.margin) - 1e-9
    assert snapping.samples < plain.samples


def row_caps(criterion, space, u=None):
    """The criterion's cap on each ball of ``criteria.RADIUS_SWEEP``, at the space's unit or ``u``."""
    u = space.unit if u is None else u
    nu = spaces.norm(space, spaces.LevelElement(1, u.reshape(1, 1, -1)))
    return [criteria.SEARCH_CRITERIA[criterion].cap(r, nu) for r in criteria.RADIUS_SWEEP]


def test_dominated_cell_stops_and_takes_fewer_evaluations(monkeypatch):
    # the radius-1 cell reaches sqrt(2) - 1; 0.4 bounds the smaller balls too, and none comes near it
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    monkeypatch.setattr(witness, "ASCENT_STEPS", 60)
    cfg = witness.SearchConfig(restarts=4)
    cells = [(r, (16, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    caps = [row_caps("unitary-four-rotation", space)[0], 0.4, 0.4, 0.4]
    merged = witness.maximize_violation(obj, space, 1, cfg, cells=cells, gradient=grad, caps=caps)
    assert merged[0].best_value > 0.4
    for c, (cell, res) in enumerate(zip(cells, merged)):
        alone, = witness.maximize_violation(obj, space, 1, cfg, cells=[cell], gradient=grad, caps=caps[c:c + 1])
        if c == 0:  # no other cell's value rules the winner out
            assert same_result(res, alone)
            continue
        assert res.capped > 0 and alone.capped == 0
        assert res.evaluations < alone.evaluations
        assert res.best_value <= alone.best_value < 0.4


def test_cell_at_its_cap_stops_with_the_same_best_value():
    # four-rotation on linf3_e1 attains its radius-1 cap sqrt(2) - 1 at -e3
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    cfg = witness.SearchConfig(restarts=8)
    cap = row_caps("unitary-four-rotation", space)[0]
    capped, = witness.maximize_violation(obj, space, 1, cfg, cells=[(1.0, (17,))], gradient=grad, caps=[cap])
    plain, = witness.maximize_violation(obj, space, 1, cfg, cells=[(1.0, (17,))], gradient=grad)
    assert capped.capped > 0 and plain.capped == 0
    assert capped.best_value == plain.best_value == math.sqrt(2) - 1
    assert capped.evaluations < plain.evaluations


@pytest.mark.parametrize("entry_name, criterion, plain_evaluations", [
    ("linf3_e1", "coisometry", 210),
    ("linf3_e1", "isometry", 210),
    ("column_H2", "coisometry", 334),
    ("left_identity_pair", "isometry", 189),
])
def test_sphere_cell_at_its_cap_stops_every_running_restart_on_that_step(monkeypatch, entry_name, criterion,
                                                                         plain_evaluations):
    # each row's deviation reaches the sphere cap sqrt(2) - 1 within a few steps, at a basis element
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    spec = criteria.SEARCH_CRITERIA[criterion]
    obj, grad = spec.objective(space, space.unit, 1)
    cap = spec.cap(1.0, spaces.norm(space, spaces.unit_element(space)))
    calls, beaten, stopped_by = [], [], []
    real_beaten, real_ascent = witness._beaten, witness._ascent

    def counted(coeffs):
        calls.append(len(coeffs))
        return obj(coeffs)

    def spy_beaten(*args):
        out = real_beaten(*args)
        beaten.append(bool(out[0]))
        return out

    def spy_ascent(*args, **kwargs):
        out = real_ascent(*args, **kwargs)
        stopped_by.append(out[3].copy())
        return out

    monkeypatch.setattr(witness, "_beaten", spy_beaten)
    monkeypatch.setattr(witness, "_ascent", spy_ascent)
    cfg = witness.SearchConfig(restarts=8)
    cell = [(1.0, (20, 1))]
    capped, = witness.maximize_violation(counted, space, 1, cfg, cells=cell, mode=witness.SPHERE, gradient=grad,
                                         caps=[cap])
    steps = len(calls) - 1  # one objective batch for the starts, then one per step
    plain, = witness.maximize_violation(obj, space, 1, cfg, cells=cell, mode=witness.SPHERE, gradient=grad)
    # the search ends on the first step at which the cell's best reaches its cap
    assert cap == math.sqrt(2) - 1
    assert beaten == [False] * (steps - 1) + [True] and steps <= 3
    # every restart still running then stopped at the cap; the others had stopped on their own, so the
    # search without the caps ends them at the same values
    codes = stopped_by[0]
    assert set(codes.tolist()) <= {0, witness._CAPPED}
    assert capped.capped == (codes == witness._CAPPED).sum() > 0
    for j in np.nonzero(codes == 0)[0]:
        assert capped.restart_bests[j] == plain.restart_bests[j]
    assert cap - witness._STALL_EPS <= capped.best_value <= plain.best_value == cap
    # without the caps the search is what it was before the sphere rows had one
    assert plain.capped == 0 and (stopped_by[1] != witness._CAPPED).all()
    assert plain.evaluations == plain_evaluations > capped.evaluations


@pytest.mark.parametrize("entry_name, criterion, level", [
    ("linf3_e1", "unitary-four-rotation", 1),
    ("linf3_e1", "unitary-t-gadget", 2),
    ("column_H2", "unitary-t-gadget", 1),
    ("twisted_selfadjoint", "operator-system", 1),
    ("trace_class_2", "unitary-four-rotation", 1),
    ("lower_triangular_L12", "unitary-four-rotation", 1),
])
def test_cells_no_rival_rules_out_ascend_independently(monkeypatch, entry_name, criterion, level):
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    obj, grad = criteria.SEARCH_CRITERIA[criterion].objective(space, space.unit, level)
    monkeypatch.setattr(witness, "ASCENT_STEPS", 60)
    cfg = witness.SearchConfig(restarts=4)
    cells = [(r, (18, level, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    caps = row_caps(criterion, space)
    merged = witness.maximize_violation(obj, space, level, cfg, cells=cells, gradient=grad, caps=caps)
    kept = 0
    for c, (cell, cap, res) in enumerate(zip(cells, caps, merged)):
        rivals = [o.best_value for o in merged[:c] + merged[c + 1:] if o.best_value > cfg.tolerance]
        guard = witness._CAP_ULPS * np.finfo(float).eps * max(abs(cap), 1.0)
        if rivals and cap + guard < max(rivals):
            continue  # another cell's value proves this one cannot win
        alone, = witness.maximize_violation(obj, space, level, cfg, cells=[cell], gradient=grad, caps=[cap])
        assert same_result(res, alone), cell
        kept += 1
    assert kept > 0


@pytest.mark.parametrize("entry_name, tolerance", [
    ("full_matrix_2", 1e-6),  # four-rotation holds: every value stays at or below 0
    ("linf3_e1", 1.0),  # values reach their caps, sqrt(1 + r) - 1, but never the tolerance
])
def test_search_holding_no_violation_is_the_same_with_and_without_caps(entry_name, tolerance):
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    cfg = witness.SearchConfig(restarts=8, tolerance=tolerance)
    cells = [(r, (19, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    capped = witness.maximize_violation(obj, space, 1, cfg, cells=cells, gradient=grad,
                                        caps=row_caps("unitary-four-rotation", space))
    plain = witness.maximize_violation(obj, space, 1, cfg, cells=cells, gradient=grad)
    for a, b in zip(capped, plain):
        assert a.best_value <= tolerance
        assert a.capped == 0
        assert same_result(a, b)


#: The corpus rows whose VIOLATED search stops at its cap at seeds 7, 1729 and 4242 (the radius-1 ball cap
#: sqrt(2) - 1 of the unitary rows on linf3_e1, and the sphere cap sqrt(2) - 1).
AT_CAP_ROWS = [("linf3_e1", "unitary-four-rotation"), ("linf3_e1", "unitary-t-gadget"),
               ("linf3_e1", "coisometry"), ("linf3_e1", "isometry"), ("column_H2", "coisometry"),
               ("left_identity_pair", "isometry")]


def polish_calls(monkeypatch, entry_name, criterion, seed):
    """The corpus report of one row at ``seed``, and the arguments of each ``refine_witness`` call it made."""
    entry = {e.name: e for e in corpus.build_corpus()}[entry_name]
    calls, real = [], witness.refine_witness

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(witness, "refine_witness", spy)
    report = criteria.run_check(entry.space, criterion, corpus.entry_config(entry, witness.SearchConfig(seed=seed)))
    monkeypatch.undo()
    return report, calls


def full_polish(objective, space, point, radius, mode=witness.BALL, *, gradient):
    """The polish without a cap, written out: project, evaluate, ascend 4 * ASCENT_STEPS steps."""
    pts, _ = witness._project(space, point.coeffs[None].copy(), float(radius), mode)
    values = np.asarray(objective(pts), dtype=float)
    pts, values, evaluations, _ = witness._ascent(
        objective, gradient, space, pts, values, np.array([float(radius)]), mode,
        max_steps=4 * witness.ASCENT_STEPS, step0=np.array([witness.STEP_SIZE * radius / 10.0]))
    return float(values[0]), pts[0], int(evaluations[0])


def same_polish(res, ref):
    value, point, evaluations = ref
    return (res.best_value == value and np.array_equal(res.best_point.coeffs, point)
            and res.evaluations == evaluations and res.restart_bests == [value])


@pytest.mark.parametrize("seed", [7, 1729, 4242])
@pytest.mark.parametrize("entry_name, criterion", AT_CAP_ROWS)
def test_polish_of_a_witness_at_its_cap_is_its_start_evaluation(monkeypatch, entry_name, criterion, seed):
    report, calls = polish_calls(monkeypatch, entry_name, criterion, seed)
    assert report.verdict == criteria.VIOLATED
    (args, kwargs), = calls
    cap = kwargs.pop("cap")
    assert cap == math.sqrt(2) - 1  # the winning cell's cap: radius 1 in a ball, the unit sphere
    capped = witness.refine_witness(*args, **kwargs, cap=cap)
    plain = witness.refine_witness(*args, **kwargs)
    # no move of the full polish is accepted from there, so skipping it changes no bit but the evaluations
    assert capped.evaluations == 1 < plain.evaluations
    assert capped.best_value == plain.best_value == -report.margin
    assert np.array_equal(capped.best_point.coeffs, plain.best_point.coeffs)
    assert capped.best_value >= cap - witness._STALL_EPS


@pytest.mark.parametrize("entry_name, criterion, mode, radius", [
    ("linf3_e1", "unitary-four-rotation", witness.BALL, 1.0),
    ("linf3_e1", "unitary-four-rotation", witness.BALL, 0.25),
    ("linf3_e1", "unitary-t-gadget", witness.BALL, 0.5),
    ("twisted_selfadjoint", "operator-system", witness.BALL, 1.0),
    ("linf3_e1", "coisometry", witness.SPHERE, 1.0),
    ("column_H2", "coisometry", witness.SPHERE, 1.0),
])
def test_polish_below_its_cap_or_without_one_is_the_full_polish(entry_name, criterion, mode, radius):
    space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
    spec = criteria.SEARCH_CRITERIA[criterion]
    obj, grad = spec.objective(space, space.unit, 1)
    cap = spec.cap(radius, spaces.norm(space, spaces.unit_element(space)))
    rng = np.random.default_rng(31)
    for start in spaces.scale_to_norms(space, spaces.random_stack(space, 1, rng, 3), 0.5 * radius):
        point = spaces.LevelElement(1, start)
        projected, _ = witness._project(space, start[None], radius, mode)
        assert not witness._at_cap(float(obj(projected)[0]), cap)
        ref = full_polish(obj, space, point, radius, mode, gradient=grad)
        assert ref[2] > 1
        for c in (cap, None):
            assert same_polish(witness.refine_witness(obj, space, point, radius, mode, gradient=grad, cap=c), ref)


def test_polish_skips_exactly_where_the_cap_stop_would_stop():
    # linf3_e1 four-rotation at -e3 is sqrt(2) - 1 on the unit ball; caps just either side of the cap stop's
    # comparison give the start evaluation alone and the full polish
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    point = spaces.LevelElement(1, np.array([[[0, 0, -1.0]]], dtype=complex))
    value = float(obj(point.coeffs[None])[0])
    cap = value + witness._STALL_EPS
    while witness._at_cap(value, cap):
        cap = np.nextafter(cap, np.inf)
    while not witness._at_cap(value, cap):
        cap = np.nextafter(cap, -np.inf)
    at, above = cap, np.nextafter(cap, np.inf)
    assert witness._beaten(np.array([value]), np.array([True]), np.array([at]), np.zeros((1, 1), bool))[0]
    assert not witness._beaten(np.array([value]), np.array([True]), np.array([above]), np.zeros((1, 1), bool))[0]
    ref = full_polish(obj, space, point, 1.0, gradient=grad)
    skipped = witness.refine_witness(obj, space, point, 1.0, gradient=grad, cap=at)
    assert skipped.evaluations == 1 and skipped.best_value == value
    assert same_polish(witness.refine_witness(obj, space, point, 1.0, gradient=grad, cap=above), ref)


def shell_objective(space, center, width, height):
    """-||x|| plus a bump of ``height`` at norm ``center``: its only violations lie in a thin shell."""
    def bump(t):
        return height * np.exp(-(((t - center) / width) ** 2))

    def f(coeffs):
        t = spaces.norm_stack(space, coeffs)
        return bump(t) - t

    def g(coeffs):
        t, W = matcore.norm_cotangent_stack(spaces.realize_stack(space, coeffs))
        slope = -1.0 - bump(t) * 2.0 * (t - center) / width**2
        return slope[:, None, None, None] * realize_adjoint_stack(space, W)

    return f, g


def test_violation_in_a_shell_near_the_origin_is_still_found(m2):
    # the only values above the tolerance (about 1e-5) sit at ||x|| = 1e-3 x the largest radius
    f, g = shell_objective(m2, 1e-3, 1e-4, 1e-3 + 1e-5)
    cfg = witness.SearchConfig(restarts=8)
    cells = [(r, (11, ri)) for ri, r in enumerate(criteria.RADIUS_SWEEP)]
    results = witness.maximize_violation(f, m2, 1, cfg, cells=cells, gradient=g)
    assert max(res.best_value for res in results) > 1e-6
    for res in results:
        if res.best_value > cfg.tolerance:
            assert 0.9e-3 < spaces.norm(m2, res.best_point) < 1.1e-3


def test_unit_of_norm_below_one_is_violated_at_the_origin():
    # f(0) = 1 - ||u|| = 0.1: the search converges to the origin
    space = corpus.build_l1_2_diag_trace().space
    rep = criteria.CRITERION_RUNNERS["unitary-four-rotation"](space, u=np.array([0.9, 0.0]))
    assert rep.verdict == criteria.VIOLATED
    assert rep.margin == pytest.approx(-0.1, abs=1e-8)
    assert rep.witness["aux"]["witness_norm"] < 1e-6
    assert not any("origin" in note for note in rep.notes)


@pytest.mark.parametrize("name", ["tolerance"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_refuses_non_finite_reals(name, bad):
    with pytest.raises(InvalidInputError, match=f"SearchConfig.{name} "):
        witness.SearchConfig(**{name: bad})


@pytest.mark.parametrize("name", ["max_level", "restarts", "threads", "seed"])
@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3"])
def test_config_refuses_non_integer_counts(name, bad):
    with pytest.raises(InvalidInputError, match=f"SearchConfig.{name} "):
        witness.SearchConfig(**{name: bad})


#: The budgets that became constants, each with a call that would set it.
FIXED_BUDGETS = {
    "radius": lambda: witness.SearchConfig(radius=0.5),
    "ascent_steps": lambda: witness.SearchConfig(ascent_steps=30),
    "step_size": lambda: witness.SearchConfig(step_size=0.1),
    "circle_samples": lambda: witness.SearchConfig(circle_samples=90),
    "t_max": lambda: witness.SearchConfig(t_max=2.0),
    "b_samples": lambda: witness.SearchConfig(b_samples=8),
    "n_pairs": lambda: criteria.check_cstar_among_systems(corpus.build_full_matrix(2).space, n_pairs=4),
    "n_contractions": lambda: criteria.check_cstar_among_systems(corpus.build_full_matrix(2).space,
                                                                 n_contractions=4),
    "target_norm": lambda: spaces.random_stack(corpus.build_full_matrix(2).space, 1, matcore.stream(1), 1,
                                               target_norm=1.0),
    "multiplication_tensor-tol": lambda: criteria.multiplication_tensor(corpus.build_full_matrix(2).space, tol=1e-6),
    "psd_sqrt-tol": lambda: psd_sqrt(np.eye(2), tol=1e-6),  # the row-identity oracle's, in conftest
}


@pytest.mark.parametrize("name", sorted(FIXED_BUDGETS))
def test_fixed_budgets_are_not_settable(name):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        FIXED_BUDGETS[name]()


def test_config_accepts_numpy_scalars():
    witness.SearchConfig(max_level=np.int64(2), seed=np.uint32(7), tolerance=np.float64(0.5))
    witness.SearchConfig(tolerance=1)


def test_config_validation():
    with pytest.raises(Exception):
        witness.SearchConfig(tolerance=-1)
    with pytest.raises(Exception):
        witness.SearchConfig(max_level=0)
    cfg = witness.SearchConfig()
    big = corpus.build_l1_2_model(64).space
    dataclasses.replace(cfg, max_level=2).guard_ambient(big)
    with pytest.raises(Exception):
        dataclasses.replace(cfg, max_level=10).guard_ambient(big)


def test_config_is_validated_when_built_and_frozen():
    with pytest.raises(InvalidInputError, match="SearchConfig.tolerance must be a finite number"):
        witness.SearchConfig(tolerance=math.nan, restarts=-5, threads=0)
    cfg = witness.SearchConfig()
    with pytest.raises(InvalidInputError, match="SearchConfig.restarts must be nonnegative"):
        dataclasses.replace(cfg, restarts=-1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.restarts = -1
    assert cfg.restarts == 64
    assert dataclasses.replace(cfg, restarts=8).restarts == 8


def reference_draws(space, level, seed, cells, mode, restarts):
    """The starts and radii drawn one restart at a time, each from its own ``matcore.stream``."""
    draws, radii = [], []
    for radius, key in cells:
        for j in range(restarts):
            rng = matcore.stream(seed, *key, j)
            r = float(radius)
            if mode != witness.SPHERE:
                r = radius * np.exp(rng.uniform(np.log(witness.MIN_RADIUS_FRACTION), 0.0))
            draws.append(spaces.random_stack(space, level, rng, 1)[0])
            radii.append(r)
    return np.array(draws).reshape(-1, level, level, space.dim), np.array(radii)


DRAW_CELLS = [(1.0, (5, 1, 0)), (0.5, (5, 1, 1)), (0.25, (5, 1, 2)), (0.1, (5, 1, 3))]


@pytest.mark.parametrize("restarts", [1, 8, 16])
@pytest.mark.parametrize("n_cells", [1, 4])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("mode", [witness.BALL, witness.SPHERE])
def test_batched_draws_are_the_per_restart_streams(m2, mode, level, n_cells, restarts):
    # restart j >= 1 of each cell would show a generator state left over from restart j - 1
    cells = DRAW_CELLS[:n_cells]
    draws, radii = witness._draw_starts(m2, level, 1729, cells, mode, restarts)
    want_draws, want_radii = reference_draws(m2, level, 1729, cells, mode, restarts)
    assert np.array_equal(draws, want_draws)
    assert np.array_equal(radii, want_radii)


@pytest.mark.parametrize("mode", [witness.BALL, witness.SPHERE])
def test_the_first_restarts_of_a_longer_draw_are_a_shorter_draw(m2, mode):
    many = witness._draw_starts(m2, 2, 4242, DRAW_CELLS, mode, 16)
    few = witness._draw_starts(m2, 2, 4242, DRAW_CELLS, mode, 8)
    for long, short in zip(many, few):
        assert np.array_equal(long.reshape(len(DRAW_CELLS), 16, *long.shape[1:])[:, :8],
                              short.reshape(len(DRAW_CELLS), 8, *short.shape[1:]))
