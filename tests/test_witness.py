import dataclasses
import math

import numpy as np
import pytest

from opspace import corpus, criteria, matcore, spaces, witness
from opspace.errors import InvalidInputError


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
    res, = witness.maximize_violation(norm_objective(m2), m2, 1, cfg, gradient=norm_gradient(m2))
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
    cfg = witness.SearchConfig()
    # the exact witness is a maximizer along its ray; refinement must hold the value
    e2 = spaces.LevelElement(1, np.array([[[0, 1.0, 0]]], dtype=complex))
    start = float(obj(e2.coeffs[None])[0])
    res = witness.refine_witness(obj, space, e2, cfg, radius=1.0, gradient=grad)
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
    res = witness.refine_witness(counted_obj, space, start, witness.SearchConfig(), radius=1.0,
                                 gradient=counted_grad)
    assert calls["objective"] > 1 and calls["gradient"] > 0
    assert res.evaluations == calls["objective"] + calls["gradient"]


def test_refine_keeps_zero_fixed_under_nonpositive_objective(m2):
    def neg_norm(coeffs):
        return -spaces.norm_stack(m2, coeffs)

    z = spaces.zero_element(m2)
    res = witness.refine_witness(neg_norm, m2, z, witness.SearchConfig(), radius=1.0,
                                 gradient=norm_gradient(m2, sign=-1.0))
    assert res.best_value == pytest.approx(0.0, abs=1e-12)


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


#: The four radius cells a default-config ball search sweeps, largest first.
DEFAULT_RADII = (1.0, 0.5, 0.25, 0.1)


def same_result(a, b):
    return (a.best_value == b.best_value
            and a.best_point.coeffs.tobytes() == b.best_point.coeffs.tobytes()
            and a.evaluations == b.evaluations
            and a.restart_bests == b.restart_bests)


@pytest.mark.parametrize("mode, level, dead_cell", [
    (witness.BALL, 1, False),
    (witness.BALL, 2, False),
    (witness.SPHERE, 1, False),
    (witness.SPHERE, 2, False),
    (witness.SPHERE, 1, True),
], ids=["ball-1", "ball-2", "sphere-1", "sphere-2", "sphere-1-dead-cell"])
def test_cells_ascend_independently(mode, level, dead_cell):
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, level)
    if dead_cell:
        # NaN beyond norm 0.75: every start of the radius-1 sphere cell dies at once
        live = obj

        def obj(coeffs):
            return np.where(spaces.norm_stack(space, coeffs) > 0.75, np.nan, live(coeffs))

    cfg = witness.SearchConfig(restarts=3, ascent_steps=40)
    cells = [(r, (5, level, ri)) for ri, r in enumerate(DEFAULT_RADII)]
    merged = witness.maximize_violation(obj, space, level, cfg, cells=cells, mode=mode, gradient=grad)
    assert len(merged) == len(cells)
    for cell, res in zip(cells, merged):
        alone, = witness.maximize_violation(obj, space, level, cfg, cells=[cell], mode=mode,
                                            gradient=grad)
        assert same_result(res, alone), cell
    if dead_cell:
        assert merged[0].restart_bests == [-np.inf] * 3
        assert all(np.isfinite(res.best_value) for res in merged[1:])


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
def test_one_gradient_batch_per_step_and_evaluations_count_rows(mode):
    # a searched corpus row; 40 steps leave restarts moving on the last step
    space = corpus.build_linf(3, "e1").space
    obj, grad = criteria.SEARCH_CRITERIA["unitary-four-rotation"].objective(space, space.unit, 1)
    cfg = witness.SearchConfig(restarts=1, ascent_steps=40)
    cells = [(r, (8, ri, j)) for ri, r in enumerate(DEFAULT_RADII) for j in range(2)]
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


@pytest.mark.parametrize("name", ["tolerance", "radius", "step_size", "t_max"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_refuses_non_finite_reals(name, bad):
    with pytest.raises(InvalidInputError, match=f"SearchConfig.{name} "):
        witness.SearchConfig(**{name: bad}).validate()


@pytest.mark.parametrize("name", ["max_level", "restarts", "ascent_steps", "circle_samples",
                                  "b_samples", "threads", "seed"])
@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3"])
def test_config_refuses_non_integer_counts(name, bad):
    with pytest.raises(InvalidInputError, match=f"SearchConfig.{name} "):
        witness.SearchConfig(**{name: bad}).validate()


def test_config_accepts_numpy_scalars():
    witness.SearchConfig(max_level=np.int64(2), seed=np.uint32(7), radius=np.float64(0.5),
                         tolerance=1).validate()


def test_config_validation():
    with pytest.raises(Exception):
        witness.SearchConfig(tolerance=-1).validate()
    with pytest.raises(Exception):
        witness.SearchConfig(max_level=0).validate()
    cfg = witness.SearchConfig()
    big = corpus.build_l1_2_model(64).space
    dataclasses.replace(cfg, max_level=2).guard_ambient(big)
    with pytest.raises(Exception):
        dataclasses.replace(cfg, max_level=10).guard_ambient(big)
