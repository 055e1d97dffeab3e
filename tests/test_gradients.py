"""Analytic ascent directions against a central-difference reference kept in this file.

The objective and gradient are also checked bit for bit against a two-call
reference kept here, which measures x and its gadget, and pulls their
cotangents back, in separate calls.
"""

import numpy as np
import pytest

from opspace import corpus, criteria, gadgets, matcore, spaces

FACTORIES = {short: criteria.SEARCH_CRITERIA[name].objective for short, name in (
    ("four-rotation", "unitary-four-rotation"),
    ("t-gadget", "unitary-t-gadget"),
    ("row", "coisometry"),
    ("column", "isometry"),
    ("r-gadget", "operator-system"),
)}

# (entry, levels): dense layout, fibered layout, trace-norm level-1 oracle
LAYOUTS = [
    ("full_matrix_2", (1, 2)),
    ("linf3_e1", (1, 2)),
    ("l1_2_model_64", (1,)),
    ("trace_class_2", (1,)),
]

FD_STEP = 1e-6
POINTS = 4


def central_difference(f, coeffs, h=FD_STEP):
    """d f / d Re(c) + i d f / d Im(c) at one coefficient grid, coordinate by coordinate."""
    grad = np.zeros_like(coeffs)
    for idx in np.ndindex(coeffs.shape):
        for unit in (1.0, 1j):
            e = np.zeros_like(coeffs)
            e[idx] = unit * h
            up, down = f(np.stack([coeffs + e, coeffs - e]))
            grad[idx] += unit * (up - down) / (2.0 * h)
    return grad


def generic_points(space, level, seed):
    """Seeded points with norms spread over (0.05, 0.9)."""
    rng = matcore.stream(seed, level)
    pts = []
    for _ in range(POINTS):
        z = rng.normal(size=(level, level, space.dim)) + 1j * rng.normal(size=(level, level, space.dim))
        pts.append(z * rng.uniform(0.05, 0.9) / np.linalg.norm(z))
    return np.stack(pts)


@pytest.fixture(scope="module")
def entries():
    return {e.name: e for e in corpus.build_corpus()}


@pytest.mark.parametrize("objective", sorted(FACTORIES))
@pytest.mark.parametrize("name,levels", LAYOUTS)
def test_gradient_matches_central_differences(entries, objective, name, levels):
    space = entries[name].space
    for level in levels:
        f, grad = FACTORIES[objective](space, space.unit, level)
        pts = generic_points(space, level, seed=20 + level)
        analytic = grad(pts)
        assert analytic.shape == pts.shape
        values = f(pts)
        for i, c in enumerate(pts):
            where = (name, objective, level, i)
            fd = central_difference(f, c)
            a = analytic[i]
            fd_norm, a_norm = np.linalg.norm(fd), np.linalg.norm(a)
            if abs(values[i]) < 1e-12:
                # the identity holds exactly here: a zero direction stops the restart
                assert a_norm < 1e-12, where
            elif fd_norm > 1e-6:
                cosine = np.real(np.vdot(fd, a)) / (fd_norm * a_norm)
                assert cosine >= 0.999, (where, cosine)


@pytest.mark.parametrize("name", ["full_matrix_2", "l1_2_model_64"])
def test_exact_identities_give_zero_directions(entries, name):
    """On a C*-algebra with its unit, the row, column and r identities hold at every point."""
    space = entries[name].space
    pts = generic_points(space, 1, seed=5)
    for objective in ("row", "column", "r-gadget"):
        f, grad = FACTORIES[objective](space, space.unit, 1)
        assert np.abs(f(pts)).max() < 1e-12, objective
        assert np.linalg.norm(grad(pts).reshape(POINTS, -1), axis=1).max() < 1e-12, objective


def two_call_reference(spec, space, u, level):
    """``spec.objective`` with x and the gadget measured, and pulled back, in separate calls."""
    vgrid = np.zeros((level, level, space.dim), dtype=np.complex128)
    vgrid[range(level), range(level)] = u
    unit = spaces.realize_fibers_stack(space, vgrid)
    assemble = getattr(gadgets, f"{spec.gadget}_stack")
    adjoint = getattr(gadgets, f"{spec.gadget}_stack_adjoint")

    def f(coeffs):
        X = spaces.realize_fibers_stack(space, coeffs)
        nx = spaces.block_norms(space, X)
        ng = spaces.block_norms(space, assemble(unit, X))
        if spec.rotations:
            ng = ng.max(axis=0)
        return spec.target(nx) - ng if spec.signed else np.abs(ng - spec.target(nx))

    def grad(coeffs):
        X = spaces.realize_fibers_stack(space, coeffs)
        nx, Wx = spaces.block_norm_cotangents(space, X)
        ng, Wg = spaces.block_norm_cotangents(space, assemble(unit, X))
        gx = spaces.realize_fibers_adjoint_stack(space, adjoint(ng, Wg) if spec.rotations else adjoint(Wg))
        tx = spec.slope(nx)[:, None, None, None] * spaces.realize_fibers_adjoint_stack(space, Wx)
        if spec.signed:
            return tx - gx
        return np.sign(ng - spec.target(nx))[:, None, None, None] * (gx - tx)

    return f, grad


def searched_rows():
    """(entry, criterion, level) for every searched criterion a corpus entry expects, at levels 1 and 2."""
    for entry in corpus.build_corpus():
        levels = (1,) if entry.space.norm_mode == spaces.LEVEL1_ORACLE else (1, 2)
        for name in entry.expected:
            if name in criteria.SEARCH_CRITERIA:
                yield from ((entry.name, name, level) for level in levels)


@pytest.mark.parametrize("name, criterion, level", list(searched_rows()))
def test_objective_and_gradient_equal_the_two_call_reference_bit_for_bit(entries, name, criterion, level):
    space = entries[name].space
    spec = criteria.SEARCH_CRITERIA[criterion]
    f, grad = spec.objective(space, space.unit, level)
    ref_f, ref_grad = two_call_reference(spec, space, space.unit, level)
    pts = generic_points(space, level, seed=40 + level)
    zero = np.zeros_like(pts[:1])
    nan = pts[:1].copy()
    nan[0, 0, 0, 0] = np.nan
    for stack in (pts, pts[:1], np.concatenate([pts, zero]), np.concatenate([zero, pts, nan])):
        # the kernels warn on a NaN row, the reference as much as the joint calls
        with np.errstate(invalid="ignore" if np.isnan(stack).any() else "raise"):
            assert np.array_equal(f(stack), ref_f(stack), equal_nan=True)
            # the objective also takes stacks with more leading axes
            assert np.array_equal(f(stack[None]), ref_f(stack)[None], equal_nan=True)
            try:
                expected = ref_grad(stack)
            except np.linalg.LinAlgError:
                # LAPACK refuses a NaN row on the shapes without a closed form; so must the joint call
                with pytest.raises(np.linalg.LinAlgError):
                    grad(stack)
                continue
            got = grad(stack)
            assert np.array_equal(got, expected, equal_nan=True)
            # and each row's values are what a stack of that row alone gives
            alone = [(f(row), grad(row)) for row in np.split(stack, len(stack))]
            assert np.array_equal(np.concatenate([v for v, _ in alone]), f(stack), equal_nan=True)
            assert np.array_equal(np.concatenate([d for _, d in alone]), got, equal_nan=True)

