"""Analytic ascent directions against a central-difference reference kept in this file."""

import numpy as np
import pytest

from opspace import corpus, criteria, matcore

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
