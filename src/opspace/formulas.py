"""Randomized verification suites for the block-matrix norm identities.

Each suite draws seeded random matrices, evaluates both sides of an identity
and reports the largest deviation observed.  These identities are what the
criteria ultimately lean on, so the suites double as a self-test of the whole
norm layer.

Each suite group draws from one stream: a pair suite from (seed, suite), a
gadget suite from (seed, suite, space, level) for each of its (space, level)
groups.  The draws fill the group in trial-major order, so trial t gets what
the t-th of successive draws of one standard complex Gaussian 3 x 3 matrix
(pairs) or one-grid ``spaces.random_stack`` (gadgets) calls on that stream
would draw, and its matrices do not depend on how many trials run.  The
trials are then evaluated as stacks: the pair suites as (c, 3, 3) stacks of a
and b, c trials at a time, in chunks of at most ``_PAIR_CHUNK_BYTES`` of
normals each (successive ``normal`` calls on one stream draw what one call
would, and a max is exact in any order, so the chunk size moves no bit), and
the gadget suites one (space, level) group at a time, realized, measured
with ``spaces.norm_stack`` and assembled with the ``gadgets`` stack helpers.
Every pair and gadget norm is one ``matcore.op_norm_stack`` call per stack,
the kernel that ``matcore.op_norm`` runs on a single matrix, so every
deviation is bit for bit what one trial at a time gives.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import gadgets, matcore, spaces
from .corpus import build_full_matrix, build_upper_triangular
from .errors import InvalidInputError

__all__ = ["SuiteResult", "run_all_suites", "t_norm_closed_form"]

#: Bytes of the normals a pair suite draws at once: ``trials`` pass in chunks of
#: as many trials as fit (at least one), so the memory stays bounded whatever
#: the trial count.
_PAIR_CHUNK_BYTES = 1 << 20
#: Bytes of the normals of one pair trial: a and b, real and imaginary parts, 3 x 3 each.
_PAIR_TRIAL_BYTES = 2 * 2 * 3 * 3 * 8


@dataclass
class SuiteResult:
    name: str
    trials: int
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": int(self.trials),
            "max_deviation": float(self.max_deviation),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }


def t_norm_closed_form(s):
    """||[[1, x], [0, 1]]||^2 as a function of s = ||x|| in any unitally embedded space."""
    s = np.asarray(s, dtype=float)
    return 0.5 * (2.0 + s**2 + s * np.sqrt(s**2 + 4.0))


def _pair_stacks(trials: int, seed: int, tag: int):
    """(c, 3, 3) stacks of a and b from the stream (seed, tag), one chunk of c trials at a time, ``trials`` in all.

    Trial t's a and b are the (2t)-th and (2t+1)-th of successive draws of
    one 3 x 3 matrix (z / sqrt(2), z standard complex Gaussian): each the real
    parts, then the imaginary parts.  A chunk is one ``normal`` call of at
    most ``_PAIR_CHUNK_BYTES``.
    """
    rng = matcore.stream(seed, tag)
    size = max(1, _PAIR_CHUNK_BYTES // _PAIR_TRIAL_BYTES)
    for start in range(0, trials, size):
        z = rng.normal(size=(min(size, trials - start), 2, 2, 3, 3))
        pairs = (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)
        yield pairs[:, 0], pairs[:, 1]


def _pair_suite(name: str, tag: int, trials: int, seed: int, deviations) -> SuiteResult:
    """Largest of ``deviations(a, b)`` over ``trials`` random 3x3 pairs, measured chunk by chunk (NaN propagates)."""
    worst = [np.max(deviations(a, b)) for a, b in _pair_stacks(trials, seed, tag)]
    return SuiteResult(name, trials, float(np.max(worst)), 1e-9)


def _sum_diff_deviations(a, b):
    """||[[a, b], [b, a]]|| = max(||a + b||, ||a - b||)."""
    lhs = matcore.op_norm_stack(gadgets.two_by_two_stack(a, b, b, a))
    return np.abs(lhs - np.maximum(matcore.op_norm_stack(a + b), matcore.op_norm_stack(a - b)))


def _rotation_deviations(a, b):
    """||[[a, -b], [b, a]]|| = max(||a + ib||, ||a - ib||)."""
    lhs = matcore.op_norm_stack(gadgets.two_by_two_stack(a, -b, b, a))
    return np.abs(lhs - np.maximum(matcore.op_norm_stack(a + 1j * b), matcore.op_norm_stack(a - 1j * b)))


def _gadget_suite(name: str, tag: int, test_spaces, trials: int, seed: int, deviations) -> SuiteResult:
    """Largest of ``deviations(space, Vn, X, coeffs)`` over every (space, level) group of ``trials`` elements.

    Each group draws its ``trials`` elements from one stream (seed, tag, si,
    level) and is then one stack: ``coeffs`` the grids, X their ambient
    matrices and Vn the amplified unit.  The groups' maxima are combined by
    ``np.max``, as in ``_pair_suite``, so a NaN deviation propagates and fails
    the suite.
    """
    worst = []
    for si, space in enumerate(test_spaces):
        for level in (1, 2):
            coeffs = spaces.random_stack(space, level, matcore.stream(seed, tag, si, level), trials)
            X = spaces.realize_stack(space, coeffs)
            Vn = matcore.scalar_amplify(spaces.unit_matrix(space), level)
            worst.append(np.max(deviations(space, Vn, X, coeffs)))
    return SuiteResult(name, len(worst) * trials, float(np.max(worst)), 1e-8)


def _square(norms: np.ndarray) -> np.ndarray:
    """Squares by libm ``pow``, as Python's ``float ** 2`` takes them; ``x * x`` can differ in the last bit."""
    return np.float_power(norms, 2.0)


def _doubling_deviations(space, Vn, X, coeffs):
    """||t_x||^2 = (2 + ||x||^2 + ||x|| sqrt(||x||^2 + 4)) / 2 with v the ambient identity."""
    g = gadgets.t_stack(Vn, X)
    return np.abs(_square(matcore.op_norm_stack(g)) - t_norm_closed_form(spaces.norm_stack(space, coeffs)))


def _symmetric_deviations(space, Vn, X, coeffs):
    """||s_x|| = 1 + ||x|| on selfadjoint unital spaces."""
    Xs = spaces.realize_stack(space, spaces.involution_stack(space, coeffs))
    g = gadgets.two_by_two_stack(Vn, X, Xs, Vn)
    return np.abs(matcore.op_norm_stack(g) - (1.0 + spaces.norm_stack(space, coeffs)))


def _skew_deviations(space, Vn, X, coeffs):
    """||r_x|| = sqrt(1 + ||x||^2) on selfadjoint unital spaces."""
    Xs = spaces.realize_stack(space, spaces.involution_stack(space, coeffs))
    g = gadgets.two_by_two_stack(Vn, X, -Xs, Vn)
    return np.abs(matcore.op_norm_stack(g) - np.sqrt(1.0 + _square(spaces.norm_stack(space, coeffs))))


def run_all_suites(trials: int = 200, seed: int = 1729, gadget_trials: int = 100) -> list:
    """Run every identity suite; the pair suites use ``trials``, the gadget suites ``gadget_trials``."""
    for name, value in (("trials", trials), ("gadget_trials", gadget_trials)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
            raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")
    # the gadget suites' test spaces, each built once per call: M_2 and M_3 are
    # unital and selfadjoint, UT_2 only unital
    m2, m3, ut2 = build_full_matrix(2).space, build_full_matrix(3).space, build_upper_triangular(2).space
    return [
        _pair_suite("sum-diff block identity", 21, trials, seed, _sum_diff_deviations),
        _pair_suite("rotation block identity", 22, trials, seed, _rotation_deviations),
        _gadget_suite("doubling gadget closed form", 23, [m2, m3, ut2], gadget_trials, seed, _doubling_deviations),
        _gadget_suite("symmetric gadget norm", 24, [m2, m3], gadget_trials, seed, _symmetric_deviations),
        _gadget_suite("skew gadget norm", 25, [m2, m3], gadget_trials, seed, _skew_deviations),
    ]
