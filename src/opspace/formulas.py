"""Randomized verification suites for the block-matrix norm identities.

Each suite draws seeded random matrices, evaluates both sides of an identity
and reports the largest deviation observed.  These identities are what the
criteria ultimately lean on, so the suites double as a self-test of the whole
norm layer.

Each suite group draws from one stream: a pair suite from (seed, suite), a
gadget suite from (seed, suite, space, level) for each of its (space, level)
groups.  One ``normal`` call fills the whole group in trial-major order, so
trial t gets what the t-th of successive ``matcore.rand_cmat`` (pairs) or
one-grid ``spaces.random_stack`` (gadgets) calls on that stream would draw,
and its matrices do not depend on how many trials run.  The trials are then
evaluated as stacks: the pair suites as (trials, 3, 3) stacks of a and b, the
gadget suites one (space, level) group at a time, realized, measured with
``spaces.norm_stack`` and assembled with the ``gadgets`` stack helpers.
Every pair and gadget norm is one ``matcore.op_norm_stack`` call per stack,
the kernel that ``matcore.op_norm`` runs on a single matrix, so every
deviation is bit for bit what one trial at a time gives.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import gadgets, matcore, spaces
from .corpus import build_full_matrix, build_upper_triangular
from .errors import InvalidInputError

__all__ = ["SuiteResult", "run_all_suites", "t_norm_closed_form", "BUG_ENV_VAR"]

#: Setting this environment variable flips a sign inside the sum/difference
#: suite; used to confirm the suites actually detect broken identities.
BUG_ENV_VAR = "OPSPACE_INJECT_BUG"


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


def _pair_stacks(trials: int, seed: int, tag: int) -> tuple[np.ndarray, np.ndarray]:
    """(trials, 3, 3) stacks of a and b from the stream (seed, tag).

    Trial t's a and b are the (2t)-th and (2t+1)-th of successive
    ``rand_cmat(3, 3, rng)`` draws: each the real parts, then the imaginary parts.
    """
    z = matcore.stream(seed, tag).normal(size=(trials, 2, 2, 3, 3))
    pairs = (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)
    return pairs[:, 0], pairs[:, 1]


def _sum_diff_suite(trials: int, seed: int, bug: bool) -> SuiteResult:
    """||[[a, b], [b, a]]|| = max(||a + b||, ||a - b||) for random 3x3 pairs."""
    a, b = _pair_stacks(trials, seed, 21)
    lhs = matcore.op_norm_stack(gadgets.two_by_two_stack(a, b, b, a))
    second = a + b if bug else a - b
    rhs = np.maximum(matcore.op_norm_stack(a + b), matcore.op_norm_stack(second))
    return SuiteResult("sum-diff block identity", trials, float(np.max(np.abs(lhs - rhs))), 1e-9)


def _rotation_suite(trials: int, seed: int) -> SuiteResult:
    """||[[a, -b], [b, a]]|| = max(||a + ib||, ||a - ib||) for random 3x3 pairs."""
    a, b = _pair_stacks(trials, seed, 22)
    lhs = matcore.op_norm_stack(gadgets.two_by_two_stack(a, -b, b, a))
    rhs = np.maximum(matcore.op_norm_stack(a + 1j * b), matcore.op_norm_stack(a - 1j * b))
    return SuiteResult("rotation block identity", trials, float(np.max(np.abs(lhs - rhs))), 1e-9)


def _unital_test_spaces():
    return [build_full_matrix(2).space, build_full_matrix(3).space, build_upper_triangular(2).space]


def _selfadjoint_test_spaces():
    return [build_full_matrix(2).space, build_full_matrix(3).space]


def _gadget_suite(name: str, tag: int, test_spaces, trials: int, seed: int, deviations) -> SuiteResult:
    """Largest of ``deviations(space, Vn, X, coeffs)`` over every (space, level) group of ``trials`` elements.

    Each group draws its ``trials`` elements from one stream (seed, tag, si,
    level) and is then one stack: ``coeffs`` the grids, X their ambient
    matrices and Vn the amplified unit.
    """
    worst = 0.0
    count = 0
    for si, space in enumerate(test_spaces):
        for level in (1, 2):
            coeffs = spaces.random_stack(space, level, matcore.stream(seed, tag, si, level), trials)
            X = spaces.realize_stack(space, coeffs)
            Vn = gadgets.amplified_unit(space, space.unit, level)
            worst = max(worst, float(np.max(deviations(space, Vn, X, coeffs))))
            count += trials
    return SuiteResult(name, count, worst, 1e-8)


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
    bug = bool(os.environ.get(BUG_ENV_VAR))
    return [
        _sum_diff_suite(trials, seed, bug),
        _rotation_suite(trials, seed),
        _gadget_suite("doubling gadget closed form", 23, _unital_test_spaces(), gadget_trials, seed,
                      _doubling_deviations),
        _gadget_suite("symmetric gadget norm", 24, _selfadjoint_test_spaces(), gadget_trials, seed,
                      _symmetric_deviations),
        _gadget_suite("skew gadget norm", 25, _selfadjoint_test_spaces(), gadget_trials, seed,
                      _skew_deviations),
    ]
