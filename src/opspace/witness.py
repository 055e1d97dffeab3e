"""Violation search: maximize an objective over the unit ball (or sphere) of M_n(X).

The engine runs a configurable number of independent restarts.  Each restart
draws a start point from its own counter-based RNG stream (derived from the
master seed and the restart index), then performs projected ascent along the
objective's analytic (sub)gradient, which the caller supplies next to the
objective: for the norm objectives of :mod:`opspace.criteria` it comes from the
norms' cotangents at the current point (``matcore.norm_cotangent_stack``).
Each step line-searches along that direction (and, in the ball, along radial
rescalings) and grows the step on improvement; a stalled step halves it and
blends in the gradient at the nearest failed trial, so the search follows the
kinks of the max-of-norms objectives.  A call searches several cells (a ball
or sphere radius and a stream key each) of one level, and the restarts of all
its cells advance in vectorized lockstep: one ascent step costs one batch of
trial evaluations and at most one gradient batch for the whole level.  Every
restart carries its own radius, step, step cap and floor, so its trajectory
does not depend on which restarts share its batch; the batch's working set
grows with the number of cells.  Results are independent of scheduling and
thread count because each cell's merge takes the maximum by value with index
tie-break.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import matcore, spaces
from .errors import InvalidInputError

__all__ = ["SearchConfig", "SearchResult", "maximize_violation", "refine_witness"]

log = logging.getLogger(__name__)

DEFAULT_SEED = 1729

#: Restart start radii are spread log-uniformly down to this fraction of the
#: ball radius, because violations of the small-norm criteria concentrate
#: near zero.
MIN_RADIUS_FRACTION = 0.01

BALL = "ball"
SPHERE = "sphere"

_STEP_FLOOR_FRACTION = 3e-5  # a restart stops once its step shrinks below this * radius
_STEP_CAP_FRACTION = 0.3
_STALL_EPS = 1e-10  # improvements smaller than this count as stalls
_GRAD_FLOOR = 1e-12  # a gradient norm below this is rounding noise (an identity holds exactly)
_LINE_SCALES = np.array([2.0, 1.0, 0.5])  # expansion / hold / contraction per line search
_NEAR_TRIAL = 2  # index of the contraction in _LINE_SCALES
_RADIAL_SCALES = np.array([2.0, 1.0, -1.0, -2.0])  # outward / inward rescale factors


@dataclass
class SearchConfig:
    """Budget and tolerances shared by every criterion run."""

    tolerance: float = 1e-6
    max_level: int = 2
    radius: float = 0.5
    restarts: int = 64
    ascent_steps: int = 200
    step_size: float = 0.05
    circle_samples: int = 720
    t_max: float = 4.0
    b_samples: int = 64
    seed: int = DEFAULT_SEED
    threads: int = 1

    def validate(self):
        for name in ("tolerance", "radius", "step_size", "t_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise InvalidInputError(f"SearchConfig.{name} must be a finite number, got {value!r}")
        for name in ("max_level", "restarts", "ascent_steps", "circle_samples", "b_samples", "threads",
                     "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidInputError(f"SearchConfig.{name} must be an integer, got {value!r}")
        for name in ("tolerance", "max_level", "radius", "ascent_steps", "step_size",
                     "circle_samples", "t_max", "b_samples", "threads"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"SearchConfig.{name} must be positive")
        if self.restarts < 0:
            raise InvalidInputError("SearchConfig.restarts must be nonnegative")
        return self

    def guard_ambient(self, space: spaces.SpaceRep):
        if self.max_level * max(space.p, space.q) > 512:
            raise InvalidInputError(
                f"ambient guard: max_level={self.max_level} x max(p,q)={max(space.p, space.q)} exceeds 512"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SearchResult:
    best_value: float
    best_point: spaces.LevelElement | None
    evaluations: int
    restart_bests: list = field(default_factory=list)
    level: int = 1


def _project(space, coeffs, radius, mode):
    """Project a stack of coefficient grids into the ball (or onto the sphere) of the given radius.

    ``radius`` is a scalar or an array broadcasting against the stack's leading shape.
    """
    norms = spaces.norm_stack(space, coeffs)
    if mode == SPHERE:
        scale = np.where(norms > 0, radius / np.where(norms > 0, norms, 1.0), 1.0)
    else:
        scale = np.where(norms > radius, radius / np.where(norms > 0, norms, 1.0), 1.0)
    return coeffs * scale[..., None, None, None], norms


def _draw_starts(space, level, cfg, radius, mode, restarts, stream_key):
    k = space.dim
    starts = np.zeros((restarts, level, level, k), dtype=np.complex128)
    for j in range(restarts):
        rng = matcore.stream(cfg.seed, *stream_key, j)
        if mode == SPHERE:
            r = radius
        else:
            r = radius * np.exp(rng.uniform(np.log(MIN_RADIUS_FRACTION), 0.0))
        elem = spaces.random_element(space, level, rng, target_norm=r)
        starts[j] = elem.coeffs
    return starts


def _set_directions(grad, direction, active, idx):
    """Normalize grad[idx] into direction[idx]; a zero or non-finite gradient stops its restart."""
    g = grad[idx]
    gnorm = np.sqrt((np.abs(g) ** 2).sum(axis=(1, 2, 3)))
    stuck = ~np.isfinite(gnorm) | (gnorm < _GRAD_FLOOR)
    unit = g / np.where(stuck, 1.0, gnorm)[:, None, None, None]
    direction[idx] = np.where(stuck[:, None, None, None], 0.0, unit)
    active[idx[stuck]] = False


def _min_norm_pair(a, b):
    """The shortest point of each segment [a, b] of gradient stacks; a where b is not finite."""
    b = np.where(np.isfinite(b).all(axis=(1, 2, 3))[:, None, None, None], b, a)
    diff = a - b
    dd = (np.abs(diff) ** 2).sum(axis=(1, 2, 3))
    lam = -np.real(np.conj(b) * diff).sum(axis=(1, 2, 3)) / np.where(dd > 0, dd, 1.0)
    return b + np.clip(lam, 0.0, 1.0)[:, None, None, None] * diff


def _ascent(objective, gradient, space, points, values, radius, mode, max_steps, step0):
    """Vectorized lockstep ascent; returns (points, values, evaluations), one entry per restart.

    ``radius`` and ``step0`` hold each restart's ball (or sphere) radius and
    first step; the step cap and floor scale with the restart's own radius, so
    restarts of different cells share the batch without affecting each other.

    Each restart line-searches along its normalized gradient.  An accepted
    move grows the step.  A stalled move halves it and replaces the gradient
    by the shortest convex combination of it and the gradient at the nearest
    failed trial (gradient sampling, Burke-Lewis-Overton 2005); from then on
    each new gradient of that restart is combined with the previous one the
    same way (an aggregate subgradient), so the search follows kinks instead
    of stopping at them.  A restart stops when its step falls below the floor
    or its direction vanishes or is not finite.  One ``gradient`` batch at the
    starts and one at the end of each step serve every restart: the moved ones
    at their new points (except on the last step, which no step follows) and
    the stalled ones at their nearest failed trials.
    A restart's ``evaluations`` counts its start, its trial points and its
    rows in the gradient batches.
    """
    n_restarts = points.shape[0]
    step = step0.copy()
    step_cap = np.maximum(step0, _STEP_CAP_FRACTION * radius)
    grad = np.zeros_like(points)
    sampled = np.zeros(n_restarts, dtype=bool)  # grad already blends in a sampled gradient
    direction = np.zeros_like(points)
    active = np.ones(n_restarts, dtype=bool)
    dead = ~np.isfinite(values)
    if dead.any():
        log.warning("objective returned non-finite values at %d start(s); aborting those restarts",
                    int(dead.sum()))
        values = np.where(dead, -np.inf, values)
        active &= ~dead
    evaluations = np.ones(n_restarts, dtype=np.int64)
    step_floor = _STEP_FLOOR_FRACTION * radius

    def update_gradients(moved, resample, near):
        """One ``gradient`` batch: fresh gradients at ``points[moved]``, sampled ones at ``near``.

        A restart that moved takes its fresh gradient (blended with the
        cached one once it has sampled); a stalled restart blends the
        gradient at its nearest failed trial into the cached one.
        """
        fresh = np.asarray(gradient(np.concatenate([points[moved], near])))  # (A, n, n, k)
        ours, theirs = fresh[:moved.size], fresh[moved.size:]
        keep = sampled[moved]
        if keep.any():
            ours[keep] = _min_norm_pair(ours[keep], grad[moved[keep]])
        grad[moved] = ours
        grad[resample] = _min_norm_pair(grad[resample], theirs)
        sampled[resample] = True
        both = np.concatenate([moved, resample])
        evaluations[both] += 1
        _set_directions(grad, direction, active, both)

    start = np.nonzero(active)[0]
    if max_steps > 0 and start.size:
        update_gradients(start, start[:0], points[:0])  # no restart has stalled yet

    for t in range(max_steps):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        scaled = step[idx, None] * _LINE_SCALES[None, :]
        np.minimum(scaled, step_cap[idx, None], out=scaled)
        trials = points[idx, None] + scaled[:, :, None, None, None] * direction[idx, None]
        if mode == BALL:
            # Radial rescalings march along the nonsmooth ridges of the
            # max-of-norms objectives (they preserve zero coordinates, so they
            # never cross a phase kink) and home in on interior optima.
            mags = np.minimum(step[idx, None] * np.abs(_RADIAL_SCALES)[None, :], step_cap[idx, None])
            rad = 1.0 + np.sign(_RADIAL_SCALES)[None, :] * mags / radius[idx, None]
            radial = points[idx, None] * rad[:, :, None, None, None]
            trials = np.concatenate([trials, radial], axis=1)
            scaled = np.concatenate([scaled, mags], axis=1)
        trials, _ = _project(space, trials, radius[idx, None], mode)
        ftrial = np.asarray(objective(trials))
        evaluations[idx] += ftrial.shape[1]
        ftrial = np.where(np.isfinite(ftrial), ftrial, -np.inf)

        pick = np.argmax(ftrial, axis=1)
        rows = np.arange(idx.size)
        fbest = ftrial[rows, pick]
        improved = fbest > values[idx] + _STALL_EPS
        take = idx[improved]
        points[take] = trials[rows[improved], pick[improved]]
        values[take] = fbest[improved]
        step[take] = np.minimum(scaled[rows[improved], pick[improved]], step_cap[take])
        halve = idx[~improved]
        step[halve] *= 0.5
        active[step < step_floor] = False
        # Gradient sampling: the nearest failed trial lies past a crest or
        # across a kink of the max-of-norms objectives; the shortest convex
        # combination of its gradient and the cached one ascends on both
        # sides of such a kink, where either gradient alone stalls.  The
        # blend is kept and folded into later gradients the same way, so a
        # restart that follows a kink does not zigzag across it.  A moved
        # restart needs its fresh gradient only if another step follows.
        again = active[halve]
        moved = take[active[take]] if t < max_steps - 1 else take[:0]
        if moved.size or again.any():
            update_gradients(moved, halve[again], trials[rows[~improved][again], _NEAR_TRIAL])

    return points, values, evaluations


def maximize_violation(
    objective,
    space: spaces.SpaceRep,
    level: int,
    cfg: SearchConfig,
    cells: list | None = None,
    mode: str = BALL,
    restarts: int | None = None,
    *,
    gradient,
) -> list[SearchResult]:
    """Search the balls (or spheres) of M_n(X) of several cells for maximizers of ``objective``.

    ``cells`` is a sequence of (radius, stream_key) pairs, by default the one
    cell (cfg.radius, ()).  Each cell draws ``restarts`` starts (default
    cfg.restarts) from its own stream key, and the restarts of all cells
    ascend in one lockstep batch.  Returns one SearchResult per cell, in the
    order given; each is exactly what a call with that cell alone returns.
    ``objective`` must accept a stack of coefficient grids shaped
    (..., level, level, k) and return the matching stack of real values.
    ``gradient`` maps a stack (A, level, level, k) to the objective's
    (sub)gradients of the same shape, real and imaginary parts being the
    partial derivatives along the real and imaginary coefficient parts.
    Fixed (seed, stream_key) reproduces a cell's result bit-for-bit.
    """
    cfg.validate()
    cells = [(cfg.radius, ())] if cells is None else [(float(r), key) for r, key in cells]
    n_restarts = cfg.restarts if restarts is None else int(restarts)
    if n_restarts <= 0:
        return [SearchResult(best_value=-np.inf, best_point=None, evaluations=0, level=level)
                for _ in cells]

    points = np.concatenate([_draw_starts(space, level, cfg, r, mode, n_restarts, key)
                             for r, key in cells])
    radius = np.repeat([r for r, _ in cells], n_restarts)
    step0 = np.repeat([cfg.step_size * r for r, _ in cells], n_restarts)
    values = np.asarray(objective(points), dtype=float)
    points, values, evaluations = _ascent(
        objective, gradient, space, points, values, radius, mode,
        max_steps=cfg.ascent_steps, step0=step0,
    )
    results = []
    for c in range(len(cells)):
        cell = slice(c * n_restarts, (c + 1) * n_restarts)
        best = int(np.argmax(values[cell]))
        results.append(SearchResult(
            best_value=float(values[cell][best]),
            best_point=spaces.LevelElement(level, points[cell][best]),
            evaluations=int(evaluations[cell].sum()),
            restart_bests=[float(v) for v in values[cell]],
            level=level,
        ))
    return results


def refine_witness(
    objective,
    space: spaces.SpaceRep,
    point: spaces.LevelElement,
    cfg: SearchConfig,
    radius: float | None = None,
    mode: str = BALL,
    *,
    gradient,
) -> SearchResult:
    """Polish a single point by local ascent with tighter steps (never decreases the value).

    ``objective`` and ``gradient`` are as in ``maximize_violation``.
    """
    cfg.validate()
    radius = cfg.radius if radius is None else float(radius)
    pts, _ = _project(space, point.coeffs[None].copy(), radius, mode)
    values = np.asarray(objective(pts), dtype=float)
    pts, values, evaluations = _ascent(
        objective, gradient, space, pts, values, np.array([radius]), mode,
        max_steps=4 * cfg.ascent_steps, step0=np.array([cfg.step_size * radius / 10.0]),
    )
    return SearchResult(
        best_value=float(values[0]),
        best_point=spaces.LevelElement(point.level, pts[0]),
        evaluations=int(evaluations[0]),
        restart_bests=[float(values[0])],
        level=point.level,
    )
