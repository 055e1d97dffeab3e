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
or sphere radius and a stream key each, all named by the caller; the config
holds no radius) of one level, and the restarts of all its cells advance in
vectorized lockstep: one ascent step costs one batch of trial evaluations and
at most one gradient batch for the whole level.  Every restart carries its
own radius, step, step cap and floor, so its trajectory does not depend on
which restarts share its batch; the batch's working set grows with the number
of cells.  Results are independent of scheduling and thread count because
each cell's merge takes the maximum by value with index tie-break.

A violation is settled by one witness, so a cell that already holds one needs
only its leading restarts to sharpen the margin.  At fixed steps
(``_RACE_STEPS``) each such cell stops the lower-valued half of its active
restarts (successive halving, Karnin-Koren-Somekh 2013), except a restart
whose gain since the previous race, repeated once, would reach the cell's best.
A cell whose best never exceeds the tolerance never races, so a search that
finds nothing returns what it would without the race.  The race looks only
inside a cell, so each cell's result is still what a call with that cell
alone returns.

A ball search of a norm inequality that holds climbs into its trivial
maximizer, the origin, where the inequality often holds with equality (the
unitary gadgets at a unit of norm 1).  So while a ball cell's best stays at
or below the tolerance, it stops a restart once the restart's point has
norm below ``ORIGIN_FRACTION`` times the radius and a value of at most f(0).
The cell scores f(0) once, as one more row of the trial batch after its
first restart comes that near, and its best is the larger of its restarts'
best and f(0).  Near 0 the objective is positively homogeneous to first
order, so smaller scales only repeat the directions that the smallest starts
(``MIN_RADIUS_FRACTION``) sample.  A cell holding a violation, a sphere
search and ``refine_witness`` never stop at the origin, and a cell whose
restarts never come near it never scores it.

The max-of-norms objectives have their kinks where a coefficient vanishes,
and their maximizers often sit there: the witnesses are sparse.  Halving
steps reach such a kink only linearly, so each restart of a cell holding a
violation also tries, in every step, its point with each nonzero coefficient
of modulus below ``SNAP_STEPS`` steps set to 0 (an active-set projection,
Lewis 2002, Hare-Lewis 2004).  The snapped point rides the step's trial batch
as one more row, is projected like the other trials and replaces the point
when it beats them and improves it, keeping the restart's step.  A snap
zeroes whole complex coefficients and never reaches the origin, where late
winners pass on their way out.  A cell holding no violation and
``refine_witness`` never snap, so a search that finds nothing returns what
it would without the snap.

A caller may give each ball cell a cap: a bound its objective cannot exceed
on the cell's ball (``SearchCriterion.cap``, from the triangle inequality).
After each step a cell stops all its active restarts once it cannot beat the
best found, bounding as in branch-and-bound (Land-Doig 1960): when it holds a
violation and its best is within ``_STALL_EPS`` of its own cap, so that no
trial can be accepted, or when its cap lies below the best of another cell
holding a violation, so that it cannot hold the winner.  Both comparisons
leave a rounding guard of ``_CAP_ULPS`` ulps.  The first rule looks only
inside a cell, so each cell's result is what a call with that cell alone
returns, unless another cell's value proves that it cannot win.  A search
that holds no violation never stops a cell this way.
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
_RACE_STEPS = (16, 32, 64, 128)  # after these steps a cell holding a violation halves its restarts
_CAP_ULPS = 4  # rounding guard of the cap comparisons, in ulps of max(|cap|, 1)

#: A restart of a ball cell holding no violation stops once its point's norm
#: is below this fraction of the radius and its value is at most f(0).
ORIGIN_FRACTION = 1e-4

#: A restart of a cell holding a violation also tries its point with every
#: nonzero coefficient of modulus below this many steps set to 0.
SNAP_STEPS = 3

ASCENT_STEPS = 200  # steps per restart; refine_witness takes four times as many
STEP_SIZE = 0.05  # a restart's first step over its radius; refine_witness starts at a tenth of it


@dataclass(frozen=True)
class SearchConfig:
    """The budget and tolerance a caller sets; the budgets none sets are module constants.

    Frozen, and validated when built, so every config a check receives is
    valid; ``dataclasses.replace`` builds (and validates) a changed copy.
    """

    tolerance: float = 1e-6
    max_level: int = 2
    restarts: int = 64
    seed: int = DEFAULT_SEED
    threads: int = 1

    def __post_init__(self):
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not math.isfinite(tol):
            raise InvalidInputError(f"SearchConfig.tolerance must be a finite number, got {tol!r}")
        for name in ("max_level", "restarts", "threads", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidInputError(f"SearchConfig.{name} must be an integer, got {value!r}")
        for name in ("tolerance", "max_level", "threads"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"SearchConfig.{name} must be positive")
        if self.restarts < 0:
            raise InvalidInputError("SearchConfig.restarts must be nonnegative")

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
    restart_bests: list = field(default_factory=list)  # the value each restart had when it stopped
    stopped: int = 0  # restarts the race stopped early (see _race)
    origin_stops: int = 0  # restarts stopped once they converged to the origin
    capped: int = 0  # restarts stopped once their cell could not beat the best found (see _beaten)


def _project(space, coeffs, radius, mode):
    """Project a stack of coefficient grids into the ball (or onto the sphere) of the given radius.

    ``radius`` is a scalar or an array broadcasting against the stack's leading shape.
    Returns the projected stack and the norms before projection (in the ball,
    the projected norms wherever they are below the radius).
    """
    norms = spaces.norm_stack(space, coeffs)
    if mode == SPHERE:
        scale = np.where(norms > 0, radius / np.where(norms > 0, norms, 1.0), 1.0)
    else:
        scale = np.where(norms > radius, radius / np.where(norms > 0, norms, 1.0), 1.0)
    return coeffs * scale[..., None, None, None], norms


def _draw_starts(space, level, cfg, radius, mode, restarts, stream_key):
    """The restarts' starts (restarts, level, level, k), each drawn from its own stream.

    A ball restart draws its radius first, then its coefficients; all starts
    are then scaled to their radii at once.
    """
    draws = np.zeros((restarts, level, level, space.dim), dtype=np.complex128)
    radii = np.full(restarts, float(radius))
    for j in range(restarts):
        rng = matcore.stream(cfg.seed, *stream_key, j)
        if mode != SPHERE:
            radii[j] = radius * np.exp(rng.uniform(np.log(MIN_RADIUS_FRACTION), 0.0))
        draws[j] = spaces.random_stack(space, level, rng, 1)[0]
    return spaces.scale_to_norms(space, draws, radii)


def _set_directions(grad, direction, active, idx):
    """Normalize grad[idx] into direction[idx]; a zero or non-finite gradient stops its restart."""
    g = grad[idx]
    gnorm = np.sqrt((np.abs(g) ** 2).sum(axis=(1, 2, 3)))
    stuck = ~np.isfinite(gnorm) | (gnorm < _GRAD_FLOOR)
    unit = g / np.where(stuck, 1.0, gnorm)[:, None, None, None]
    direction[idx] = np.where(stuck[:, None, None, None], 0.0, unit)
    active[idx[stuck]] = False


def _snap(points, thresholds):
    """Each point with its nonzero coefficients of modulus below its threshold set to 0.

    Returns the mask of the points that have such a coefficient and keep a
    nonzero one, and their snapped copies.  Whole complex coefficients are
    zeroed.  A snap never reaches the origin: restarts pass near it on their
    way to late wins, and in the sphere it has no projection.
    """
    mods = np.abs(points)
    keep = mods >= thresholds[:, None, None, None]
    snap = (~keep & (mods > 0)).any(axis=(1, 2, 3)) & keep.any(axis=(1, 2, 3))
    return snap, np.where(keep[snap], points[snap], 0.0)


def _min_norm_pair(a, b):
    """The shortest point of each segment [a, b] of gradient stacks; a where b is not finite."""
    b = np.where(np.isfinite(b).all(axis=(1, 2, 3))[:, None, None, None], b, a)
    diff = a - b
    dd = (np.abs(diff) ** 2).sum(axis=(1, 2, 3))
    lam = -np.real(np.conj(b) * diff).sum(axis=(1, 2, 3)) / np.where(dd > 0, dd, 1.0)
    return b + np.clip(lam, 0.0, 1.0)[:, None, None, None] * diff


def _race(values, active, since, cells, tolerance):
    """Stop the lower-valued half of the active restarts of each cell holding a violation.

    The restarts form ``cells`` contiguous equal blocks.  In a cell whose best
    value exceeds ``tolerance``, the active restarts are ranked by value (ties
    by index) and the lower half is stopped, except a restart whose gain since
    ``since`` (its value at the previous race), added once more, would reach
    the cell's best.  ``active`` and ``since`` are updated in place; returns
    the mask of the restarts stopped.
    """
    v = values.reshape(cells, -1)
    live = active.reshape(cells, -1)
    best = v.max(axis=1, keepdims=True)
    order = np.argsort(np.where(live, -v, np.inf), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(v.shape[1])[None, :], axis=1)
    lower = rank >= (live.sum(axis=1, keepdims=True) + 1) // 2
    climbing = 2.0 * v - since.reshape(cells, -1) >= best
    stop = (live & lower & ~climbing & (best > tolerance)).reshape(-1)
    active[stop] = False
    since[active] = values[active]
    return stop


def _beaten(values, cells, tolerance, caps):
    """The mask of the cells that cannot beat the best found, given each cell's cap.

    The restarts form ``cells`` contiguous equal blocks.  A cell is beaten
    when it holds a violation (best above ``tolerance``) and its best is
    within ``_STALL_EPS`` of its cap, or when its cap lies below the best of
    another cell holding a violation; both with a guard of ``_CAP_ULPS`` ulps.
    """
    best = values.reshape(cells, -1).max(axis=1)
    guard = _CAP_ULPS * np.finfo(float).eps * np.maximum(np.abs(caps), 1.0)
    hot = best > tolerance
    at_cap = hot & (best >= caps - _STALL_EPS + guard)
    rivals = np.where(hot & ~np.eye(cells, dtype=bool), best, -np.inf).max(axis=1)  # excluding each cell
    return at_cap | (caps + guard < rivals)


def _ascent(objective, gradient, space, points, values, radius, mode, max_steps, step0,
            cells=0, tolerance=np.inf, caps=None):
    """Vectorized lockstep ascent; returns (points, values, evaluations, raced, at_origin, origin, capped).

    ``origin`` holds one entry per cell, the others one per restart.

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
    With ``cells`` set, the restarts form that many contiguous equal cells,
    and after each step in ``_RACE_STEPS`` every cell whose best value
    exceeds ``tolerance`` stops the lower half of its active restarts (see
    ``_race``); ``raced`` marks the restarts so stopped.  In the ball, while
    a cell's best stays at or below ``tolerance``, an active restart whose
    point has norm below ``ORIGIN_FRACTION`` times its radius stops once its
    value is at most f(0); ``at_origin`` marks it.  The first such restart of
    a cell has the cell score x = 0 as one more row of the next trial batch;
    ``origin`` holds that f(0) (NaN where unscored, -inf where not finite).
    The norms are those ``_project`` computed for the accepted trials.
    In a cell whose best exceeds ``tolerance``, an active restart with a
    nonzero coefficient of modulus below ``SNAP_STEPS`` times its step (and
    another at or above it) also tries its point with those coefficients
    zeroed and projected (see ``_snap``), as one more row of the trial
    batch; an accepted snap keeps the restart's step.
    With ``caps`` (one per cell) set, after each step every cell that cannot
    beat the best found (see ``_beaten``) stops its active restarts, before
    the race; ``capped`` marks them.
    A restart's ``evaluations`` counts its start, its trial points, its snap
    rows and its rows in the gradient batches, also when it is stopped early;
    the origin row counts in its cell's first restart.
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
    raced = np.zeros(n_restarts, dtype=bool)
    since = np.where(dead, 0.0, values)  # each restart's value at the previous race
    watch = mode == BALL and cells > 0  # ball cells stop restarts at the origin
    per_cell = n_restarts // max(cells, 1)
    cell_of = np.arange(n_restarts) // per_cell  # each restart's cell
    pnorm = np.full(n_restarts, np.inf)  # each moved restart's norm; no start is near 0
    at_origin = np.zeros(n_restarts, dtype=bool)
    capped = np.zeros(n_restarts, dtype=bool)
    origin = np.full(cells, np.nan)  # f(0) per cell; NaN until scored
    wanted = np.zeros(cells, dtype=bool)  # cells that score the origin in the next trial batch

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
        trials, tnorms = _project(space, trials, radius[idx, None], mode)
        rows = np.arange(idx.size)
        snap_rows, snaps = rows[:0], points[:0]
        if cells and (hot := values.reshape(cells, -1).max(axis=1) > tolerance).any():
            # the restarts of cells holding a violation try their sparse neighbours
            hot_rows = rows[hot[cell_of[idx]]]
            snap, snaps = _snap(points[idx[hot_rows]], SNAP_STEPS * step[idx[hot_rows]])
            snap_rows = hot_rows[snap]
            if snap_rows.size:
                snaps, _ = _project(space, snaps, radius[idx[snap_rows]], mode)
        if wanted.any() or snap_rows.size:
            # the snap rows and one origin row per wanting cell ride this trial batch
            flat = trials.reshape(-1, *trials.shape[2:])
            zeros = np.zeros((int(wanted.sum()),) + flat.shape[1:], dtype=flat.dtype)
            fall = np.asarray(objective(np.concatenate([flat, snaps, zeros])))
            fall = np.where(np.isfinite(fall), fall, -np.inf)
            ftrial = fall[:flat.shape[0]].reshape(trials.shape[:2])
            fsnap = fall[flat.shape[0]:flat.shape[0] + snap_rows.size]
            origin[wanted] = fall[flat.shape[0] + snap_rows.size:]  # -inf stops nothing, wins nothing
            evaluations[np.nonzero(wanted)[0] * per_cell] += 1
            evaluations[idx[snap_rows]] += 1
            wanted[:] = False
        else:
            ftrial = np.asarray(objective(trials))
            ftrial = np.where(np.isfinite(ftrial), ftrial, -np.inf)
        evaluations[idx] += ftrial.shape[1]

        pick = np.argmax(ftrial, axis=1)
        fbest = ftrial[rows, pick]
        snapped = np.zeros(idx.size, dtype=bool)
        if snap_rows.size:
            won = fsnap > fbest[snap_rows]  # a tie goes to the line search
            snapped[snap_rows[won]] = True
            fbest[snap_rows[won]] = fsnap[won]
        improved = fbest > values[idx] + _STALL_EPS
        take = idx[improved]
        grow = improved & ~snapped
        points[idx[grow]] = trials[rows[grow], pick[grow]]
        values[take] = fbest[improved]
        step[idx[grow]] = np.minimum(scaled[rows[grow], pick[grow]], step_cap[idx[grow]])
        jump = snapped[snap_rows] & improved[snap_rows]  # an accepted snap keeps its step
        points[idx[snap_rows[jump]]] = snaps[jump]
        halve = idx[~improved]
        step[halve] *= 0.5
        active[step < step_floor] = False
        if watch:
            pnorm[idx[grow]] = tnorms[rows[grow], pick[grow]]  # a snapping cell never stops at the origin
            near = active & (pnorm < ORIGIN_FRACTION * radius)
            if near.any():
                near &= (values.reshape(cells, -1).max(axis=1) <= tolerance)[cell_of]
                stop = near & (values <= origin[cell_of])  # False while f(0) is unscored
                active[stop] = False
                at_origin |= stop
                wanted[cell_of[near]] = True
                wanted &= np.isnan(origin)
        if caps is not None:
            beaten = _beaten(values, cells, tolerance, caps)
            stop = active & beaten[cell_of]
            active[stop] = False
            capped |= stop
            wanted &= ~beaten
        if cells and t + 1 in _RACE_STEPS:
            raced |= _race(values, active, since, cells, tolerance)
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

    return points, values, evaluations, raced, at_origin, origin, capped


def maximize_violation(
    objective,
    space: spaces.SpaceRep,
    level: int,
    cfg: SearchConfig,
    cells: list,
    mode: str = BALL,
    restarts: int | None = None,
    *,
    gradient,
    caps=None,
) -> list[SearchResult]:
    """Search the balls (or spheres) of M_n(X) of several cells for maximizers of ``objective``.

    ``cells`` is a sequence of (radius, stream_key) pairs.  Each cell draws
    ``restarts`` starts (default cfg.restarts) from its own stream key, and
    the restarts of all cells ascend in one lockstep batch.  Once a cell's
    best exceeds cfg.tolerance, the cell races its restarts: after each step
    in ``_RACE_STEPS`` it stops the lower-valued half of its active ones (see
    ``_race``).  In ball mode,
    while a cell's best stays at or below cfg.tolerance, it stops the
    restarts that converge to the origin, scoring x = 0 once when the first
    one comes near (see ``_ascent``).  A cell holding a violation gives each
    restart a snap trial per step: its point with its small coefficients
    zeroed (see ``_snap``).  ``caps``, one per cell or None, bound the
    objective on each cell's ball; after each step a cell stops its restarts
    once it cannot beat the best found (see ``_beaten``).  Returns one
    SearchResult per cell, in the order given; each is exactly what a call
    with that cell (and its cap) alone returns, unless its cap lies below
    another cell's violation, so that it cannot hold the winner.  A cell's
    best is the larger of its restarts' best and f(0), with the origin as its
    point when f(0) is larger.  A result's ``restart_bests`` holds the value
    each restart had when it stopped, ``stopped`` counts the restarts the race
    stopped, ``origin_stops`` those stopped at the origin and ``capped`` those
    stopped once their cell could not beat the best found.
    ``objective`` must accept a stack of coefficient grids shaped
    (..., level, level, k) and return the matching stack of real values.
    ``gradient`` maps a stack (A, level, level, k) to the objective's
    (sub)gradients of the same shape, real and imaginary parts being the
    partial derivatives along the real and imaginary coefficient parts.
    Fixed (seed, stream_key) reproduces a cell's result bit-for-bit.
    """
    cells = [(float(r), key) for r, key in cells]
    n_restarts = cfg.restarts if restarts is None else int(restarts)
    if n_restarts <= 0:
        return [SearchResult(best_value=-np.inf, best_point=None, evaluations=0) for _ in cells]

    points = np.concatenate([_draw_starts(space, level, cfg, r, mode, n_restarts, key)
                             for r, key in cells])
    radius = np.repeat([r for r, _ in cells], n_restarts)
    step0 = np.repeat([STEP_SIZE * r for r, _ in cells], n_restarts)
    values = np.asarray(objective(points), dtype=float)
    points, values, evaluations, raced, at_origin, origin, capped = _ascent(
        objective, gradient, space, points, values, radius, mode,
        max_steps=ASCENT_STEPS, step0=step0, cells=len(cells), tolerance=cfg.tolerance,
        caps=None if caps is None else np.asarray(caps, dtype=float),
    )
    results = []
    for c in range(len(cells)):
        cell = slice(c * n_restarts, (c + 1) * n_restarts)
        best = int(np.argmax(values[cell]))
        best_value, best_point = float(values[cell][best]), points[cell][best]
        if origin[c] > best_value:
            best_value, best_point = float(origin[c]), np.zeros_like(best_point)
        results.append(SearchResult(
            best_value=best_value,
            best_point=spaces.LevelElement(level, best_point),
            evaluations=int(evaluations[cell].sum()),
            restart_bests=[float(v) for v in values[cell]],
            stopped=int(raced[cell].sum()),
            origin_stops=int(at_origin[cell].sum()),
            capped=int(capped[cell].sum()),
        ))
    return results


def refine_witness(
    objective,
    space: spaces.SpaceRep,
    point: spaces.LevelElement,
    radius: float,
    mode: str = BALL,
    *,
    gradient,
) -> SearchResult:
    """Polish a single point by local ascent with tighter steps (never decreases the value).

    The point is projected into the ball (or onto the sphere) of ``radius``
    first, normally the radius of the cell that found it.  One restart, so
    it never races, never stops at the origin and never snaps.

    ``objective`` and ``gradient`` are as in ``maximize_violation``.
    """
    radius = float(radius)
    pts, _ = _project(space, point.coeffs[None].copy(), radius, mode)
    values = np.asarray(objective(pts), dtype=float)
    pts, values, evaluations, *_ = _ascent(
        objective, gradient, space, pts, values, np.array([radius]), mode,
        max_steps=4 * ASCENT_STEPS, step0=np.array([STEP_SIZE * radius / 10.0]),
    )
    return SearchResult(
        best_value=float(values[0]),
        best_point=spaces.LevelElement(point.level, pts[0]),
        evaluations=int(evaluations[0]),
        restart_bests=[float(values[0])],
    )
