"""Violation search: maximize an objective over the unit ball (or sphere) of M_n(X).

The engine runs a configurable number of independent restarts.  Each restart
draws a start point from its own counter-based RNG stream (derived from the
master seed, its cell's stream key and the restart index): restart j of a
cell draws exactly what ``matcore.stream(seed, *key, j)`` draws, whatever the
batch.  A call keys the streams of all its restarts in one batch
(``matcore.stream_keys``) and re-keys one Philox generator per restart, so a
start costs its draws and not a ``SeedSequence`` hash and a generator of its
own.  Then each restart performs projected ascent along the
objective's analytic (sub)gradient, which the caller supplies next to the
objective: for the norm objectives of :mod:`opspace.criteria` it comes from the
norms' cotangents at the current point (``matcore.norm_cotangent_stack``).
Each step line-searches along the normalized gradient and, in the ball, along
radial rescalings x (1 +- m/||x||).  A line trial moves the point by its step m
along the direction and a radial trial by m along the point's own ray, so
radial steps are measured in units of the point's own norm, not of the radius:
a restart heading for a small point gets there in a few steps instead of
losing a fixed fraction of its norm per step.  An accepted move grows the
step.  A stalled move halves it and replaces the gradient by the shortest
convex combination of it and the gradient at the nearest failed trial
(gradient sampling, Burke-Lewis-Overton 2005); from then on each new gradient
of that restart is combined with the previous one the same way (an aggregate
subgradient), so the search follows the kinks of the max-of-norms objectives
instead of stopping at them.  A restart stops when its step falls below the
floor or its direction vanishes or is not finite.

A call searches several cells (a ball or sphere radius and a stream key
each, all named by the caller; the config holds no radius) of one level, and
the restarts of all its cells advance in vectorized lockstep.  One step costs
one projection batch and one objective batch of the same flat rows (the
trial points and the snap rows below), and at most one gradient batch for
the whole level: the restarts that moved at their new points (except on the
last step, which no step follows) and the stalled ones at their nearest
failed trials; one blend batch then folds every gradient that needs it into
the cached one.  A numpy call has a fixed cost that outweighs the rows of a
step of a few restarts, so no step splits a batch that one call can take.
Every restart carries its own radius, step, step cap and floor, so its
trajectory does not depend on which restarts share its batch; the batch's
working set grows with the number of cells.  Results are independent of
scheduling and thread count because each cell's merge takes the maximum by
value with index tie-break.

Three cell rules cut the work.  Each reads one per-cell best, renewed after
every step's accept: a cell is *violated* once its best exceeds the
tolerance.  A restart stopped by a rule keeps its value, and records the
rule that stopped it.

- Race.  One witness settles a violation, so a violated cell needs only its
  leading restarts to sharpen the margin.  After the steps in
  ``_RACE_STEPS`` each violated cell stops the lower-valued half of its
  active restarts (successive halving, Karnin-Koren-Somekh 2013; ties by
  index), except a restart whose gain since the previous race, repeated
  once, would reach the cell's best.
- Snap.  The max-of-norms objectives have their kinks where a coefficient
  vanishes, and their maximizers often sit there: the witnesses are sparse.
  Halving steps reach such a kink only linearly, so each active restart of a
  violated cell also tries, in every step, its point with each nonzero
  coefficient of modulus below ``SNAP_STEPS`` steps set to 0 (an active-set
  projection, Lewis 2002, Hare-Lewis 2004).  The snapped point rides the
  step's batch as one more row, is projected with the trials in the same
  call and replaces the point when it beats them and improves it, keeping
  the restart's step.  A snap zeroes whole complex coefficients and never
  reaches the origin, where late winners pass on their way out.
- Cap stop.  A caller may give each cell a cap: a bound its objective
  cannot exceed on the cell's ball or sphere (``SearchCriterion.cap``).
  After each step a cell stops all its active restarts once it cannot beat
  the best found, bounding as in branch-and-bound (Land-Doig 1960): when
  it is violated and its best is within ``_STALL_EPS`` of its own cap, so
  that no trial can be accepted, or when its cap lies below the best of
  another violated cell, so that it cannot hold the winner.  Both
  comparisons leave a rounding guard of ``_CAP_ULPS`` ulps.

After a step's accept the cap stop runs before the race; the snap gate of
the next step reads the same best.  Every rule but the second cap comparison
looks only inside a cell, so each cell's result is what a call with that
cell alone returns, unless another cell's value proves that it cannot win.
A search that holds no violation never races, snaps or stops at a cap, so
it returns what it would without the rules.  ``refine_witness`` (one
restart, no cells) never races or snaps, and keeps one part of the cap stop:
given the winning cell's cap, a polish whose start is already at it takes no
step, since no move could be accepted, and returns its start as the full
polish would.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import matcore, spaces
from .errors import InvalidInputError

__all__ = ["SearchConfig", "SearchResult", "maximize_violation", "refine_witness"]

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

#: A restart of a cell holding a violation also tries its point with every
#: nonzero coefficient of modulus below this many steps set to 0.
SNAP_STEPS = 3

ASCENT_STEPS = 200  # steps per restart; refine_witness takes four times as many, none at its cap
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
    stopped: int = 0  # restarts the race stopped early
    capped: int = 0  # restarts stopped once their cell could not beat the best found


def _project(space, coeffs, radius, mode):
    """Project a stack of coefficient grids into the ball (or onto the sphere) of the given radius.

    ``radius`` is a scalar or an array broadcasting against the stack's leading shape.
    Returns the projected stack and its norms (the radius wherever a grid was moved).
    """
    norms = spaces.norm_stack(space, coeffs)
    moved = (norms > 0) if mode == SPHERE else (norms > radius)
    scale = np.where(moved, radius / np.where(norms > 0, norms, 1.0), 1.0)
    return coeffs * scale[..., None, None, None], np.where(moved, radius, norms)


def _draw_starts(space, level, seed, cells, mode, restarts):
    """The unscaled starts (cells * restarts, level, level, k) and radii of a call's cells, cell after cell.

    Restart j of the cell (radius, key) draws exactly what
    ``matcore.stream(seed, *key, j)`` draws, whatever the batch: one Philox
    generator is re-keyed per restart to that stream's key
    (``matcore.stream_keys``), at counter 0 with an empty buffer.  A ball
    restart draws its radius first, then its coefficients; the grids and the
    radii of all restarts are formed at once, and the caller scales the
    starts to their radii.
    """
    keys = matcore.stream_keys(seed, [key for _, key in cells], restarts).reshape(-1, 2).tolist()
    rng = np.random.Generator(np.random.Philox(0))
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    z = np.empty((len(keys), 2, level, level, space.dim))
    u = np.empty(len(keys))
    low = np.log(MIN_RADIUS_FRACTION)
    for i, key in enumerate(keys):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        if mode != SPHERE:
            u[i] = rng.uniform(low, 0.0)
        z[i] = rng.normal(size=z.shape[1:])
    radii = np.repeat([float(r) for r, _ in cells], restarts)
    # the grids as spaces.random_stack forms them from the same normals
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0), radii if mode == SPHERE else radii * np.exp(u)


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


def _race(values, active, since, best, hot):
    """The mask of the active restarts the race stops: the lower half of each violated cell.

    The restarts form ``best.size`` contiguous equal cells, with best values
    ``best`` and violated where ``hot``.  In a violated cell the active
    restarts are ranked by value (ties by index) and the lower half is
    stopped, except a restart whose gain since ``since`` (its value at the
    previous race), added once more, would reach the cell's best.
    """
    cells = best.size
    v = values.reshape(cells, -1)
    live = active.reshape(cells, -1)
    order = np.argsort(np.where(live, -v, np.inf), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(v.shape[1])[None, :], axis=1)
    lower = rank >= (live.sum(axis=1, keepdims=True) + 1) // 2
    climbing = 2.0 * v - since.reshape(cells, -1) >= best[:, None]
    return (live & lower & ~climbing & hot[:, None]).reshape(-1)


def _cap_guard(caps):
    """The rounding guard of the cap comparisons: ``_CAP_ULPS`` ulps of max(|cap|, 1)."""
    return _CAP_ULPS * np.finfo(float).eps * np.maximum(np.abs(caps), 1.0)


def _at_cap(best, caps):
    """Where a best is within ``_STALL_EPS`` of its cap, with the rounding guard.

    No trial can then beat it by ``_STALL_EPS``, the least gain accepted.
    """
    return best >= caps - _STALL_EPS + _cap_guard(caps)


def _beaten(best, hot, caps, others):
    """The mask of the cells that cannot beat the best found, given each cell's best, violation and cap.

    A cell is beaten when it is violated and its best is at its cap
    (``_at_cap``), or when its cap lies below the best of another violated
    cell, with the same guard.  ``others`` is the (cells, cells) mask that
    is False on the diagonal alone.
    """
    rivals = np.where(hot & others, best, -np.inf).max(axis=1)  # excluding each cell
    return (hot & _at_cap(best, caps)) | (caps + _cap_guard(caps) < rivals)


#: The ``stopped_by`` codes of ``_ascent``: the rule that stopped a restart, if any.
_RACED, _CAPPED = 1, 2


def _ascent(objective, gradient, space, points, values, radius, mode, max_steps, step0,
            cells=0, tolerance=np.inf, caps=None):
    """Vectorized lockstep ascent; returns (points, values, evaluations, stopped_by).

    ``radius`` and ``step0`` hold each restart's ball (or sphere) radius and
    first step.  With ``cells`` set, the restarts form that many contiguous
    equal cells, a cell is violated once its best exceeds ``tolerance``, and
    ``caps`` holds one cap per cell or is None; the cell rules of the module
    docstring apply.  With ``cells`` 0 none applies.
    ``stopped_by`` holds, per restart, the rule that stopped it (``_RACED``
    or ``_CAPPED``), or 0.  A restart's ``evaluations`` counts its start,
    its trial points, its snap rows and its rows in the gradient batches,
    also when it is stopped early.
    """
    n_restarts = points.shape[0]
    step = step0.copy()
    step_cap = np.maximum(step0, _STEP_CAP_FRACTION * radius)
    step_floor = _STEP_FLOOR_FRACTION * radius
    grad = np.zeros_like(points)
    sampled = np.zeros(n_restarts, dtype=bool)  # grad already blends in a sampled gradient
    direction = np.zeros_like(points)
    active = np.ones(n_restarts, dtype=bool)
    dead = ~np.isfinite(values)
    if dead.any():
        values = np.where(dead, -np.inf, values)
        active &= ~dead
    evaluations = np.ones(n_restarts, dtype=np.int64)
    stopped_by = np.zeros(n_restarts, dtype=np.int8)
    since = np.where(dead, 0.0, values)  # each restart's value at the previous race
    cells = max(cells, 1)  # no cells: one cell that, at tolerance inf, is never violated
    cell_of = np.arange(n_restarts) // (n_restarts // cells)  # each restart's cell
    pnorm = spaces.norm_stack(space, points)  # each point's norm, the unit of its radial trials

    def stop(mask, why):
        active[mask] = False
        stopped_by[mask] = why

    def update_gradients(moved, resample, near):
        """One ``gradient`` batch: fresh gradients at ``points[moved]``, sampled ones at ``near``.

        A restart that moved takes its fresh gradient (blended with the
        cached one once it has sampled); a stalled restart blends the
        gradient at its nearest failed trial into the cached one.
        """
        fresh = np.asarray(gradient(np.concatenate([points[moved], near])))  # (A, n, n, k)
        ours, theirs = fresh[:moved.size], fresh[moved.size:]
        keep = sampled[moved]
        # one blend: the moved restarts that have sampled, then the resampled ones
        blend = np.concatenate([moved[keep], resample])
        a = np.concatenate([ours[keep], grad[resample]])
        b = np.concatenate([grad[moved[keep]], theirs])
        grad[moved] = ours
        grad[blend] = _min_norm_pair(a, b)
        sampled[resample] = True
        both = np.concatenate([moved, resample])
        evaluations[both] += 1
        _set_directions(grad, direction, active, both)

    start = np.nonzero(active)[0]
    if max_steps > 0 and start.size:
        update_gradients(start, start[:0], points[:0])  # no restart has stalled yet

    best = values.reshape(cells, -1).max(axis=1)  # each cell's best, renewed after every accept
    hot = best > tolerance  # the violated cells
    others = ~np.eye(cells, dtype=bool)  # each cell's rivals, for the cap stop
    for t in range(max_steps):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        at, at_step, at_cap = points[idx], step[idx], step_cap[idx]
        scaled = np.minimum(at_step[:, None] * _LINE_SCALES[None, :], at_cap[:, None])
        trials = at[:, None] + scaled[:, :, None, None, None] * direction[idx, None]
        if mode == BALL:
            # Radial rescalings march along the nonsmooth ridges of the
            # max-of-norms objectives (they preserve zero coordinates, so they
            # never cross a phase kink) and home in on interior optima.  The
            # origin has no ray: its radial trials stay at 0.
            mags = np.minimum(at_step[:, None] * np.abs(_RADIAL_SCALES)[None, :], at_cap[:, None])
            ray = np.where(pnorm[idx] > 0, pnorm[idx], np.inf)
            rad = 1.0 + np.sign(_RADIAL_SCALES)[None, :] * mags / ray[:, None]
            radial = at[:, None] * rad[:, :, None, None, None]
            trials = np.concatenate([trials, radial], axis=1)
            scaled = np.concatenate([scaled, mags], axis=1)
        rows = np.arange(idx.size)
        snap_rows, snaps = rows[:0], at[:0]
        if hot.any():
            hot_rows = rows[hot[cell_of[idx]]]
            snap, snaps = _snap(at[hot_rows], SNAP_STEPS * at_step[hot_rows])
            snap_rows = hot_rows[snap]
        # one flat batch, projected and evaluated at once: the trial points and the snap rows
        width, cut = trials.shape[1], trials.shape[0] * trials.shape[1]
        flat, norms = _project(space, np.concatenate([trials.reshape(-1, *at.shape[1:]), snaps]),
                               np.concatenate([np.repeat(radius[idx], width), radius[idx[snap_rows]]]), mode)
        trials, snaps = flat[:cut].reshape(trials.shape), flat[cut:]
        tnorms, snorms = norms[:cut].reshape(-1, width), norms[cut:]
        fall = np.asarray(objective(flat))
        fall = np.where(np.isfinite(fall), fall, -np.inf)
        ftrial, fsnap = fall[:cut].reshape(-1, width), fall[cut:]
        evaluations[idx] += width
        evaluations[idx[snap_rows]] += 1

        pick = np.argmax(ftrial, axis=1)
        fbest = ftrial[rows, pick]
        snapped = np.zeros(idx.size, dtype=bool)
        won = fsnap > fbest[snap_rows]  # a tie goes to the line search
        snapped[snap_rows[won]] = True
        fbest[snap_rows[won]] = fsnap[won]
        improved = fbest > values[idx] + _STALL_EPS
        take = idx[improved]
        grow = improved & ~snapped
        points[idx[grow]] = trials[rows[grow], pick[grow]]
        pnorm[idx[grow]] = tnorms[rows[grow], pick[grow]]
        values[take] = fbest[improved]
        step[idx[grow]] = np.minimum(scaled[rows[grow], pick[grow]], at_cap[grow])
        jump = snapped[snap_rows] & improved[snap_rows]  # an accepted snap keeps its step
        points[idx[snap_rows[jump]]] = snaps[jump]
        pnorm[idx[snap_rows[jump]]] = snorms[jump]
        halve = idx[~improved]
        step[halve] *= 0.5
        active[step < step_floor] = False

        best = values.reshape(cells, -1).max(axis=1)
        hot = best > tolerance
        if caps is not None:
            stop(active & _beaten(best, hot, caps, others)[cell_of], _CAPPED)
        if t + 1 in _RACE_STEPS:
            stop(_race(values, active, since, best, hot), _RACED)
            since[active] = values[active]
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

    return points, values, evaluations, stopped_by


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
    ``restarts`` starts (default cfg.restarts) from its own stream key:
    restart j draws exactly what ``matcore.stream(cfg.seed, *stream_key, j)``
    draws, whatever the other cells and the restart count, and
    the restarts of all cells ascend in one lockstep batch under the cell
    rules of the module docstring, a cell being violated once its best
    exceeds cfg.tolerance.  ``caps``, one per cell or None, bound the
    objective on each cell's ball or sphere.  Returns one SearchResult per
    cell, in the order given; each is exactly what a call with that cell
    (and its cap) alone returns, unless its cap lies below another cell's
    violation, so that it cannot hold the winner.  A cell's best is its restarts' best.
    A result's ``restart_bests`` holds the value each restart had when it
    stopped, and ``stopped`` and ``capped`` count the restarts stopped by
    the race and the cap stop.
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

    points = spaces.scale_to_norms(space, *_draw_starts(space, level, cfg.seed, cells, mode, n_restarts))
    radius = np.repeat([r for r, _ in cells], n_restarts)
    step0 = np.repeat([STEP_SIZE * r for r, _ in cells], n_restarts)
    values = np.asarray(objective(points), dtype=float)
    points, values, evaluations, stopped_by = _ascent(
        objective, gradient, space, points, values, radius, mode,
        max_steps=ASCENT_STEPS, step0=step0, cells=len(cells), tolerance=cfg.tolerance,
        caps=None if caps is None else np.asarray(caps, dtype=float),
    )
    results = []
    for c in range(len(cells)):
        cell = slice(c * n_restarts, (c + 1) * n_restarts)
        best = int(np.argmax(values[cell]))
        stops = np.bincount(stopped_by[cell], minlength=3)
        results.append(SearchResult(
            best_value=float(values[cell][best]),
            best_point=spaces.LevelElement(level, points[cell][best]),
            evaluations=int(evaluations[cell].sum()),
            restart_bests=[float(v) for v in values[cell]],
            stopped=int(stops[_RACED]),
            capped=int(stops[_CAPPED]),
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
    cap=None,
) -> SearchResult:
    """Polish a single point by local ascent with tighter steps (never decreases the value).

    The point is projected into the ball (or onto the sphere) of ``radius``
    first, normally the radius of the cell that found it.  One restart in no
    cell, so it never races or snaps.  ``cap``, normally that cell's cap, bounds
    the objective there: when the projected start is already at it
    (``_at_cap``, the comparison of the cap stop), no move could be
    accepted, so the polish takes no step and costs its start evaluation
    alone.  With ``cap`` None it always ascends.

    ``objective`` and ``gradient`` are as in ``maximize_violation``.
    """
    radius = float(radius)
    pts, _ = _project(space, point.coeffs[None].copy(), radius, mode)
    values = np.asarray(objective(pts), dtype=float)
    steps = 0 if cap is not None and _at_cap(values[0], cap) else 4 * ASCENT_STEPS
    pts, values, evaluations, _ = _ascent(
        objective, gradient, space, pts, values, np.array([radius]), mode,
        max_steps=steps, step0=np.array([STEP_SIZE * radius / 10.0]),
    )
    return SearchResult(
        best_value=float(values[0]),
        best_point=spaces.LevelElement(point.level, pts[0]),
        evaluations=int(evaluations[0]),
        restart_bests=[float(values[0])],
    )
