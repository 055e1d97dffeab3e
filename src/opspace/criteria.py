"""Metric characterizations as decision procedures returning CheckReports.

Universally quantified criteria delegate to the violation search in
:mod:`opspace.witness`; a clean bill of health is therefore always
HOLDS_WITHIN_BUDGET (evidence, not proof), while VIOLATED comes with a
concrete witness that reproduces the reported margin on re-evaluation.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import gadgets, matcore, spaces, witness
from .errors import InvalidInputError, ShapeError

__all__ = [
    "HOLDS_WITHIN_BUDGET",
    "VIOLATED",
    "INCONCLUSIVE",
    "UNSUPPORTED_LEVEL",
    "CheckReport",
    "check_unitary_four_rotation",
    "check_unitary_t_gadget",
    "check_coisometry",
    "check_isometry",
    "check_operator_system",
    "check_positive",
    "check_adjoint",
    "check_mult_closed",
    "check_multiplier",
    "check_left_multiplier_map",
    "check_algebra_product",
    "check_cstar_among_systems",
    "four_rotation_violation_at",
    "t_gadget_violation_at",
    "row_deviation_at",
    "column_deviation_at",
    "r_gadget_deviation_at",
    "SearchCriterion",
    "SEARCH_CRITERIA",
    "CRITERION_RUNNERS",
]

log = logging.getLogger(__name__)

HOLDS_WITHIN_BUDGET = "HOLDS_WITHIN_BUDGET"
VIOLATED = "VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"
UNSUPPORTED_LEVEL = "UNSUPPORTED_LEVEL"

SQRT2 = math.sqrt(2.0)

#: Ball radii swept by the small-norm criteria (the configured radius and 1.0
#: are merged in): violations of the unitality inequalities concentrate at
#: small norms, but the norm-one witnesses must be reachable too.
RADIUS_SWEEP = (0.1, 0.25, 0.5)

LEVEL1_NOTE = "level-1 necessary condition"

# stream-key tags so every criterion draws from its own RNG substream (the
# searched criteria carry theirs, 1-5, in SEARCH_CRITERIA)
_KEY_MULT_CLOSED = 8
_KEY_MULTIPLIER = 9
_KEY_LEFT_MULT_MAP = 10
_KEY_ALGEBRA_PRODUCT = 11
_KEY_CSTAR = 12

MULT_METRIC_PAIRS = 16
MULTIPLIER_METRIC_PAIRS = 8


# ---------------------------------------------------------------------------
# reports


def _encode_complex(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _encode_array(a) -> list:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        return _encode_complex(a[()])
    return [_encode_array(row) for row in a]


def _decode_array(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


@dataclass
class CheckReport:
    """Verdict of one criterion run, with enough context to reproduce it."""

    criterion: str
    verdict: str
    margin: float
    witness: dict | None = None
    levels_checked: list = field(default_factory=list)
    samples: int = 0
    config: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "margin": self.margin,
            "witness": self.witness,
            "levels_checked": list(self.levels_checked),
            "samples": self.samples,
            "config": dict(self.config),
            "notes": list(self.notes),
            "trace": list(self.trace),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        return cls(
            criterion=d["criterion"],
            verdict=d["verdict"],
            margin=d["margin"],
            witness=d.get("witness"),
            levels_checked=list(d.get("levels_checked", [])),
            samples=int(d.get("samples", 0)),
            config=dict(d.get("config", {})),
            notes=list(d.get("notes", [])),
            trace=list(d.get("trace", [])),
        )

    def witness_element(self) -> spaces.LevelElement | None:
        if self.witness is None or self.witness.get("coeffs") is None:
            return None
        return spaces.LevelElement(int(self.witness["level"]), _decode_array(self.witness["coeffs"]))


def _witness_dict(elem: spaces.LevelElement | None, aux: dict | None = None) -> dict:
    d = {"level": None, "coeffs": None, "aux": aux or {}}
    if elem is not None:
        d["level"] = elem.level
        d["coeffs"] = _encode_array(elem.coeffs)
    return d


# ---------------------------------------------------------------------------
# shared plumbing


def _unit_coeffs(space: spaces.SpaceRep, u, who: str = "u") -> np.ndarray:
    if u is None:
        if space.unit is None:
            raise InvalidInputError(f"{who} is missing and the space has no distinguished element")
        return space.unit
    if isinstance(u, spaces.LevelElement):
        if u.level != 1:
            raise InvalidInputError(f"{who} must be a level-1 element")
        return u.coeffs.reshape(-1)
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    if u.shape != (space.dim,):
        raise ShapeError(f"{who} must be a coefficient vector of length {space.dim}")
    return u


def _require_contraction(space, u, who: str):
    nu = spaces.norm(space, spaces.LevelElement(1, u.reshape(1, 1, -1)))
    if nu > 1.0 + 1e-9:
        raise InvalidInputError(f"{who} must be a contraction, got norm {nu:.12f}")
    return nu


def _levels_for(space: spaces.SpaceRep, cfg: witness.SearchConfig) -> tuple[list, list]:
    if space.norm_mode == spaces.LEVEL1_ORACLE:
        return [1], [LEVEL1_NOTE]
    return list(range(1, cfg.max_level + 1)), []


def _sweep_radii(cfg: witness.SearchConfig) -> list:
    return sorted(set(RADIUS_SWEEP) | {cfg.radius, 1.0})


def _searched_check(
    criterion: str,
    key: int,
    space: spaces.SpaceRep,
    cfg: witness.SearchConfig,
    objective_for_level,
    levels: list,
    radii: list,
    mode: str = witness.BALL,
    notes: list | None = None,
) -> CheckReport:
    """Run the violation search over (level, radius) cells and assemble the report.

    Levels are searched in increasing order and stop early once a level has
    produced a violation: the verdict cannot change, only the margin could.
    Within a level the radii run largest-first, since every smaller ball is
    contained in the largest one.  ``objective_for_level(n)`` returns the
    (objective, gradient) pair searched at level n.
    """
    cfg.validate()
    cfg.guard_ambient(space)
    notes = list(notes or [])
    n_cells = len(levels) * len(radii)
    per_cell = max(1, cfg.restarts // n_cells) if cfg.restarts > 0 else 0

    best_value = -np.inf
    best_elem = None
    best_radius = cfg.radius
    best_pair = None
    evaluations = 0
    trace = []
    levels_checked = []
    for li, n in enumerate(levels):
        objective, gradient = objective_for_level(n)
        levels_checked.append(n)
        for ri, r in enumerate(sorted(radii, reverse=True)):
            res = witness.maximize_violation(
                objective, space, n, cfg, radius=r, mode=mode,
                restarts=per_cell, stream_key=(key, li, ri), gradient=gradient,
            )
            evaluations += res.evaluations
            trace.append({"level": n, "radius": r, "restarts": per_cell,
                          "best": res.best_value if np.isfinite(res.best_value) else None,
                          "evaluations": res.evaluations,
                          "restart_bests": [v if np.isfinite(v) else None
                                            for v in res.restart_bests]})
            if res.best_value > best_value:
                best_value = res.best_value
                best_elem = res.best_point
                best_radius = r
                best_pair = (objective, gradient)
        if best_value > cfg.tolerance:
            break

    if best_elem is not None:
        objective, gradient = best_pair
        polished = witness.refine_witness(
            objective, space, best_elem, cfg, radius=best_radius, mode=mode, gradient=gradient
        )
        evaluations += polished.evaluations
        if polished.best_value > best_value:
            best_value = polished.best_value
            best_elem = polished.best_point

    dead = sum(v is None for cell in trace for v in cell["restart_bests"])
    if dead:
        started = sum(len(cell["restart_bests"]) for cell in trace)
        notes.append(f"{dead} of {started} restarts died on non-finite objective values")
    if best_elem is None:
        return CheckReport(
            criterion=criterion, verdict=INCONCLUSIVE, margin=0.0, witness=None,
            levels_checked=levels_checked, samples=evaluations, config=cfg.to_dict(),
            notes=notes if dead else notes + ["no search evidence (zero restarts)"], trace=trace,
        )

    margin = -best_value
    if best_value > cfg.tolerance:
        aux = {"violation": best_value,
               "witness_norm": float(spaces.norm(space, best_elem))}
        return CheckReport(
            criterion=criterion, verdict=VIOLATED, margin=margin,
            witness=_witness_dict(best_elem, aux),
            levels_checked=levels_checked, samples=evaluations, config=cfg.to_dict(),
            notes=notes, trace=trace,
        )
    return CheckReport(
        criterion=criterion, verdict=HOLDS_WITHIN_BUDGET, margin=margin, witness=None,
        levels_checked=levels_checked, samples=evaluations, config=cfg.to_dict(),
        notes=notes, trace=trace,
    )


def _unsupported(criterion: str, cfg: witness.SearchConfig, why: str) -> CheckReport:
    return CheckReport(
        criterion=criterion, verdict=UNSUPPORTED_LEVEL, margin=0.0, witness=None,
        levels_checked=[], samples=0, config=cfg.to_dict(), notes=[why],
    )


# ---------------------------------------------------------------------------
# objectives (each receives coefficient-grid stacks; see witness.maximize_violation)


class _Engine:
    """Realization layout for one (space, level): dense, per-fiber, or level-1 oracle.

    ``realize`` maps coefficient grids to matrix stacks, ``norms`` measures
    them, ``cotangents`` returns the norms with their cotangents (see
    ``matcore.norm_cotangent_stack``) and ``adjoint`` maps such cotangents
    back to coefficient gradients; the distinguished element comes
    pre-amplified in the same layout so gadget assemblies broadcast against
    realized stacks directly.
    """

    def __init__(self, space: spaces.SpaceRep, v: np.ndarray, level: int):
        vgrid = np.zeros((level, level, space.dim), dtype=np.complex128)
        for i in range(level):
            vgrid[i, i] = v
        if space.norm_mode == spaces.LEVEL1_ORACLE:
            oracle = spaces.ORACLES[space.level1_oracle]
            fiber = space.fiber
            kind = space.level1_oracle
            self.realize = lambda c: spaces.realize_stack(space, c)
            self.adjoint = lambda w: spaces.realize_adjoint_stack(space, w)
            self.norms = lambda m: oracle(m, fiber=fiber)
        elif space.fiber > 1:
            kind = "op_norm_fibers"
            self.realize = lambda c: spaces.realize_fibers_stack(space, c)
            self.adjoint = lambda w: spaces.realize_fibers_adjoint_stack(space, w)
            self.norms = matcore.op_norm_fibers
        else:
            kind = "op_norm"
            self.realize = lambda c: spaces.realize_stack(space, c)
            self.adjoint = lambda w: spaces.realize_adjoint_stack(space, w)
            self.norms = matcore.op_norm_stack
        self.cotangents = lambda m: matcore.norm_cotangent_stack(m, kind)
        self.unit = self.realize(vgrid)


def _scaled(s: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Per-element scalars (...) times coefficient gradients (..., n, n, k)."""
    return s[..., None, None, None] * grads


def _sqrt1(nx):
    return np.sqrt(1.0 + nx)


def _sqrt1_slope(nx):
    return 0.5 / np.sqrt(1.0 + nx)


def _hypot1(nx):
    return np.sqrt(1.0 + nx**2)


def _hypot1_slope(nx):
    return nx / np.sqrt(1.0 + nx**2)


@dataclass(frozen=True)
class SearchCriterion:
    """One searched criterion: ||gadget(u_n, x)|| against target(||x||) for every x in M_n(X).

    The gadget is assembled by ``gadgets.<gadget>_stack`` and its x-part has
    the adjoint ``gadgets.<gadget>_stack_adjoint``; both are looked up when an
    objective is built.  A signed criterion is the inequality
    ||gadget|| >= target, searched as target - ||gadget||; otherwise it is
    the identity ||gadget|| = target, searched as the absolute deviation.
    """

    name: str
    key: int  # RNG stream tag
    who: str  # the distinguished element's name in messages
    gadget: str
    target: Callable
    slope: Callable  # derivative of target
    signed: bool
    shows: str  # the gadget's norm as the CLI prints it
    target_text: str
    rotations: bool = False  # the gadget stacks four rotations; its norm is their max
    sphere: bool = False  # search norm-one x; otherwise balls at the swept radii
    unsupported: str | None = None  # UNSUPPORTED_LEVEL reason on level-1-oracle spaces
    involution: bool = False  # needs the space's involution and a selfadjoint unit

    def objective(self, space, u, level):
        """(objective, gradient) at one level.

        The objective maps coefficient stacks (..., n, n, k) to values (...),
        the gradient maps them to the ascent direction (..., n, n, k) by the
        chain rule through the norms' cotangents, with real and imaginary
        parts the partial derivatives along the real and imaginary coefficient
        parts (a subgradient at kinks).
        """
        eng = _Engine(space, u, level)
        assemble = getattr(gadgets, f"{self.gadget}_stack")
        adjoint = getattr(gadgets, f"{self.gadget}_stack_adjoint")

        def f(coeffs):
            X = eng.realize(coeffs)
            nx = eng.norms(X)
            ng = eng.norms(assemble(eng.unit, X))
            if self.rotations:
                ng = ng.max(axis=0)
            if self.signed:
                return self.target(nx) - ng
            return np.abs(ng - self.target(nx))

        def grad(coeffs):
            X = eng.realize(coeffs)
            nx, Wx = eng.cotangents(X)
            ng, Wg = eng.cotangents(assemble(eng.unit, X))
            gx = eng.adjoint(adjoint(ng, Wg) if self.rotations else adjoint(Wg))
            tx = _scaled(self.slope(nx), eng.adjoint(Wx))
            if self.signed:
                return tx - gx
            return _scaled(np.sign(ng - self.target(nx)), gx - tx)

        return f, grad

    def value_at(self, space, u, elem: spaces.LevelElement) -> float:
        """The searched objective at one element, evaluated from scratch."""
        u = _unit_coeffs(space, u, self.who)
        return float(self.objective(space, u, elem.level)[0](elem.coeffs[None])[0])


SEARCH_CRITERIA = {c.name: c for c in (
    SearchCriterion("unitary-four-rotation", 1, "u", "four_rotation", _sqrt1, _sqrt1_slope,
                    signed=True, rotations=True,
                    shows="max_k ||u_n + i^k x||", target_text="sqrt(1 + ||x||)"),
    SearchCriterion("unitary-t-gadget", 2, "v", "t", _sqrt1, _sqrt1_slope, signed=True,
                    unsupported="the doubling gadget needs 2x2 blocks over X",
                    shows="||[[v_n, x], [0, v_n]]||", target_text="sqrt(1 + ||x||)"),
    SearchCriterion("coisometry", 3, "u", "row", _hypot1, _hypot1_slope, signed=False,
                    sphere=True, unsupported="row/column gadgets need rectangular blocks over X",
                    shows="||[u_n  x]||", target_text="sqrt(1 + ||x||^2)"),
    SearchCriterion("isometry", 4, "u", "column", _hypot1, _hypot1_slope, signed=False,
                    sphere=True, unsupported="row/column gadgets need rectangular blocks over X",
                    shows="||[u_n ; x]||", target_text="sqrt(1 + ||x||^2)"),
    SearchCriterion("operator-system", 5, "v", "r", _hypot1, _hypot1_slope, signed=False,
                    involution=True, unsupported="the skew gadget needs 2x2 blocks over X",
                    shows="||[[v_n, x], [-x*, v_n]]||", target_text="sqrt(1 + ||x||^2)"),
)}


def _gadget_check(name: str, space: spaces.SpaceRep, u, cfg: witness.SearchConfig | None) -> CheckReport:
    """Check one SEARCH_CRITERIA row: its preconditions in order, then the violation search."""
    spec = SEARCH_CRITERIA[name]
    cfg = cfg or witness.SearchConfig()
    if spec.involution and space.involution is None:
        raise InvalidInputError(f"{name} check requires an involution")
    u = _unit_coeffs(space, u, spec.who)
    if spec.involution and np.abs(space.involution @ np.conj(u) - u).max() > 1e-9:
        raise InvalidInputError(f"{spec.who} must be selfadjoint ({spec.who} = {spec.who}*)")
    _require_contraction(space, u, spec.who)
    if spec.unsupported and space.norm_mode == spaces.LEVEL1_ORACLE:
        return _unsupported(name, cfg, spec.unsupported)
    levels, notes = _levels_for(space, cfg)
    radii, mode = ([1.0], witness.SPHERE) if spec.sphere else (_sweep_radii(cfg), witness.BALL)
    return _searched_check(
        name, spec.key, space, cfg, lambda n: spec.objective(space, u, n),
        levels, radii, mode=mode, notes=notes,
    )


def four_rotation_violation_at(space, u, elem: spaces.LevelElement) -> float:
    """sqrt(1 + ||x||) - max_k ||u_n + i^k x|| evaluated at one element."""
    return SEARCH_CRITERIA["unitary-four-rotation"].value_at(space, u, elem)


def t_gadget_violation_at(space, v, elem: spaces.LevelElement) -> float:
    return SEARCH_CRITERIA["unitary-t-gadget"].value_at(space, v, elem)


def row_deviation_at(space, u, elem: spaces.LevelElement) -> float:
    return SEARCH_CRITERIA["coisometry"].value_at(space, u, elem)


def column_deviation_at(space, u, elem: spaces.LevelElement) -> float:
    return SEARCH_CRITERIA["isometry"].value_at(space, u, elem)


def r_gadget_deviation_at(space, v, elem: spaces.LevelElement) -> float:
    return SEARCH_CRITERIA["operator-system"].value_at(space, v, elem)


# ---------------------------------------------------------------------------
# unitality, coisometry / isometry and operator systems: one SEARCH_CRITERIA row each


def check_unitary_four_rotation(space: spaces.SpaceRep, u=None, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Is u a unitary in X?  Searches for x with max_k ||u_n + i^k x|| < sqrt(1 + ||x||)."""
    return _gadget_check("unitary-four-rotation", space, u, cfg)


def check_unitary_t_gadget(space: spaces.SpaceRep, v=None, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Same decision via the doubling gadget ||[[v_n, x], [0, v_n]]|| >= sqrt(1 + ||x||)."""
    return _gadget_check("unitary-t-gadget", space, v, cfg)


def check_coisometry(space: spaces.SpaceRep, u=None, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Row test: ||[u_n  x]||^2 = 1 + ||x||^2 over norm-one x (deviation searched on the sphere)."""
    return _gadget_check("coisometry", space, u, cfg)


def check_isometry(space: spaces.SpaceRep, u=None, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Column test: ||[u_n ; x]||^2 = 1 + ||x||^2 over norm-one x."""
    return _gadget_check("isometry", space, u, cfg)


def check_operator_system(space: spaces.SpaceRep, v=None, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Does (X, *, v) carry an operator-system structure?  Tests ||r_x|| = sqrt(1 + ||x||^2)."""
    return _gadget_check("operator-system", space, v, cfg)


# ---------------------------------------------------------------------------
# positivity and adjoints (grid + refinement, no ascent search)


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> tuple[float, float, int]:
    """Golden-section maximizer for a unimodal slice; returns (argmax, max, evals)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        evals += 1
        if b - a < 1e-13:
            break
    if fc >= fd:
        return c, fc, evals
    return d, fd, evals


def _coerce_square(space, x, who="x"):
    if isinstance(x, spaces.LevelElement):
        m = spaces.realize(space, x)
    else:
        m = matcore.as_cmat(x)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{who} must be square (ambient contains 1)")
    return m


def check_positive(space: spaces.SpaceRep, x, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Is x in the positive cone?  Tests ||1 - z x|| <= 1 on the circle |1 - z| = 1.

    The map z -> ||1 - z x|| is subharmonic, so the maximum over the disk
    |1 - z| <= 1 sits on its boundary circle; the circle is sampled and the
    peak polished by golden-section refinement.
    """
    cfg = cfg or witness.SearchConfig()
    cfg.validate()
    m = _coerce_square(space, x)
    nm = matcore.op_norm(m)
    if nm > 1.0 + 1e-9:
        raise InvalidInputError(f"x must be a contraction, got norm {nm:.12f}")
    d = m.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg.circle_samples, endpoint=False)
    zs = 1.0 + np.exp(1j * thetas)
    vals = matcore.op_norm_stack(eye - zs[:, None, None] * m)
    i0 = int(np.argmax(vals))
    width = 2.0 * math.pi / cfg.circle_samples

    def slice_f(theta):
        return matcore.op_norm(eye - (1.0 + np.exp(1j * theta)) * m)

    t0, f0, extra = _golden_max(slice_f, thetas[i0] - width, thetas[i0] + width)
    if f0 < vals[i0]:
        t0, f0 = thetas[i0], float(vals[i0])
    z0 = 1.0 + np.exp(1j * t0)
    violation = f0 - 1.0
    samples = cfg.circle_samples + extra
    aux = {"z": _encode_complex(z0), "max_norm": float(f0)}
    if violation > cfg.tolerance:
        return CheckReport("positive", VIOLATED, -violation, _witness_dict(None, aux),
                           [1], samples, cfg.to_dict())
    return CheckReport("positive", HOLDS_WITHIN_BUDGET, -violation, _witness_dict(None, aux),
                       [1], samples, cfg.to_dict())


def check_adjoint(x, z, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Is z = x*?  Tests ||[[t, x], [-z, t]]|| <= sqrt(1 + t^2) over a real t-grid."""
    cfg = cfg or witness.SearchConfig()
    cfg.validate()
    x = matcore.as_cmat(x)
    z = matcore.as_cmat(z)
    if x.shape != z.shape or x.shape[0] != x.shape[1]:
        raise ShapeError("x and z must be square of equal size")
    for name, m in (("x", x), ("z", z)):
        nm = matcore.op_norm(m)
        if nm > 1.0 + 1e-9:
            raise InvalidInputError(f"{name} must be a contraction, got norm {nm:.12f}")
    d = x.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    ts = np.linspace(-cfg.t_max, cfg.t_max, cfg.circle_samples)
    blocks = gadgets.two_by_two_stack(
        ts[:, None, None] * eye, np.broadcast_to(x, (len(ts), d, d)),
        np.broadcast_to(-z, (len(ts), d, d)), ts[:, None, None] * eye,
    )
    devs = matcore.op_norm_stack(blocks) - np.sqrt(1.0 + ts**2)
    i0 = int(np.argmax(devs))
    width = 2.0 * cfg.t_max / (cfg.circle_samples - 1)

    def slice_f(t):
        return matcore.op_norm(gadgets.build_adjoint_block(x, z, t)) - math.sqrt(1.0 + t * t)

    lo = max(-cfg.t_max, ts[i0] - width)
    hi = min(cfg.t_max, ts[i0] + width)
    t0, f0, extra = _golden_max(slice_f, lo, hi)
    if f0 < devs[i0]:
        t0, f0 = float(ts[i0]), float(devs[i0])
    samples = cfg.circle_samples + extra
    aux = {"t": float(t0), "deviation": float(f0)}
    verdict = VIOLATED if f0 > cfg.tolerance else HOLDS_WITHIN_BUDGET
    return CheckReport("adjoint", verdict, -float(f0), _witness_dict(None, aux),
                       [1], samples, cfg.to_dict())


# ---------------------------------------------------------------------------
# multiplicative structure


def _projection_residual_matrix(space, m):
    c = spaces.coefficients_of(space, m)
    proj = np.tensordot(c, space.basis, axes=(0, 0))
    return m - proj, c


def _sample_space_matrix(space, rng, unit_norm=True):
    elem = spaces.random_element(space, 1, rng, target_norm=1.0 if unit_norm else None)
    return spaces.realize(space, elem), elem


def _mult_row_deviations(x_mat, z_mat, y_mat, bs):
    """|| [[0,y,1,0],[2,x,z,b]] || - || [2,x,z,b] || for a stack of fillers b."""
    d = x_mat.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    zero = np.zeros((d, d), dtype=np.complex128)
    nb = len(bs)
    top = np.broadcast_to(np.concatenate([zero, y_mat, eye, zero], axis=1), (nb, d, 4 * d))
    bottom = np.concatenate([
        np.broadcast_to(2 * eye, (nb, d, d)),
        np.broadcast_to(x_mat, (nb, d, d)),
        np.broadcast_to(z_mat, (nb, d, d)),
        bs,
    ], axis=2)
    two_by_four = np.concatenate([top, bottom], axis=1)
    return matcore.op_norm_stack(two_by_four) - matcore.op_norm_stack(bottom)


def _metric_closure_deviation(space, x_mat, y_mat, cfg, rng):
    """Best detectable gap for the pair (x, y): z is the best in-space candidate."""
    prod = x_mat @ matcore.dagger(y_mat)
    _, c = _projection_residual_matrix(space, prod)
    z_mat = -np.tensordot(c, space.basis, axes=(0, 0))
    d = x_mat.shape[0]
    bs = [gadgets.proof_b(x_mat, np.zeros_like(x_mat), z_mat)]
    for _ in range(cfg.b_samples):
        b = matcore.rand_cmat(d, d, rng)
        nb = matcore.op_norm(b)
        bs.append(b / nb if nb > 0 else b)
    devs = _mult_row_deviations(x_mat, z_mat, y_mat, np.stack(bs))
    return float(np.max(np.abs(devs))), z_mat


def check_mult_closed(space: spaces.SpaceRep, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Is the subspace closed under ambient multiplication?

    Dual-route check: exact membership residuals of basis products, cross
    validated by the metric row identity || [[0,y,1,0],[2,x,z,b]] || = || [2,x,z,b] ||
    with z the best in-space candidate.  Disagreement between the routes is
    flagged loudly; it indicates a bug, as the two are provably equivalent.
    """
    cfg = cfg or witness.SearchConfig()
    cfg.validate()
    if space.p != space.q:
        raise ShapeError("multiplication closure needs a square ambient")
    k = space.dim
    alg_max, alg_pair = -np.inf, (0, 0)
    for i in range(k):
        for j in range(k):
            r = spaces.membership_residual(space, space.basis[i] @ space.basis[j])
            if r > alg_max:
                alg_max, alg_pair = r, (i, j)
    samples = k * k

    met_max = -np.inf
    met_witness = None
    for t in range(MULT_METRIC_PAIRS):
        rng = matcore.stream(cfg.seed, _KEY_MULT_CLOSED, 1, t)
        x_mat, x_elem = _sample_space_matrix(space, rng)
        y_base, _ = _sample_space_matrix(space, rng)
        y_mat = matcore.dagger(y_base)  # contractive element of A*
        dev, _ = _metric_closure_deviation(space, x_mat, y_mat, cfg, rng)
        samples += cfg.b_samples + 1
        if dev > met_max:
            met_max = dev
            met_witness = (x_elem, y_mat)

    agree = (alg_max > cfg.tolerance) == (met_max > cfg.tolerance)
    if not agree:
        log.warning("mult-closed: metric and algebraic routes disagree (alg=%.3e, metric=%.3e)",
                    alg_max, met_max)
    aux = {"algebraic_max": float(alg_max), "metric_max": float(met_max), "paths_agree": bool(agree)}
    notes = [] if agree else ["metric/algebraic route disagreement: possible bug"]

    worst = max(alg_max, met_max)
    if worst > cfg.tolerance:
        if alg_max >= met_max:
            i, j = alg_pair
            waux = dict(aux, path="algebraic", x_basis=i, y_basis=j, residual=float(alg_max),
                        y=_encode_array(matcore.dagger(space.basis[j])))
            welem = spaces.LevelElement(1, np.eye(k, dtype=np.complex128)[i].reshape(1, 1, k))
        else:
            x_elem, y_mat = met_witness
            waux = dict(aux, path="metric", deviation=float(met_max), y=_encode_array(y_mat))
            welem = x_elem
        return CheckReport("mult-closed", VIOLATED, -worst, _witness_dict(welem, waux),
                           [1], samples, cfg.to_dict(), notes)
    return CheckReport("mult-closed", HOLDS_WITHIN_BUDGET, -worst, _witness_dict(None, aux),
                       [1], samples, cfg.to_dict(), notes)


def check_multiplier(space: spaces.SpaceRep, w, side: str, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Does w act as a left/right/quasi multiplier of the subspace (wA, Aw, AwA inside A)?

    The verdict comes from exact membership residuals over the basis; for
    square ambients the metric row identity is sampled as cross-validation.
    """
    cfg = cfg or witness.SearchConfig()
    cfg.validate()
    w = matcore.as_cmat(w)
    p, q, k = space.p, space.q, space.dim
    shapes = {"left": (p, p), "right": (q, q), "quasi": (q, p)}
    if side not in shapes:
        raise InvalidInputError(f"side must be one of {sorted(shapes)}, got {side!r}")
    if w.shape != shapes[side]:
        raise ShapeError(f"{side} multiplier must be {shapes[side]}, got {w.shape}")

    alg_max, alg_idx = -np.inf, (0,)
    if side == "left":
        products = {(i,): w @ space.basis[i] for i in range(k)}
    elif side == "right":
        products = {(i,): space.basis[i] @ w for i in range(k)}
    else:
        products = {(i, j): space.basis[i] @ w @ space.basis[j] for i in range(k) for j in range(k)}
    for idx, m in products.items():
        r = spaces.membership_residual(space, m)
        if r > alg_max:
            alg_max, alg_idx = r, idx
    samples = len(products)

    met_max = None
    agree = None
    if p == q:
        met_max = -np.inf
        for t in range(MULTIPLIER_METRIC_PAIRS):
            rng = matcore.stream(cfg.seed, _KEY_MULTIPLIER, 1, t)
            a_mat, _ = _sample_space_matrix(space, rng)
            if side == "left":
                x_mat, y_mat = w, matcore.dagger(a_mat)
            elif side == "right":
                x_mat, y_mat = a_mat, matcore.dagger(w)
            else:
                b_mat, _ = _sample_space_matrix(space, rng)
                x_mat, y_mat = a_mat @ w, matcore.dagger(b_mat)
            dev, _ = _metric_closure_deviation(space, x_mat, y_mat, cfg, rng)
            samples += cfg.b_samples + 1
            met_max = max(met_max, dev)
        agree = (alg_max > cfg.tolerance) == (met_max > cfg.tolerance)
        if not agree:
            log.warning("multiplier-%s: metric and algebraic routes disagree (alg=%.3e, metric=%.3e)",
                        side, alg_max, met_max)

    aux = {"algebraic_max": float(alg_max), "side": side}
    notes = []
    if met_max is not None:
        aux["metric_max"] = float(met_max)
        aux["paths_agree"] = bool(agree)
        if not agree:
            notes.append("metric/algebraic route disagreement: possible bug")

    criterion = f"multiplier-{side}"
    if alg_max > cfg.tolerance:
        waux = dict(aux, basis_index=list(alg_idx), residual=float(alg_max))
        return CheckReport(criterion, VIOLATED, -alg_max, _witness_dict(None, waux),
                           [1], samples, cfg.to_dict(), notes)
    return CheckReport(criterion, HOLDS_WITHIN_BUDGET, -alg_max, _witness_dict(None, aux),
                       [1], samples, cfg.to_dict(), notes)


def _stacked_pair_deviations(space, T, a_coeffs, b_coeffs):
    """||[T(a); b]|| - ||[a; b]|| over stacks of coefficient grids."""
    Ta = np.einsum("lm,...ijm->...ijl", T, a_coeffs)
    top = spaces.realize_stack(space, Ta)
    bot = spaces.realize_stack(space, b_coeffs)
    ref_top = spaces.realize_stack(space, a_coeffs)
    lhs = matcore.op_norm_stack(np.concatenate([top, bot], axis=-2), fiber=space.fiber)
    rhs = matcore.op_norm_stack(np.concatenate([ref_top, bot], axis=-2), fiber=space.fiber)
    return lhs - rhs


def check_left_multiplier_map(space: spaces.SpaceRep, T, cfg: witness.SearchConfig | None = None,
                              pairs_per_level: int | None = None,
                              stream_tag: int = _KEY_LEFT_MULT_MAP) -> CheckReport:
    """Is the coefficient map T a contractive left multiplier?

    Samples pairs (a, b) in M_n(X) and checks the stacked-column contraction
    ||[T(a); b]|| <= ||[a; b]||.
    """
    cfg = cfg or witness.SearchConfig()
    cfg.validate()
    cfg.guard_ambient(space)
    if space.norm_mode == spaces.LEVEL1_ORACLE:
        return _unsupported("left-multiplier-map", cfg, "stacked columns need rectangular blocks over X")
    T = np.asarray(T, dtype=np.complex128)
    k = space.dim
    if T.shape != (k, k):
        raise ShapeError(f"T must be a {k}x{k} coefficient matrix")
    n_pairs = pairs_per_level if pairs_per_level is not None else max(8, cfg.restarts)

    worst = -np.inf
    worst_witness = None
    samples = 0
    for n in range(1, cfg.max_level + 1):
        rng = matcore.stream(cfg.seed, stream_tag, n)
        a = (rng.normal(size=(n_pairs, n, n, k)) + 1j * rng.normal(size=(n_pairs, n, n, k))) / np.sqrt(2)
        b = (rng.normal(size=(n_pairs, n, n, k)) + 1j * rng.normal(size=(n_pairs, n, n, k))) / np.sqrt(2)
        a_all = np.concatenate([a, a], axis=0)
        b_all = np.concatenate([b, a], axis=0)  # include b = a pairs
        devs = _stacked_pair_deviations(space, T, a_all, b_all)
        samples += a_all.shape[0]
        i0 = int(np.argmax(devs))
        if devs[i0] > worst:
            worst = float(devs[i0])
            worst_witness = (n, a_all[i0], b_all[i0])

    if worst > cfg.tolerance:
        n, a0, b0 = worst_witness
        waux = {"deviation": worst, "b": _encode_array(b0)}
        return CheckReport("left-multiplier-map", VIOLATED, -worst,
                           _witness_dict(spaces.LevelElement(n, a0), waux),
                           list(range(1, cfg.max_level + 1)), samples, cfg.to_dict())
    return CheckReport("left-multiplier-map", HOLDS_WITHIN_BUDGET, -worst, None,
                       list(range(1, cfg.max_level + 1)), samples, cfg.to_dict())


def check_algebra_product(space: spaces.SpaceRep, u, tensor, cfg: witness.SearchConfig | None = None,
                          n_multiplier_samples: int = 8) -> CheckReport:
    """Does the bilinear map m (given by a structure tensor) make (X, u) a unital operator algebra?

    Three sub-checks: (i) u passes the coisometry row test; (ii) y -> m(x, y)
    is a contractive left multiplier for sampled contractive x; (iii) m(x, u) = x
    exactly on the basis.  The report names any failing sub-check.
    """
    cfg = cfg or witness.SearchConfig()
    cfg.validate()
    k = space.dim
    t = np.asarray(tensor, dtype=np.complex128)
    if t.shape != (k, k, k):
        raise ShapeError(f"structure tensor must be {k}x{k}x{k}, got {t.shape}")
    u = _unit_coeffs(space, u)

    failed = []
    coiso = check_coisometry(space, u=u, cfg=cfg)
    samples = coiso.samples
    margins = [coiso.margin]
    if coiso.verdict != HOLDS_WITHIN_BUDGET:
        failed.append("unit-coisometry")

    mult_worst = -np.inf
    for s in range(n_multiplier_samples):
        rng = matcore.stream(cfg.seed, _KEY_ALGEBRA_PRODUCT, s)
        _, x_elem = _sample_space_matrix(space, rng)
        Tx = np.einsum("i,ijl->lj", x_elem.coeffs.reshape(-1), t)
        sub = check_left_multiplier_map(space, Tx, cfg, pairs_per_level=16,
                                        stream_tag=_KEY_ALGEBRA_PRODUCT * 100 + s)
        samples += sub.samples
        mult_worst = max(mult_worst, -sub.margin)
    margins.append(-mult_worst)
    if mult_worst > cfg.tolerance:
        failed.append("left-multiplier")

    unit_action = np.einsum("j,ijl->il", u, t)
    resid = matcore.op_norm_stack(
        spaces.realize_stack(space, (unit_action - np.eye(k))[:, None, None, :]), fiber=space.fiber
    )
    unit_max = float(np.max(resid))
    samples += k
    margins.append(-unit_max)
    if unit_max > cfg.tolerance:
        failed.append("right-unit")

    aux = {
        "unit_coisometry_verdict": coiso.verdict,
        "multiplier_max_deviation": float(mult_worst),
        "unit_action_residual": unit_max,
        "failed": failed,
    }
    margin = float(min(margins))
    verdict = HOLDS_WITHIN_BUDGET if not failed else VIOLATED
    return CheckReport("algebra-product", verdict, margin, _witness_dict(None, aux),
                       list(range(1, cfg.max_level + 1)), samples, cfg.to_dict())


def check_cstar_among_systems(space: spaces.SpaceRep, cfg: witness.SearchConfig | None = None,
                              n_pairs: int = 20, n_contractions: int = 16) -> CheckReport:
    """Does the ambient product make the operator system a C*-algebra?

    For sampled (x, y) it builds the normalized 2x6 rows with z = -x y* and the
    canonical filler b, then verifies ||[M+- (x) I_m, w]|| = sqrt(2) for sampled
    norm-one w in M_2m(X).
    """
    cfg = cfg or witness.SearchConfig()
    cfg.validate()
    if space.norm_mode != spaces.EMBEDDED:
        return _unsupported("cstar-among-systems", cfg, "needs an embedded space")
    if space.involution is None or space.unit is None:
        raise InvalidInputError("cstar check requires an involution and a distinguished element")
    if space.p != space.q:
        raise ShapeError("cstar check needs a square ambient")
    cfg.guard_ambient(space)

    worst = -np.inf
    worst_aux = None
    in_space_max = 0.0
    samples = 0
    levels = list(range(1, cfg.max_level + 1))
    for tpair in range(n_pairs):
        rng = matcore.stream(cfg.seed, _KEY_CSTAR, tpair)
        x_mat, _ = _sample_space_matrix(space, rng)
        y_mat, _ = _sample_space_matrix(space, rng)
        z_mat = -x_mat @ matcore.dagger(y_mat)
        b_mat = gadgets.proof_b(x_mat, y_mat, z_mat)
        in_space_max = max(in_space_max,
                           spaces.membership_residual(space, z_mat),
                           spaces.membership_residual(space, b_mat))
        for sign in ("+", "-"):
            M = gadgets.build_M_pm(x_mat, y_mat, z_mat, b_mat, sign=sign)
            for m in levels:
                amp = matcore.scalar_amplify(M, m)
                ws = np.empty((n_contractions, 2 * m * space.p, 2 * m * space.q), dtype=np.complex128)
                for iw in range(n_contractions):
                    elem = spaces.random_element(space, 2 * m, rng, target_norm=1.0)
                    ws[iw] = spaces.realize(space, elem)
                rows = np.concatenate([np.broadcast_to(amp, (n_contractions,) + amp.shape), ws], axis=2)
                devs = np.abs(matcore.op_norm_stack(rows, fiber=space.fiber) - SQRT2)
                samples += n_contractions
                i0 = int(np.argmax(devs))
                if devs[i0] > worst:
                    worst = float(devs[i0])
                    worst_aux = {"pair": tpair, "sign": sign, "amplification": m,
                                 "deviation": float(devs[i0])}

    aux = dict(worst_aux or {}, construction_residual=float(in_space_max))
    notes = []
    if worst > cfg.tolerance:
        verdict = VIOLATED
    elif in_space_max > cfg.tolerance:
        verdict = INCONCLUSIVE
        notes.append("the canonical z, b leave the space; existence over X not certified")
    else:
        verdict = HOLDS_WITHIN_BUDGET
    return CheckReport("cstar-among-systems", verdict, -worst, _witness_dict(None, aux),
                       levels, samples, cfg.to_dict(), notes)


# ---------------------------------------------------------------------------
# catalog for the CLI

CRITERION_RUNNERS = {
    "unitary-four-rotation": check_unitary_four_rotation,
    "unitary-t-gadget": check_unitary_t_gadget,
    "coisometry": check_coisometry,
    "isometry": check_isometry,
    "operator-system": check_operator_system,
    "mult-closed": check_mult_closed,
    "cstar-among-systems": check_cstar_among_systems,
}
