"""Metric characterizations as decision procedures returning CheckReports.

Universally quantified criteria delegate to the violation search in
:mod:`opspace.witness`, and VIOLATED comes with a concrete witness that
reproduces the reported margin on re-evaluation.  A HOLDS_WITHIN_BUDGET
verdict is either evidence from that search or, for the five searched
criteria on embedded spaces, a proof: when the distinguished element
satisfies the ternary identity of its criterion (``SearchCriterion.proof``)
on every basis element, the criterion holds at every level and no search
runs.  Such a report carries ``proof``; a searched one does not.

The sampled checks (``mult-closed``, the multipliers, ``cstar-among-systems``)
draw each pair from its own stream, one pair at a time, and evaluate
everything after the draws on stacks of pairs, in chunks of at most
``_CHUNK_BYTES`` per stack; their picks are the first maxima in pair order,
so a report does not depend on the chunk size.
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
    "IDENTITIES",
    "PROOF_TOL",
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
_STACKED_COLUMNS = "stacked columns need rectangular blocks over X"

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
    proof: dict | None = None  # {"identity", "residual", "tolerance"} when proved, not searched

    def to_dict(self) -> dict:
        d = {
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
        if self.proof is not None:
            d["proof"] = dict(self.proof)
        return d

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
            proof=d.get("proof"),
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
    All radius cells of a level are searched by one lockstep call.  The cells
    are ordered largest radius first, since every smaller ball is contained in
    the largest one; that order fixes each cell's stream key and trace
    position, and a later cell replaces the best only when strictly better.
    ``objective_for_level(n)`` returns the (objective, gradient) pair searched
    at level n.
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
    ordered = sorted(radii, reverse=True)
    for li, n in enumerate(levels):
        objective, gradient = objective_for_level(n)
        levels_checked.append(n)
        results = witness.maximize_violation(
            objective, space, n, cfg, cells=[(r, (key, li, ri)) for ri, r in enumerate(ordered)],
            mode=mode, restarts=per_cell, gradient=gradient,
        )
        for r, res in zip(ordered, results):
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
    proof: str  # the IDENTITIES entry that proves the row on an embedded space
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
        vgrid = np.zeros((level, level, space.dim), dtype=np.complex128)
        vgrid[range(level), range(level)] = u
        unit = spaces.realize_fibers_stack(space, vgrid)  # u_n in the blocks x is realized in
        assemble = getattr(gadgets, f"{self.gadget}_stack")
        adjoint = getattr(gadgets, f"{self.gadget}_stack_adjoint")

        def f(coeffs):
            X = spaces.realize_fibers_stack(space, coeffs)
            nx = spaces.block_norms(space, X)
            ng = spaces.block_norms(space, assemble(unit, X))
            if self.rotations:
                ng = ng.max(axis=0)
            if self.signed:
                return self.target(nx) - ng
            return np.abs(ng - self.target(nx))

        def grad(coeffs):
            X = spaces.realize_fibers_stack(space, coeffs)
            nx, Wx = spaces.block_norm_cotangents(space, X)
            ng, Wg = spaces.block_norm_cotangents(space, assemble(unit, X))
            gx = spaces.realize_fibers_adjoint_stack(space, adjoint(ng, Wg) if self.rotations else adjoint(Wg))
            tx = _scaled(self.slope(nx), spaces.realize_fibers_adjoint_stack(space, Wx))
            if self.signed:
                return tx - gx
            return _scaled(np.sign(ng - self.target(nx)), gx - tx)

        return f, grad

    def value_at(self, space, u, elem: spaces.LevelElement) -> float:
        """The searched objective at one element, evaluated from scratch."""
        u = _unit_coeffs(space, u, self.who)
        return float(self.objective(space, u, elem.level)[0](elem.coeffs[None])[0])

    def search(self, space, u, cfg: witness.SearchConfig) -> CheckReport:
        """The violation search over this row's levels and radii, with no proof tried."""
        levels, notes = _levels_for(space, cfg)
        radii, mode = ([1.0], witness.SPHERE) if self.sphere else (_sweep_radii(cfg), witness.BALL)
        return _searched_check(
            self.name, self.key, space, cfg, lambda n: self.objective(space, u, n),
            levels, radii, mode=mode, notes=notes,
        )


SEARCH_CRITERIA = {c.name: c for c in (
    SearchCriterion("unitary-four-rotation", 1, "u", "four_rotation", _sqrt1, _sqrt1_slope,
                    signed=True, rotations=True, proof="both",
                    shows="max_k ||u_n + i^k x||", target_text="sqrt(1 + ||x||)"),
    SearchCriterion("unitary-t-gadget", 2, "v", "t", _sqrt1, _sqrt1_slope, signed=True,
                    unsupported="the doubling gadget needs 2x2 blocks over X", proof="both",
                    shows="||[[v_n, x], [0, v_n]]||", target_text="sqrt(1 + ||x||)"),
    SearchCriterion("coisometry", 3, "u", "row", _hypot1, _hypot1_slope, signed=False,
                    sphere=True, unsupported="row/column gadgets need rectangular blocks over X",
                    proof="left", shows="||[u_n  x]||", target_text="sqrt(1 + ||x||^2)"),
    SearchCriterion("isometry", 4, "u", "column", _hypot1, _hypot1_slope, signed=False,
                    sphere=True, unsupported="row/column gadgets need rectangular blocks over X",
                    proof="right", shows="||[u_n ; x]||", target_text="sqrt(1 + ||x||^2)"),
    SearchCriterion("operator-system", 5, "v", "r", _hypot1, _hypot1_slope, signed=False,
                    involution=True, unsupported="the skew gadget needs 2x2 blocks over X",
                    proof="corner-unit", shows="||[[v_n, x], [-x*, v_n]]||",
                    target_text="sqrt(1 + ||x||^2)"),
)}

#: A ternary identity proves its row when every residual is at most PROOF_TOL
#: times the largest |entry| of the basis element B it is taken on.
PROOF_TOL = 1e-12

#: The identity each ``SearchCriterion.proof`` kind checks on every basis element B.
IDENTITIES = {
    "both": "u u* B = B = B u* u",
    "left": "u u* B = B",
    "right": "B u* u = B",
    "corner-unit": "v = v*, v B = B = B v",
}


def _ternary_proof(kind: str, space: spaces.SpaceRep, u: np.ndarray) -> dict | None:
    """The ``proof`` entry when u satisfies the identity ``kind`` on every basis element, else None.

    With u u* B = B = B u* u for every B, u is a unitary of the ternary ring
    of operators that X generates (products x y* z keep both identities), so
    (X, u) is a unital operator space and both unitality inequalities hold at
    every level.  The left half alone makes u u* a projection that fixes X
    from the left, so ||[u_n  x]||^2 = ||u_n u_n* + x x*|| = 1 + ||x||^2; the
    right half gives the column identity in the same way.  A selfadjoint v
    with v B = B = B v on a selfadjoint X (``make_space`` checks that the
    involution is the ambient adjoint) is the unit of the corner v M v that
    holds X, so X is an operator system with unit v.  Level-1-oracle spaces
    have no ambient to check this in, and always search.
    """
    if space.norm_mode != spaces.EMBEDDED:
        return None
    B = space.basis
    U = np.tensordot(u, B, axes=1)
    Uh = matcore.dagger(U)
    if kind == "corner-unit":
        images = [U @ B, B @ U]
    else:
        images = []
        if kind in ("both", "left"):
            images.append((U @ Uh) @ B)
        if kind in ("both", "right"):
            images.append(B @ (Uh @ U))
    scale = np.abs(B).max(axis=(1, 2))
    residual = max(float((np.abs(im - B).max(axis=(1, 2)) / scale).max()) for im in images)
    if kind == "corner-unit":
        residual = max(residual, float(np.abs(U - Uh).max() / (np.abs(U).max() or 1.0)))
    if residual > PROOF_TOL:
        return None
    return {"identity": IDENTITIES[kind], "residual": residual, "tolerance": PROOF_TOL}


def _gadget_check(name: str, space: spaces.SpaceRep, u, cfg: witness.SearchConfig | None) -> CheckReport:
    """Check one SEARCH_CRITERIA row: its preconditions in order, then its proof, else the search."""
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
    cfg.validate()
    cfg.guard_ambient(space)
    proof = _ternary_proof(spec.proof, space, u)
    if proof is None:
        return spec.search(space, u, cfg)
    return CheckReport(
        criterion=name, verdict=HOLDS_WITHIN_BUDGET, margin=0.0, witness=None,
        levels_checked=list(range(1, cfg.max_level + 1)), samples=0, config=cfg.to_dict(),
        notes=[f"proved by the ternary identity {proof['identity']}; no search run"], proof=proof,
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


def _grid_peak(values, grid, width: float, lo: float, hi: float) -> tuple[float, float, int]:
    """Maximum of a slice: its best grid point, polished by golden section within ``width`` of it.

    ``values`` maps an array of points to the slice's values there; the
    polish stays inside [lo, hi] and counts only where it beats the grid.
    Returns (argmax, max, evaluations).
    """
    vals = values(grid)
    i0 = int(np.argmax(vals))
    t0, f0, extra = _golden_max(values, max(lo, grid[i0] - width), min(hi, grid[i0] + width))
    if f0 < vals[i0]:
        t0, f0 = grid[i0], vals[i0]
    return float(t0), float(f0), len(grid) + extra


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
    eye = np.eye(m.shape[0], dtype=np.complex128)

    def circle(thetas):
        zs = 1.0 + np.exp(1j * np.asarray(thetas))
        return matcore.op_norm_stack(eye - zs[..., None, None] * m)

    thetas = np.linspace(0.0, 2.0 * math.pi, cfg.circle_samples, endpoint=False)
    t0, f0, samples = _grid_peak(circle, thetas, 2.0 * math.pi / cfg.circle_samples, -math.inf, math.inf)
    violation = f0 - 1.0
    verdict = VIOLATED if violation > cfg.tolerance else HOLDS_WITHIN_BUDGET
    # below the tolerance the arg-max is a plateau or rounding noise, so only a violation names z
    aux = {"z": _encode_complex(1.0 + np.exp(1j * t0))} if verdict == VIOLATED else {}
    aux["max_norm"] = f0
    return CheckReport("positive", verdict, -violation, _witness_dict(None, aux),
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
    eye = np.eye(x.shape[0], dtype=np.complex128)

    def deviation(ts):
        ts = np.asarray(ts)
        diag = ts[..., None, None] * eye
        return matcore.op_norm_stack(gadgets.two_by_two_stack(diag, x, -z, diag)) - np.sqrt(1.0 + ts**2)

    ts = np.linspace(-cfg.t_max, cfg.t_max, cfg.circle_samples)
    # the grid's own spacing, not ts[1] - ts[0], which can differ in the last bit
    width = 2.0 * cfg.t_max / (cfg.circle_samples - 1)
    t0, f0, samples = _grid_peak(deviation, ts, width, -cfg.t_max, cfg.t_max)
    verdict = VIOLATED if f0 > cfg.tolerance else HOLDS_WITHIN_BUDGET
    # as in check_positive, only a violation names its arg-max t
    aux = {"t": t0} if verdict == VIOLATED else {}
    aux["deviation"] = f0
    return CheckReport("adjoint", verdict, -f0, _witness_dict(None, aux),
                       [1], samples, cfg.to_dict())


# ---------------------------------------------------------------------------
# multiplicative structure


#: Bytes of the largest stack a sampled check forms at once.  Its pairs pass
#: through in chunks of as many as fit (at least one), so the working set stays
#: bounded whatever the pair count, level or ambient size.
_CHUNK_BYTES = 256 * 1024


def _chunks(n_pairs: int, pair_bytes: int) -> list:
    """Slices of range(n_pairs) holding as many pairs as fit _CHUNK_BYTES at ``pair_bytes`` each."""
    size = max(1, _CHUNK_BYTES // pair_bytes)
    return [slice(s, min(s + size, n_pairs)) for s in range(0, n_pairs, size)]


def _first_max(values) -> tuple[float, int | None]:
    """What a strict ``>`` scan from -inf picks in a flat array: (value, index of its first occurrence).

    NaN never wins; (-inf, None) when nothing does.
    """
    v = np.where(np.isnan(values), -np.inf, values)
    if not (v > -np.inf).any():
        return -np.inf, None
    i = int(np.argmax(v))
    return float(v[i]), i


def _sample_space_matrix(space, draws):
    """Level-1 draws (..., 1, 1, k) scaled to norm 1: their realized matrices (..., p, q) and the scaled draws."""
    coeffs = spaces._scale_to_norms(space, draws, 1.0)
    return spaces.realize_stack(space, coeffs), coeffs


def _mult_row_deviations(x_mat, z_mat, y_mat, bs):
    """|| [[0,y,1,0],[2,x,z,b]] || - || [2,x,z,b] || for fillers bs (..., nb, d, d) of pairs (..., d, d)."""
    d = bs.shape[-1]
    eye = np.eye(d, dtype=np.complex128)
    zero = np.zeros((d, d), dtype=np.complex128)

    def full(m):
        return np.broadcast_to(m, bs.shape)

    top = np.concatenate([full(zero), full(y_mat[..., None, :, :]), full(eye), full(zero)], axis=-1)
    bottom = np.concatenate([full(2 * eye), full(x_mat[..., None, :, :]), full(z_mat[..., None, :, :]), bs],
                            axis=-1)
    two_by_four = np.concatenate([top, bottom], axis=-2)
    return matcore.op_norm_stack(two_by_four) - matcore.op_norm_stack(bottom)


def _unit_fillers(z) -> np.ndarray:
    """Fillers (..., d, d) from the normals (..., 2, d, d) that ``rand_cmat(d, d, rng)`` draws, scaled to norm 1."""
    bs = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)
    nb = matcore.op_norm_stack(bs)
    return bs / np.where(nb > 0, nb, 1.0)[..., None, None]


def _metric_closure_deviation(space, x_mat, y_mat, fillers):
    """Best detectable gap of each pair (x, y) of stacks (..., d, d); z is the best in-space candidate.

    The gap is the largest |deviation| of the 2x4 row identity over the
    canonical filler and ``fillers`` (..., nb, d, d).  z = -P(x y*), with P
    the projection onto the space, each matrix projected as one (1, pq) row.
    """
    prod = x_mat @ matcore.dagger(y_mat)
    c = prod.reshape(prod.shape[:-2] + (1, -1)) @ space._pinv
    z_mat = -(c @ space._flat).reshape(prod.shape)
    canonical = gadgets.proof_b(x_mat, np.zeros_like(x_mat), z_mat)
    bs = np.concatenate([canonical[..., None, :, :], fillers], axis=-3)
    return np.abs(_mult_row_deviations(x_mat, z_mat, y_mat, bs)).max(axis=-1)


def _metric_pairs(space, cfg, stream_key: tuple, n_pairs: int, count: int):
    """The sampled pairs of the metric row identity, chunk by chunk.

    Pair t draws ``count`` level-1 elements, then ``cfg.b_samples`` fillers,
    from the stream (seed, *stream_key, t).  Yields (pairs, coeffs, mats,
    fillers) per chunk: the slice of pair indices, the draws scaled to norm 1
    (P, count, 1, 1, k), their matrices (P, count, p, q) and the unit-norm
    fillers (P, b_samples, p, p).
    """
    d = space.p
    for pairs in _chunks(n_pairs, (cfg.b_samples + 1) * 8 * d * d * 16):  # the 2x4 rows of one pair
        draws, normals = [], []
        for t in range(pairs.start, pairs.stop):
            rng = matcore.stream(cfg.seed, *stream_key, t)
            draws.append(spaces.random_stack(space, 1, rng, count))
            normals.append(rng.normal(size=(cfg.b_samples, 2, d, d)))
        mats, coeffs = _sample_space_matrix(space, np.stack(draws))
        yield pairs, coeffs, mats, _unit_fillers(np.stack(normals))


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
    residuals = spaces.membership_residual_stack(space, space.basis[:, None] @ space.basis[None])
    alg_pair = np.unravel_index(int(np.argmax(residuals)), (k, k))
    alg_max = float(residuals[alg_pair])
    samples = k * k

    devs = np.empty(MULT_METRIC_PAIRS)
    xs = np.empty((MULT_METRIC_PAIRS, 1, 1, k), dtype=np.complex128)
    ys = np.empty((MULT_METRIC_PAIRS, space.p, space.q), dtype=np.complex128)
    for pairs, coeffs, mats, fillers in _metric_pairs(space, cfg, (_KEY_MULT_CLOSED, 1), MULT_METRIC_PAIRS, 2):
        xs[pairs] = coeffs[:, 0]
        ys[pairs] = matcore.dagger(mats[:, 1])  # contractive elements of A*
        devs[pairs] = _metric_closure_deviation(space, mats[:, 0], ys[pairs], fillers)
    samples += MULT_METRIC_PAIRS * (cfg.b_samples + 1)
    met_max, best = _first_max(devs)

    agree = (alg_max > cfg.tolerance) == (met_max > cfg.tolerance)
    if not agree:
        log.warning("mult-closed: metric and algebraic routes disagree (alg=%.3e, metric=%.3e)",
                    alg_max, met_max)
    aux = {"algebraic_max": float(alg_max), "metric_max": float(met_max), "paths_agree": bool(agree)}
    notes = [] if agree else ["metric/algebraic route disagreement: possible bug"]

    worst = max(alg_max, met_max)
    if worst > cfg.tolerance:
        if alg_max >= met_max:
            i, j = (int(v) for v in alg_pair)
            waux = dict(aux, path="algebraic", x_basis=i, y_basis=j, residual=float(alg_max),
                        y=_encode_array(matcore.dagger(space.basis[j])))
            welem = spaces.LevelElement(1, np.eye(k, dtype=np.complex128)[i].reshape(1, 1, k))
        else:
            waux = dict(aux, path="metric", deviation=float(met_max), y=_encode_array(ys[best]))
            welem = spaces.LevelElement(1, xs[best])
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

    if side == "left":
        products = w @ space.basis
    elif side == "right":
        products = space.basis @ w
    else:
        products = (space.basis @ w)[:, None] @ space.basis[None]
    residuals = spaces.membership_residual_stack(space, products)
    alg_idx = [int(v) for v in np.unravel_index(int(np.argmax(residuals)), residuals.shape)]
    alg_max = float(residuals[tuple(alg_idx)])
    samples = residuals.size

    met_max = None
    agree = None
    if p == q:
        devs = np.empty(MULTIPLIER_METRIC_PAIRS)
        for pairs, _, mats, fillers in _metric_pairs(space, cfg, (_KEY_MULTIPLIER, 1), MULTIPLIER_METRIC_PAIRS,
                                                     2 if side == "quasi" else 1):
            a_mat = mats[:, 0]
            if side == "left":
                x_mat, y_mat = w, matcore.dagger(a_mat)
            elif side == "right":
                x_mat, y_mat = a_mat, matcore.dagger(w)
            else:
                x_mat, y_mat = a_mat @ w, matcore.dagger(mats[:, 1])
            devs[pairs] = _metric_closure_deviation(space, x_mat, y_mat, fillers)
        samples += MULTIPLIER_METRIC_PAIRS * (cfg.b_samples + 1)
        met_max, _ = _first_max(devs)
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
        waux = dict(aux, basis_index=alg_idx, residual=float(alg_max))
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
    lhs = matcore.op_norm_stack(np.concatenate([top, bot], axis=-2))
    rhs = matcore.op_norm_stack(np.concatenate([ref_top, bot], axis=-2))
    return lhs - rhs


def _worst_pair(space, T, cfg, n_pairs: int, tag: int) -> tuple[float, tuple | None, int]:
    """Largest ||[T(a); b]|| - ||[a; b]|| over sampled pairs at every level up to ``cfg.max_level``.

    Level n draws ``n_pairs`` pairs (a, b) from the stream (seed, tag, n) and
    adds the pairs (a, a).  Returns (worst, (level, a, b) at it, pairs tried).
    """
    k = space.dim
    worst = -np.inf
    worst_witness = None
    samples = 0
    for n in range(1, cfg.max_level + 1):
        rng = matcore.stream(cfg.seed, tag, n)
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
    return worst, worst_witness, samples


def check_left_multiplier_map(space: spaces.SpaceRep, T, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Is the coefficient map T a contractive left multiplier?

    Samples pairs (a, b) in M_n(X) and checks the stacked-column contraction
    ||[T(a); b]|| <= ||[a; b]||.
    """
    cfg = cfg or witness.SearchConfig()
    cfg.validate()
    cfg.guard_ambient(space)
    if space.norm_mode == spaces.LEVEL1_ORACLE:
        return _unsupported("left-multiplier-map", cfg, _STACKED_COLUMNS)
    T = np.asarray(T, dtype=np.complex128)
    k = space.dim
    if T.shape != (k, k):
        raise ShapeError(f"T must be a {k}x{k} coefficient matrix")
    worst, worst_witness, samples = _worst_pair(space, T, cfg, max(8, cfg.restarts), _KEY_LEFT_MULT_MAP)
    levels = list(range(1, cfg.max_level + 1))
    if worst > cfg.tolerance:
        n, a0, b0 = worst_witness
        waux = {"deviation": worst, "b": _encode_array(b0)}
        return CheckReport("left-multiplier-map", VIOLATED, -worst,
                           _witness_dict(spaces.LevelElement(n, a0), waux), levels, samples, cfg.to_dict())
    return CheckReport("left-multiplier-map", HOLDS_WITHIN_BUDGET, -worst, None, levels, samples, cfg.to_dict())


def check_algebra_product(space: spaces.SpaceRep, u, tensor, cfg: witness.SearchConfig | None = None,
                          n_multiplier_samples: int = 8) -> CheckReport:
    """Does the bilinear map m (given by a structure tensor) make (X, u) a unital operator algebra?

    Three sub-checks: (i) u passes the coisometry row test; (ii) y -> m(x, y)
    is a contractive left multiplier for sampled contractive x; (iii) m(x, u) = x
    exactly on the basis.  The report names any failing sub-check.  A
    level-1-oracle space gets UNSUPPORTED_LEVEL, as for the left-multiplier map.
    """
    cfg = cfg or witness.SearchConfig()
    cfg.validate()
    k = space.dim
    t = np.asarray(tensor, dtype=np.complex128)
    if t.shape != (k, k, k):
        raise ShapeError(f"structure tensor must be {k}x{k}x{k}, got {t.shape}")
    u = _unit_coeffs(space, u)
    if space.norm_mode == spaces.LEVEL1_ORACLE:
        return _unsupported("algebra-product", cfg, _STACKED_COLUMNS)

    failed = []
    coiso = check_coisometry(space, u=u, cfg=cfg)
    samples = coiso.samples
    margins = [coiso.margin]
    if coiso.verdict != HOLDS_WITHIN_BUDGET:
        failed.append("unit-coisometry")

    mult_worst = -np.inf
    for s in range(n_multiplier_samples):
        rng = matcore.stream(cfg.seed, _KEY_ALGEBRA_PRODUCT, s)
        _, x_coeffs = _sample_space_matrix(space, spaces.random_stack(space, 1, rng, 1))
        Tx = np.einsum("i,ijl->lj", x_coeffs.reshape(-1), t)
        worst, _, tried = _worst_pair(space, Tx, cfg, 16, _KEY_ALGEBRA_PRODUCT * 100 + s)
        samples += tried
        mult_worst = max(mult_worst, worst)
    margins.append(-mult_worst)
    if mult_worst > cfg.tolerance:
        failed.append("left-multiplier")

    unit_action = np.einsum("j,ijl->il", u, t)
    resid = matcore.op_norm_stack(spaces.realize_stack(space, (unit_action - np.eye(k))[:, None, None, :]))
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

    levels = list(range(1, cfg.max_level + 1))
    d, k = space.p, space.dim
    # the largest (sign, level, contraction) deviation of each pair, and its z, b residuals
    group_devs = np.full((n_pairs, 2, len(levels)), -np.inf)
    residuals = np.empty((n_pairs, 2))
    top = 2 * cfg.max_level * d
    row_bytes = top * 4 * top * 16  # one contraction's rows at the top level, for one sign
    pair_bytes = n_contractions * row_bytes
    # a pair larger than a chunk goes through in chunks of its contractions
    parts = _chunks(n_contractions, row_bytes) if pair_bytes > _CHUNK_BYTES else [slice(None)]
    for pairs in _chunks(n_pairs, pair_bytes):
        xy, draws = [], {m: [] for m in levels}
        for tpair in range(pairs.start, pairs.stop):
            rng = matcore.stream(cfg.seed, _KEY_CSTAR, tpair)
            xy.append(spaces.random_stack(space, 1, rng, 2))
            for _sign in range(2):
                for m in levels:
                    draws[m].append(spaces.random_stack(space, 2 * m, rng, n_contractions))
        mats, _ = _sample_space_matrix(space, np.stack(xy))
        x_mat, y_mat = mats[:, 0], mats[:, 1]
        z_mat = -x_mat @ matcore.dagger(y_mat)
        b_mat = gadgets.proof_b(x_mat, y_mat, z_mat)
        residuals[pairs] = spaces.membership_residual_stack(space, np.stack([z_mat, b_mat], axis=1))
        grids = {m: np.stack(draws[m]).reshape(-1, 2, n_contractions, 2 * m, 2 * m, k) for m in levels}
        Ms = [gadgets.build_M_pm(x_mat, y_mat, z_mat, b_mat, sign=sign) for sign in "+-"]
        for part in parts:
            ws = {m: spaces.realize_stack(space, spaces._scale_to_norms(
                      space, np.ascontiguousarray(grids[m][:, :, part]), 1.0)) for m in levels}
            for si, M in enumerate(Ms):  # one sign at a time halves a single pair's largest stack
                for li, m in enumerate(levels):
                    w = ws[m][:, si]
                    amp = matcore.scalar_amplify(M, m)[:, None]
                    rows = np.concatenate([np.broadcast_to(amp, w.shape[:-1] + amp.shape[-1:]), w], axis=-1)
                    devs = np.abs(matcore.op_norm_stack(rows) - SQRT2).max(axis=-1)
                    group_devs[pairs, si, li] = np.maximum(group_devs[pairs, si, li], devs)
    samples = group_devs.size * n_contractions
    worst, best = _first_max(group_devs.reshape(-1))
    where = None  # the (pair, sign, amplification) of the largest deviation
    if best is not None:
        tpair, si, li = np.unravel_index(best, group_devs.shape)
        where = {"pair": int(tpair), "sign": "+-"[si], "amplification": levels[li]}
    in_space_max = max(0.0, _first_max(residuals.reshape(-1))[0])

    notes = []
    if worst > cfg.tolerance:
        verdict = VIOLATED
    elif in_space_max > cfg.tolerance:
        verdict = INCONCLUSIVE
        notes.append("the canonical z, b leave the space; existence over X not certified")
    else:
        verdict = HOLDS_WITHIN_BUDGET
    # below the tolerance the arg-max is rounding noise, so only a violation names where it is
    aux = {}
    if where is not None:
        aux = dict(where, deviation=worst) if verdict == VIOLATED else {"deviation": worst}
    aux["construction_residual"] = float(in_space_max)
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
