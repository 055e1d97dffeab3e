"""Metric characterizations as decision procedures returning CheckReports.

Universally quantified criteria delegate to the violation search in
:mod:`opspace.witness`, and VIOLATED comes with a concrete witness that
reproduces the reported margin on re-evaluation.  A HOLDS_WITHIN_BUDGET
verdict is either evidence from that search or, for the five searched
criteria on embedded spaces, a proof: when the distinguished element
satisfies the ternary identity of its criterion (``SearchCriterion.proof``)
on every basis element, the criterion holds at every level and no search
runs.  Such a report carries ``proof``; a searched one does not.

The closure checks (``mult-closed``, the multipliers and
``cstar-among-systems``) draw nothing: they measure the membership residuals
of basis products (``_closure_residuals``) on stacks, in chunks of at most
``_CHUNK_BYTES`` per stack.  Their pick is the first maximum in product
order, so a report does not depend on the chunk size.  Each factor is scaled
to norm one first (``_norm_one``), so a residual is that of B_i B_j divided
by ||B_i|| ||B_j|| (and by ||w|| for a nonzero multiplier w), and a verdict
does not depend on the scale of the basis.

``mult-closed`` and the multipliers measure no row: the membership
residuals of their basis products decide the paper's 2x4 row identity
||[[0, y, 1, 0], [2, x, z, b]]|| = ||[2, x, z, b]|| over contractive x, y.
With T = [0, y, 1, 0] and R = [2, x, z, b] the row has the Gram
[[T T*, T R*], [R T*, R R*]] (||[A; B]||^2 = ||[[A A*, A B*], [B A*, B B*]]||),
where T T* = 1 + y y* and T R* = y x* + z*.  The best in-space candidate
z = -P(x y*), P the projection onto X, makes the cross block
T R* = ((1 - P)(x y*))*.  It vanishes exactly when x y* lies in X, and then
the Gram is block diagonal with ||T||^2 <= 2 < 4 <= ||R||^2, so the two
norms agree for every filler b.  The canonical filler, with
b b* = ||h|| 1 - h for h = x x* + z z*, makes R R* = (4 + ||h||) 1, and then
any nonzero cross block raises the norm.  So the identity fails exactly
when some x y* leaves X, and by bilinearity exactly when a basis product
does: B_i B_j for ``mult-closed``, and w B_j, B_i w or B_i w B_j for a left,
right or quasi multiplier w (x y* = w a*, a w* or a w b*).  Sampled fillers
would only size the failure, and the row's gap is of second order in the
residual of x y*, so at a fixed tolerance the residual is the sharper test.

``cstar-among-systems`` measures no row either.  Its normalized 2x6 rows
M+- = [[y, 0, 1, x, b, z], [x, b, z, +-y, 0, +-1]] / ||.|| have the cross
term y x* + z* +- (x y* + z), which vanishes for z = -x y*, and two equal
row Grams 1 + h + b b*, h = x x* + y y* + z z*.  The canonical filler has
b b* = ||h|| 1 - h, so M+- M+-* = 1 for every x and y, and then
||[M+- (x) I_m, w]||^2 = ||1 + w w*|| = 2 for every norm-one w at every level
m.  The identity thus holds by construction, and the check's question is
whether the canonical z and b lie in X.  By sesquilinearity z = -x y* lies
in X for every x and y exactly when every product B_i B_j* does, and then X
is a *-algebra, since it is *-closed (``make_space`` checks that the
involution is the ambient adjoint).  In a *-algebra X, b lies in X exactly
when the ambient 1 does: if 1 lies in X, b is a polynomial in ||h|| 1 - h;
if not, b^2 = ||h|| 1 - h in X would put 1 in X, since h != 0 for a
norm-one x.  So the largest residual of the B_i B_j* and of 1 decides the
check, unless X is a C*-algebra whose unit is a projection v below 1
(span{E11} with unit E11, say).  When v passes the corner-unit identity
v = v*, v B = B = B v that ``_ternary_proof`` checks, X lies in the corner
v M v, and the rows built with v in place of 1,
M+- = [[y, 0, v, x, b, z], [x, b, z, +-y, 0, +-v]] with b = (||h|| v - h)^1/2,
have the same vanishing cross term and M+- M+-* = v (+) v.  A norm-one w
over X has w = ((v (+) v) (x) I_m) w, so
||[M+- (x) I_m, w]||^2 = ||(v (+) v) (x) I_m + w w*|| = 1 + ||w||^2 = 2 again.
In a *-algebra X with unit v, b is a polynomial in ||h|| v - h and lies in
X.  So when 1 leaves X and v passes the identity, the residual of v stands
in for that of 1.

``adjoint`` measures no t-grid: the supremum over real t of
||[[t, x], [-z, t]]|| - sqrt(1 + t^2) is exactly ||x - z*|| / 2 for
contractions x and z.  Write the block as t 1 + N with N = [[0, x], [-z, 0]]
and D = x - z*.  Then Re N = [[0, D], [D*, 0]] / 2 has the eigenvalues
+-s_i(D) / 2, and ||Im N|| <= ||N|| = max(||x||, ||z||) <= 1.  The normal
matrix t 1 + i Im N has norm at most sqrt(t^2 + 1), so
||t 1 + N|| <= sqrt(1 + t^2) + ||D|| / 2 at every t.  For t > 0,
||t 1 + N|| >= t + lambda_max(Re N) = t + ||D|| / 2, and
sqrt(1 + t^2) <= t + 1 / (2t), so the gap is at least ||D|| / 2 - 1 / (2t),
which tends to ||D|| / 2 and exceeds a tolerance below ||D|| / 2 from
t = 1 / (||D|| / 2 - tolerance) on.  So the gap is at most 0 at every t
exactly when z = x*.

``positive`` samples no circle either.  For a contraction x, ||1 - z x|| <= 1
on the disk |1 - z| <= 1 exactly when x >= 0, and the deviation
max(||1 - 2x|| - 1, ||x - x*|| / 2) decides that exactly.  If x >= 0, its
spectrum lies in [0, 1], so 1 - 2x is Hermitian with spectrum in [-1, 1]
and both terms are at most 0.  If not, either x != x* and the Hermitian
residual ||x - x*|| / 2 is positive, or x = x* has lambda_min(x) = -delta < 0
and ||1 - 2x|| >= 1 + 2 delta.  For any x,
||1 - 2x|| >= lambda_max(Re(1 - 2x)) = 1 - 2 lambda_min(Re x), so the gap
||1 - 2x|| - 1 is at least twice the negative part of Re x; and z = 2 lies
on the circle, so a gap past the tolerance is a point where the disk's
bound fails.  The circle's own gap is only of second order in x - x* (for
[[.5, 1e-3], [0, .5]] it is about 5e-7 against a residual of 5e-4), so at a
fixed tolerance the residual is the sharper test, as for the closure checks.

Every check takes a ``witness.SearchConfig``, which is valid by construction,
so no check validates its config again.  Every check reports through
``_report``, the one place the verdict rule lives: VIOLATED when the check's
deviation is past ``cfg.tolerance`` (INCONCLUSIVE for
``cstar-among-systems``), HOLDS_WITHIN_BUDGET otherwise, the margin
0.0 - deviation, the levels checked and the config echo.  A check passes a
verdict of its own only for an unsupported level, no search evidence, or the
failed sub-checks of ``algebra-product``.

Each of the 14 criteria is one row of ``CRITERIA``, the one place a
criterion name maps to a check and to the inputs it takes: a check that runs
on a space takes its inputs from the space (the distinguished element, the
ambient product, or a basis element as the multiplier w), and ``adjoint`` and
``left-multiplier-map`` take theirs from the caller.  ``run_check`` runs a
row by name for ``opspace check``, the corpus and the payload dump.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import gadgets, matcore, spaces, witness
from .errors import InvalidInputError, ShapeError

__all__ = [
    "HOLDS_WITHIN_BUDGET",
    "VIOLATED",
    "INCONCLUSIVE",
    "UNSUPPORTED_LEVEL",
    "CheckReport",
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
    "Criterion",
    "CRITERIA",
    "SPACE_CRITERIA",
    "PRODUCT_TOL",
    "multiplication_tensor",
    "run_check",
]

HOLDS_WITHIN_BUDGET = "HOLDS_WITHIN_BUDGET"
VIOLATED = "VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"
UNSUPPORTED_LEVEL = "UNSUPPORTED_LEVEL"

#: Ball radii swept by the small-norm criteria, largest first: violations of
#: the unitality inequalities concentrate at small norms, but the norm-one
#: witnesses must be reachable too.
RADIUS_SWEEP = (1.0, 0.5, 0.25, 0.1)

LEVEL1_NOTE = "level-1 necessary condition"
_STACKED_COLUMNS = "stacked columns need rectangular blocks over X"

# stream-key tags so every criterion draws from its own RNG substream (the
# searched criteria carry theirs, 1-5, in SEARCH_CRITERIA)
_KEY_LEFT_MULT_MAP = 10
_KEY_ALGEBRA_PRODUCT = 11

#: Contractive x whose maps y -> m(x, y) ``check_algebra_product`` tests, and pairs (a, b) per level for each.
ALGEBRA_MULTIPLIER_SAMPLES = 8
ALGEBRA_MULTIPLIER_PAIRS = 16
#: Pairs (a, b) per level that ``check_left_multiplier_map`` draws.
LEFT_MULTIPLIER_PAIRS = 64


# ---------------------------------------------------------------------------
# reports


def _encode_complex(z) -> list:
    """[re, im] as floats, each zero written 0.0 (adding 0.0 clears the sign of -0.0)."""
    return [float(np.real(z)) + 0.0, float(np.imag(z)) + 0.0]


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
        """Every field in declaration order, ``proof`` only when set; the values are the report's own objects."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.proof is None:
            del d["proof"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        """The report ``to_dict`` wrote, sharing its values; a field with a default may be missing."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    def witness_element(self) -> spaces.LevelElement | None:
        if self.witness is None or self.witness.get("coeffs") is None:
            return None
        return spaces.LevelElement(int(self.witness["level"]), _decode_array(self.witness["coeffs"]))


def _witness_dict(elem: spaces.LevelElement | None, aux: dict) -> dict:
    d = {"level": None, "coeffs": None, "aux": aux}
    if elem is not None:
        d["level"] = elem.level
        d["coeffs"] = _encode_array(elem.coeffs)
    return d


#: Why a ``cstar-among-systems`` deviation past the tolerance is INCONCLUSIVE, not VIOLATED.
_CSTAR_UNCERTIFIED = "the canonical z, b leave the space; existence over X not certified"


def _report(criterion: str, cfg: witness.SearchConfig, deviation: float = 0.0, levels: int = 0, samples: int = 0,
            aux: dict | None = None, found: Callable | None = None, verdict: str | None = None,
            notes=(), **fields) -> CheckReport:
    """The one verdict rule: every check's CheckReport is built here.

    Unless ``verdict`` is given (an unsupported level, no search evidence, or
    the failed sub-checks of ``algebra-product``), the verdict is VIOLATED when
    ``deviation`` is past ``cfg.tolerance`` and HOLDS_WITHIN_BUDGET otherwise;
    past the tolerance, ``cstar-among-systems`` is INCONCLUSIVE instead, with
    a note, since its rows built outside X certify nothing over X.  The margin
    is 0.0 - deviation (not -deviation: a deviation of 0.0 gives margin 0.0,
    never -0.0), levels 1 to ``levels`` were checked (none by default), and
    ``cfg`` is echoed.  The witness carries ``aux`` (no witness when it is
    None); on a violation, ``found()`` gives the witness element and the aux
    entries that follow.  ``fields`` are the report's ``trace`` and ``proof``.
    """
    notes = list(notes)
    if verdict is None:
        verdict = VIOLATED if deviation > cfg.tolerance else HOLDS_WITHIN_BUDGET
        if verdict == VIOLATED and criterion == "cstar-among-systems":
            verdict = INCONCLUSIVE
            notes.append(_CSTAR_UNCERTIFIED)
    shown = None if aux is None else _witness_dict(None, aux)
    if verdict == VIOLATED and found is not None:
        elem, extra = found()
        shown = _witness_dict(elem, {**(aux or {}), **extra})
    return CheckReport(criterion, verdict, 0.0 - deviation, shown, list(range(1, levels + 1)), samples,
                       cfg.to_dict(), notes, **fields)


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


#: Bytes of the largest stack of products a closure check or
#: ``check_algebra_product`` forms at once.  The products pass through in
#: chunks of as many as fit (at least one), so the working set stays bounded
#: whatever the basis size or the ambient size.
_CHUNK_BYTES = 256 * 1024


def _chunks(n_items: int, item_bytes: int) -> list:
    """Slices of range(n_items) holding as many items as fit _CHUNK_BYTES at ``item_bytes`` each."""
    size = max(1, _CHUNK_BYTES // item_bytes)
    return [slice(s, min(s + size, n_items)) for s in range(0, n_items, size)]


def _require_contraction(who: str, norm: float):
    if norm > 1.0 + 1e-9:
        raise InvalidInputError(f"{who} must be a contraction, got norm {norm:.12f}")


# ---------------------------------------------------------------------------
# objectives (each receives coefficient-grid stacks; see witness.maximize_violation)


def _scaled(s: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Per-element scalars (...) times coefficient gradients (..., n, n, k)."""
    return s[..., None, None, None] * grads


def _measure_both(kernel, space, X, G):
    """``(kernel(space, X), kernel(space, G))`` for the blocks of x and of its gadget.

    When their blocks have the same shape they are measured in one call, and
    each result (an array, or a tuple of arrays) is split back along its
    leading axes.
    """
    shape = X.shape[-3:]
    if G.shape[-3:] != shape:
        return kernel(space, X), kernel(space, G)
    out = kernel(space, np.concatenate([X.reshape((-1,) + shape), G.reshape((-1,) + shape)]))
    cut = X.size // math.prod(shape)

    def split(a):
        return a[:cut].reshape(X.shape[:-3] + a.shape[1:]), a[cut:].reshape(G.shape[:-3] + a.shape[1:])

    return tuple(zip(*map(split, out))) if isinstance(out, tuple) else split(out)


def _sqrt1(nx):
    return np.sqrt(1.0 + nx)


def _sqrt1_slope(nx):
    return 0.5 / np.sqrt(1.0 + nx)


def _hypot1(nx):
    return np.sqrt(1.0 + nx**2)


def _hypot1_slope(nx):
    return nx / np.sqrt(1.0 + nx**2)


# Caps: the largest value a row's objective takes on the ball of radius r (on
# the sphere, for the sphere rows), given the profile (nu, delta) of its
# distinguished element from ``_unit_profile``.  The unitary caps follow from
# the triangle inequality alone, so they hold for every norm, the trace-norm
# oracle included; the sphere cap also uses ||[a  b]||^2 = ||a a* + b b*||,
# and the skew cap the block algebra of r_x, which hold in every block of an
# embedded space, the only spaces those rows search.


def _unit_profile(space: spaces.SpaceRep, u: np.ndarray) -> tuple[float, float]:
    """(nu, delta): the norm of u, and the largest distance of a block of u from a real scalar.

    For each block v_j of u at level 1 (``realize_fibers_stack``, zero
    padding included), with H_j = (v_j + v_j*) / 2 and A_j = (v_j - v_j*) / 2,
    delta = max_j [(lambda_max(H_j) - lambda_min(H_j)) / 2 + ||A_j||]: the
    first term is ||H_j - c 1|| at the best real c.  It is 0 for a
    selfadjoint unit of a commutative space (every block a real 1 x 1), and
    depends on the realized blocks alone, so no unitary conjugation of the
    space moves it.  No block of a rectangular space is a scalar: there
    delta is inf.
    """
    stack = spaces.realize_fibers_stack(space, u.reshape(1, 1, 1, -1))  # a stack of one, as ``spaces.norm`` has it
    nu = float(spaces.block_norms(space, stack)[0])
    V = stack[0]
    if V.shape[-2] != V.shape[-1]:
        return nu, math.inf
    Vh = matcore.dagger(V)
    spectra = np.linalg.eigvalsh(0.5 * (V + Vh))  # ascending, one row per block
    spread = 0.5 * (spectra[:, -1] - spectra[:, 0]) + matcore.op_norm_stack(0.5 * (V - Vh))
    return nu, float(spread.max())


def _unitary_cap(r, nu, delta):
    """sqrt(1 + ||x||) - ||gadget|| <= sqrt(1 + min(r, nu)) - nu: the gadget's norm is at least max(nu, ||x||).

    The four rotations u_n + i^k x average to u_n, and i^(-k) (u_n + i^k x)
    to x; the doubling gadget has v_n and x as corners.  With t = ||x||,
    sqrt(1 + t) - max(nu, t) rises up to t = nu and falls after it.
    """
    return math.sqrt(1.0 + min(r, nu)) - nu


def _skew_cap(r, nu, delta):
    """| ||r_x|| - sqrt(1 + ||x||^2) | <= max(sqrt(r^2 + 2 d r + nu^2) - sqrt(1 + r^2), sqrt(1 + min(r, nu)^2) - nu).

    Write r_x = D + K with D = I_2 (x) v_n and K = [[0, x], [-x*, 0]], so
    K* = -K, ||K|| = t = ||x||, and split v = H + A into its Hermitian and
    skew parts.  Then r_x* r_x = D* D + K* K + [H, K] - (A K + K A), and
    [H, K] = [H - c 1, K] for every real c, so in every block at every level
    ||r_x||^2 <= nu^2 + t^2 + 2 delta t (delta from ``_unit_profile``), and
    by the triangle inequality also with min(delta, nu) in place of delta.
    The corners give ||r_x|| >= max(nu, t).  The lower side
    sqrt(1 + t^2) - max(nu, t) rises up to t = nu and falls after it.  The
    upper side, with delta raised to d = max(min(delta, nu),
    sqrt(max(nu^2 - 1, 0))), is nondecreasing in t (its slope condition is
    t^2 (1 + d^2 - nu^2) + 2 d t + d^2 >= 0), so it peaks at t = r.
    """
    d = max(min(delta, nu), math.sqrt(max(nu * nu - 1.0, 0.0)))
    return max(math.sqrt(r * r + 2.0 * d * r + nu * nu) - math.sqrt(1.0 + r * r),
               math.sqrt(1.0 + min(r, nu) ** 2) - nu)


def _sphere_cap(r, nu, delta):
    """| ||[u_n  x]|| - sqrt(1 + r^2) | <= max(sqrt(1 + r^2) - max(nu, r), sqrt(nu^2 + r^2) - sqrt(1 + r^2)).

    For ||x|| = r, ||[u_n  x]|| and ||[u_n ; x]|| lie in [max(nu, r),
    sqrt(nu^2 + r^2)]: u_n and x are corners, and the square of the row's
    norm is ||u_n u_n* + x x*|| (of the column's, ||u_n* u_n + x* x||).
    """
    target = math.sqrt(1.0 + r * r)
    return max(target - max(nu, r), math.sqrt(nu * nu + r * r) - target)


@dataclass(frozen=True)
class SearchCriterion:
    """One searched criterion: ||gadget(u_n, x)|| against target(||x||) for every x in M_n(X).

    The gadget is assembled by ``gadgets.<gadget>_stack`` and its x-part has
    the adjoint ``gadgets.<gadget>_stack_adjoint``; both are looked up when an
    objective is built.  A signed criterion is the inequality
    ||gadget|| >= target, searched as target - ||gadget||; otherwise it is
    the identity ||gadget|| = target, searched as the absolute deviation.
    ``check`` decides the row, and its ``CRITERIA`` row runs it by name.
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
    cap: Callable | None = None  # (radius, *_unit_profile) -> the objective's bound on that ball or sphere

    def objective(self, space, u, level):
        """(objective, gradient) at one level.

        The objective maps coefficient stacks (..., n, n, k) to values (...),
        the gradient maps them to the ascent direction (..., n, n, k) by the
        chain rule through the norms' cotangents, with real and imaginary
        parts the partial derivatives along the real and imaginary coefficient
        parts (a subgradient at kinks).  Where the gadget's blocks have the
        shape of x's (the four rotations), x and the gadget share one kernel
        call, and the gradient pulls both cotangents back in one call; a
        row's norm and cotangent are the same whichever stack holds it, so
        this changes no bit.
        """
        vgrid = np.zeros((level, level, space.dim), dtype=np.complex128)
        vgrid[range(level), range(level)] = u
        unit = spaces.realize_fibers_stack(space, vgrid)  # u_n in the blocks x is realized in
        assemble = getattr(gadgets, f"{self.gadget}_stack")
        adjoint = getattr(gadgets, f"{self.gadget}_stack_adjoint")

        def f(coeffs):
            X = spaces.realize_fibers_stack(space, coeffs)
            nx, ng = _measure_both(spaces.block_norms, space, X, assemble(unit, X))
            if self.rotations:
                ng = ng.max(axis=0)
            if self.signed:
                return self.target(nx) - ng
            return np.abs(ng - self.target(nx))

        def grad(coeffs):
            X = spaces.realize_fibers_stack(space, coeffs)
            (nx, Wx), (ng, Wg) = _measure_both(spaces.block_norm_cotangents, space, X, assemble(unit, X))
            Wg = adjoint(ng, Wg) if self.rotations else adjoint(Wg)  # on x's blocks, as Wx
            gx, tx = spaces.realize_fibers_adjoint_stack(space, np.stack([Wg, Wx]))
            tx = _scaled(self.slope(nx), tx)
            if self.signed:
                return tx - gx
            return _scaled(np.sign(ng - self.target(nx)), gx - tx)

        return f, grad

    def value_at(self, space, u, elem: spaces.LevelElement) -> float:
        """The searched objective at one element, evaluated from scratch."""
        u = _unit_coeffs(space, u, self.who)
        return float(self.objective(space, u, elem.level)[0](elem.coeffs[None])[0])

    def check(self, space, u=None, cfg: witness.SearchConfig | None = None) -> CheckReport:
        """Check this row for ``u`` (default: the space's distinguished element).

        The preconditions come first, in order, then the ternary proof, else
        the search.
        """
        cfg = cfg or witness.SearchConfig()
        if self.involution and space.involution is None:
            raise InvalidInputError(f"{self.name} check requires an involution")
        u = _unit_coeffs(space, u, self.who)
        if self.involution and np.abs(space.involution @ np.conj(u) - u).max() > 1e-9:
            raise InvalidInputError(f"{self.who} must be selfadjoint ({self.who} = {self.who}*)")
        _require_contraction(self.who, spaces.norm(space, spaces.LevelElement(1, u.reshape(1, 1, -1))))
        if self.unsupported and space.norm_mode == spaces.LEVEL1_ORACLE:
            return _report(self.name, cfg, verdict=UNSUPPORTED_LEVEL, notes=[self.unsupported])
        cfg.guard_ambient(space)
        proof = _ternary_proof(self.proof, space, u)
        if proof is None:
            return self.search(space, u, cfg)
        return _report(self.name, cfg, levels=cfg.max_level, proof=proof,
                       notes=[f"proved by the ternary identity {proof['identity']}; no search run"])

    def search(self, space, u, cfg: witness.SearchConfig) -> CheckReport:
        """The violation search over this row's levels and radii, with no proof tried.

        Levels (level 1 alone on a level-1-oracle space) are searched in
        increasing order and stop early once a level has produced a
        violation: the verdict cannot change, only the margin could.  All
        radius cells of a level are searched by one lockstep call.  The radii
        come largest first, since every smaller ball is contained in the
        largest one; that order fixes each cell's stream key and trace
        position, and a later cell replaces the best only when strictly
        better.  A row's caps bound the objective on each radius's ball (or
        sphere) at every level.  The best witness is then polished by
        ``witness.refine_witness`` in the ball (or sphere) of the radius that
        won, under that radius's cap: a witness already at its cap takes no
        polish step, since none could be accepted, so its report differs
        from a full polish in ``samples`` alone.
        """
        levels, notes = list(range(1, cfg.max_level + 1)), []
        if space.norm_mode == spaces.LEVEL1_ORACLE:
            levels, notes = [1], [LEVEL1_NOTE]
        radii, mode = ((1.0,), witness.SPHERE) if self.sphere else (RADIUS_SWEEP, witness.BALL)
        caps = None
        if self.cap is not None:
            profile = _unit_profile(space, u)
            caps = [self.cap(r, *profile) for r in radii]
        n_cells = len(levels) * len(radii)
        per_cell = max(1, cfg.restarts // n_cells) if cfg.restarts > 0 else 0

        best_value = -np.inf
        best_elem = None
        best_radius = best_cap = best_pair = None
        evaluations = 0
        stopped = 0
        capped = 0
        trace = []
        for li, n in enumerate(levels):  # after the loop, n is the last level searched
            objective, gradient = self.objective(space, u, n)
            results = witness.maximize_violation(
                objective, space, n, cfg, cells=[(r, (self.key, li, ri)) for ri, r in enumerate(radii)],
                mode=mode, restarts=per_cell, gradient=gradient, caps=caps,
            )
            for ri, (r, res) in enumerate(zip(radii, results)):
                evaluations += res.evaluations
                stopped += res.stopped
                capped += res.capped
                trace.append({"level": n, "radius": r, "restarts": per_cell,
                              "best": res.best_value if np.isfinite(res.best_value) else None,
                              "evaluations": res.evaluations,
                              "restart_bests": [v if np.isfinite(v) else None
                                                for v in res.restart_bests]})
                if res.best_value > best_value:
                    best_value = res.best_value
                    best_elem = res.best_point
                    best_radius = r
                    best_cap = None if caps is None else caps[ri]
                    best_pair = (objective, gradient)
            if best_value > cfg.tolerance:
                break

        if best_elem is not None:
            objective, gradient = best_pair
            polished = witness.refine_witness(
                objective, space, best_elem, best_radius, mode=mode, gradient=gradient, cap=best_cap
            )
            evaluations += polished.evaluations
            if polished.best_value > best_value:
                best_value = polished.best_value
                best_elem = polished.best_point

        started = sum(len(cell["restart_bests"]) for cell in trace)
        dead = sum(v is None for cell in trace for v in cell["restart_bests"])
        if dead:
            notes.append(f"{dead} of {started} restarts died on non-finite objective values")
        if stopped:
            notes.append(f"{stopped} of {started} restarts stopped early once their cell held a violation")
        if capped:
            notes.append(f"{capped} of {started} restarts stopped once their cell could not beat the best found")
        verdict = None
        if best_elem is None:
            verdict, best_value = INCONCLUSIVE, 0.0
            if not dead:
                notes.append("no search evidence (zero restarts)")
        return _report(self.name, cfg, best_value, n, evaluations, verdict=verdict, notes=notes, trace=trace,
                       found=lambda: (best_elem, {"violation": best_value,
                                                  "witness_norm": float(spaces.norm(space, best_elem))}))


SEARCH_CRITERIA = {c.name: c for c in (
    SearchCriterion("unitary-four-rotation", 1, "u", "four_rotation", _sqrt1, _sqrt1_slope,
                    signed=True, rotations=True, proof="both", cap=_unitary_cap,
                    shows="max_k ||u_n + i^k x||", target_text="sqrt(1 + ||x||)"),
    SearchCriterion("unitary-t-gadget", 2, "v", "t", _sqrt1, _sqrt1_slope, signed=True,
                    unsupported="the doubling gadget needs 2x2 blocks over X", proof="both",
                    cap=_unitary_cap, shows="||[[v_n, x], [0, v_n]]||", target_text="sqrt(1 + ||x||)"),
    SearchCriterion("coisometry", 3, "u", "row", _hypot1, _hypot1_slope, signed=False,
                    sphere=True, unsupported="row/column gadgets need rectangular blocks over X",
                    proof="left", cap=_sphere_cap, shows="||[u_n  x]||", target_text="sqrt(1 + ||x||^2)"),
    SearchCriterion("isometry", 4, "u", "column", _hypot1, _hypot1_slope, signed=False,
                    sphere=True, unsupported="row/column gadgets need rectangular blocks over X",
                    proof="right", cap=_sphere_cap, shows="||[u_n ; x]||", target_text="sqrt(1 + ||x||^2)"),
    SearchCriterion("operator-system", 5, "v", "r", _hypot1, _hypot1_slope, signed=False,
                    involution=True, unsupported="the skew gadget needs 2x2 blocks over X",
                    proof="corner-unit", cap=_skew_cap, shows="||[[v_n, x], [-x*, v_n]]||",
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


# The re-evaluators under their public names: each is its row's ``value_at``.
four_rotation_violation_at = SEARCH_CRITERIA["unitary-four-rotation"].value_at
t_gadget_violation_at = SEARCH_CRITERIA["unitary-t-gadget"].value_at
row_deviation_at = SEARCH_CRITERIA["coisometry"].value_at
column_deviation_at = SEARCH_CRITERIA["isometry"].value_at
r_gadget_deviation_at = SEARCH_CRITERIA["operator-system"].value_at


# ---------------------------------------------------------------------------
# positivity and adjoints: closed forms, no search


def _coerce_square(space, x, who="x"):
    if isinstance(x, spaces.LevelElement):
        m = spaces.realize(space, x)
    else:
        m = matcore.as_cmat(x)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{who} must be square (ambient contains 1)")
    return m


def check_positive(space: spaces.SpaceRep, x=None, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Is x (default: the distinguished element) in the positive cone?  Tests ||1 - z x|| <= 1 on |1 - z| <= 1.

    For a contraction x the deviation max(||1 - 2x|| - 1, ||x - x*|| / 2) is
    at most 0 exactly when x >= 0 (module docstring), so that is measured
    once, and no circle is sampled.  z = 2 lies on the circle |1 - z| = 1,
    so a gap ||1 - 2x|| - 1 past the tolerance names it as the circle point
    where the norm exceeds 1; a violation by the Hermitian residual alone
    names none.
    """
    cfg = cfg or witness.SearchConfig()
    if x is None and space.unit is None:
        raise InvalidInputError("the positivity check tests the space's distinguished element; none is set")
    m = _coerce_square(space, spaces.unit_element(space) if x is None else x)
    _require_contraction("x", matcore.op_norm(m))
    gap = matcore.op_norm(np.eye(m.shape[0]) - 2.0 * m) - 1.0
    residual = 0.5 * matcore.op_norm(m - matcore.dagger(m))
    aux = {"z": [2.0, 0.0]} if gap > cfg.tolerance else {}
    aux.update(gap=gap, hermitian_residual=residual)
    return _report("positive", cfg, max(gap, residual), 1, 1, aux)


def check_adjoint(x, z, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Is z = x*?  Tests ||[[t, x], [-z, t]]|| <= sqrt(1 + t^2) for every real t.

    For contractions x and z the supremum over t of the gap is exactly
    ||x - z*|| / 2, approached as |t| grows (module docstring), so that is
    the deviation, measured once.  A violation names t = 1 / (deviation -
    tolerance), where the gap already exceeds (deviation + tolerance) / 2.
    """
    cfg = cfg or witness.SearchConfig()
    x = matcore.as_cmat(x)
    z = matcore.as_cmat(z)
    if x.shape != z.shape or x.shape[0] != x.shape[1]:
        raise ShapeError("x and z must be square of equal size")
    for who, m in (("x", x), ("z", z)):
        _require_contraction(who, matcore.op_norm(m))
    deviation = 0.5 * matcore.op_norm(x - matcore.dagger(z))
    # the supremum is attained at no finite t, so only a violation names one, and one past the tolerance
    return _report("adjoint", cfg, deviation, 1, 1, {"deviation": deviation},
                   lambda: (None, {"t": 1.0 / (deviation - cfg.tolerance)}))


# ---------------------------------------------------------------------------
# multiplicative structure


def _first_max(values) -> tuple[float, int | None]:
    """What a strict ``>`` scan from -inf picks in a flat array: (value, index of its first occurrence).

    NaN never wins; (-inf, None) when nothing does.
    """
    v = np.where(np.isnan(values), -np.inf, values)
    if not (v > -np.inf).any():
        return -np.inf, None
    i = int(np.argmax(v))
    return float(v[i]), i


def _norm_one(ms) -> np.ndarray:
    """Matrices (..., p, q) divided by their operator norms; a zero matrix is left as it is."""
    norms = matcore.op_norm_stack(ms)
    return ms / np.where(norms > 0, norms, 1.0)[..., None, None]


def _pair_values(space, n_left: int, n_right: int, measure) -> np.ndarray:
    """``measure(i, j)`` on index arrays of the pairs (i, j) of range(n_left) x range(n_right), flattened.

    The pairs pass in chunks (``_chunks``) of as many as fit one ambient
    product each, so the working set stays bounded whatever the basis size.
    """
    values = np.empty(n_left * n_right)
    for part in _chunks(values.size, 16 * space.p * space.q):  # one product
        values[part] = measure(*np.divmod(np.arange(part.start, part.stop), n_right))
    return values


def _closure_residuals(space, left, right) -> tuple[float, list, int]:
    """Membership residuals of the products ``left[i] @ right[j]``: (largest, its index, products measured).

    The products run over every index i of the stack ``left`` (..., p, r)
    and j of the stack ``right`` (..., r, q) (a single matrix is a stack of
    no index); they are formed and measured in chunks over the flattened
    (i, j) index, so the working set stays bounded whatever the basis size.
    The index is that of the first largest residual.
    """
    lefts, rights = left.reshape(-1, *left.shape[-2:]), right.reshape(-1, *right.shape[-2:])
    residuals = _pair_values(space, len(lefts), len(rights),
                             lambda i, j: spaces.membership_residual_stack(space, lefts[i] @ rights[j]))
    largest, flat = _first_max(residuals)
    index = [int(v) for v in np.unravel_index(flat, left.shape[:-2] + right.shape[:-2])]
    return largest, index, residuals.size


def check_mult_closed(space: spaces.SpaceRep, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Is the subspace closed under ambient multiplication?

    Decided by the exact membership residuals of the products B_i B_j of the
    norm-one basis, which is the sign of the paper's 2x4 row identity
    (module docstring).  A violation names the worst pair: x = B_i as the
    witness element, y = B_j* in ``aux``, so that x y* is the product that
    leaves X.
    """
    cfg = cfg or witness.SearchConfig()
    if space.p != space.q:
        raise ShapeError("multiplication closure needs a square ambient")
    B = _norm_one(space.basis)
    alg_max, (i, j), samples = _closure_residuals(space, B, B)
    return _report("mult-closed", cfg, alg_max, 1, samples, {"algebraic_max": alg_max}, lambda: (
        spaces.LevelElement(1, np.eye(space.dim, dtype=np.complex128)[i].reshape(1, 1, -1)),
        {"x_basis": i, "y_basis": j, "residual": alg_max, "y": _encode_array(matcore.dagger(space.basis[j]))}))


def check_multiplier(space: spaces.SpaceRep, w, side: str, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Does w act as a left/right/quasi multiplier of the subspace (wA, Aw, AwA inside A)?

    Decided by the exact membership residuals of w B_j, B_i w or B_i w B_j
    over the norm-one basis and w scaled to norm one (unless it is 0), as
    ``check_mult_closed`` is (module docstring).
    """
    cfg = cfg or witness.SearchConfig()
    w = matcore.as_cmat(w)
    p, q = space.p, space.q
    shapes = {"left": (p, p), "right": (q, q), "quasi": (q, p)}
    if side not in shapes:
        raise InvalidInputError(f"side must be one of {sorted(shapes)}, got {side!r}")
    if w.shape != shapes[side]:
        raise ShapeError(f"{side} multiplier must be {shapes[side]}, got {w.shape}")

    B, w = _norm_one(space.basis), _norm_one(w)
    if side == "left":
        factors = (w, B)
    elif side == "right":
        factors = (B, w)
    else:
        factors = (B @ w, B)
    alg_max, alg_index, samples = _closure_residuals(space, *factors)
    return _report(f"multiplier-{side}", cfg, alg_max, 1, samples, {"algebraic_max": alg_max, "side": side},
                   lambda: (None, {"basis_index": alg_index, "residual": alg_max}))


def _stacked_pair_deviations(space, T, a_coeffs, b_coeffs):
    """||[T(a); b]|| - ||[a; b]|| over stacks of coefficient grids.

    Each column [a; b] is the grid of a and the grid of b stacked along the
    rows, an element of M_{2n,n}(X), measured through the space's blocks.
    """
    Ta = np.einsum("lm,...ijm->...ijl", T, a_coeffs)
    lhs = spaces.norm_stack(space, np.concatenate([Ta, b_coeffs], axis=-3))
    rhs = spaces.norm_stack(space, np.concatenate([a_coeffs, b_coeffs], axis=-3))
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
    ||[T(a); b]|| <= ||[a; b]||.  Each level draws ``LEFT_MULTIPLIER_PAIRS``
    pairs plus the pairs (a, a).  A T with a non-finite entry is refused before any draw.
    """
    cfg = cfg or witness.SearchConfig()
    cfg.guard_ambient(space)
    T = np.asarray(T, dtype=np.complex128)
    k = space.dim
    if T.shape != (k, k):
        raise ShapeError(f"T must be a {k}x{k} coefficient matrix")
    if not np.all(np.isfinite(T)):
        raise InvalidInputError("T has non-finite entries")
    if space.norm_mode == spaces.LEVEL1_ORACLE:
        return _report("left-multiplier-map", cfg, verdict=UNSUPPORTED_LEVEL, notes=[_STACKED_COLUMNS])
    worst, at, samples = _worst_pair(space, T, cfg, LEFT_MULTIPLIER_PAIRS, _KEY_LEFT_MULT_MAP)
    return _report("left-multiplier-map", cfg, worst, cfg.max_level, samples,
                   found=lambda: (spaces.LevelElement(at[0], at[1]), {"deviation": worst, "b": _encode_array(at[2])}))


def _product_residual(space, t) -> float:
    """Largest ||sum_l t_ijl B_l - B_i B_j|| / (||B_i|| ||B_j||): how far m is from the ambient product.

    inf on a rectangular ambient, which has no product.  The pairs (i, j) pass
    through ``_pair_values``, as in ``_closure_residuals``.
    """
    if space.p != space.q:
        return math.inf
    B, norms = space.basis, matcore.op_norm_stack(space.basis)
    return float(_pair_values(space, space.dim, space.dim, lambda i, j: matcore.op_norm_stack(
        np.tensordot(t[i, j], B, axes=1) - B[i] @ B[j]) / (norms[i] * norms[j])).max())


#: The largest membership residual of a basis product B_i B_j, divided by ||B_i|| ||B_j||,
#: that multiplication_tensor accepts.
PRODUCT_TOL = 1e-9


def multiplication_tensor(space: spaces.SpaceRep) -> np.ndarray:
    """Structure tensor of the ambient product restricted to a multiplication-closed space.

    The space is refused when ``check_mult_closed`` finds a product of its
    norm-one basis that leaves it by more than ``PRODUCT_TOL`` (its margin is
    minus the largest such residual), so whether a space is refused does not
    depend on the scale of its basis.
    """
    if check_mult_closed(space).margin < -PRODUCT_TOL:
        raise InvalidInputError("space is not closed under multiplication")
    return np.array([[spaces.coefficients_of(space, bi @ bj) for bj in space.basis] for bi in space.basis])


def check_algebra_product(space: spaces.SpaceRep, u=None, tensor=None,
                          cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Does the bilinear map m (given by a structure tensor) make (X, u) a unital operator algebra?

    ``u`` defaults to the distinguished element and ``tensor`` to the ambient
    product (``multiplication_tensor``, which refuses a space it does not
    keep).  Three sub-checks: (i) u passes the coisometry row test; (ii)
    y -> m(x, y) is a contractive left multiplier for sampled contractive x;
    (iii) m(x, u) = x exactly on the basis.  The report names any failing
    sub-check.  A level-1-oracle space gets UNSUPPORTED_LEVEL, as for the
    left-multiplier map.  A tensor with a non-finite entry is refused.

    Sub-check (ii) samples no pairs when m is the ambient product, to
    ``PROOF_TOL`` on every basis pair (``_product_residual``, whose products
    ``samples`` counts): then [m(x, a); b] = (x (+) 1)[a; b] at every level, so
    every contractive x passes.  A note and ``aux["product_residual"]`` say so.
    """
    cfg = cfg or witness.SearchConfig()
    k = space.dim
    t = multiplication_tensor(space) if tensor is None else np.asarray(tensor, dtype=np.complex128)
    if t.shape != (k, k, k):
        raise ShapeError(f"structure tensor must be {k}x{k}x{k}, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise InvalidInputError("structure tensor has non-finite entries")
    u = _unit_coeffs(space, u)
    if space.norm_mode == spaces.LEVEL1_ORACLE:
        return _report("algebra-product", cfg, verdict=UNSUPPORTED_LEVEL, notes=[_STACKED_COLUMNS])

    failed, notes = [], []
    coiso = SEARCH_CRITERIA["coisometry"].check(space, u, cfg)
    samples = coiso.samples
    deviations = [-coiso.margin]
    if coiso.verdict != HOLDS_WITHIN_BUDGET:
        failed.append("unit-coisometry")
    aux = {"unit_coisometry_verdict": coiso.verdict}

    residual = _product_residual(space, t)
    if residual <= PROOF_TOL:
        samples += k * k
        aux["product_residual"] = residual
        notes.append("left-multiplier sub-check proved: m is the ambient product, "
                     "[m(x, a); b] = (x (+) 1)[a; b]; no pairs sampled")
    else:
        mult_worst = -np.inf
        for s in range(ALGEBRA_MULTIPLIER_SAMPLES):
            rng = matcore.stream(cfg.seed, _KEY_ALGEBRA_PRODUCT, s)
            x_coeffs = spaces.scale_to_norms(space, spaces.random_stack(space, 1, rng, 1), 1.0)
            Tx = np.einsum("i,ijl->lj", x_coeffs.reshape(-1), t)
            worst, _, tried = _worst_pair(space, Tx, cfg, ALGEBRA_MULTIPLIER_PAIRS, _KEY_ALGEBRA_PRODUCT * 100 + s)
            samples += tried
            mult_worst = max(mult_worst, worst)
        deviations.append(mult_worst)
        aux["multiplier_max_deviation"] = float(mult_worst)
        if mult_worst > cfg.tolerance:
            failed.append("left-multiplier")

    unit_action = np.einsum("j,ijl->il", u, t)
    resid = spaces.norm_stack(space, (unit_action - np.eye(k))[:, None, None, :])
    unit_max = float(np.max(resid))
    samples += k
    deviations.append(unit_max)
    if unit_max > cfg.tolerance:
        failed.append("right-unit")

    aux.update(unit_action_residual=unit_max, failed=failed)
    return _report("algebra-product", cfg, float(max(deviations)), cfg.max_level, samples, aux,
                   verdict=VIOLATED if failed else HOLDS_WITHIN_BUDGET, notes=notes)


def check_cstar_among_systems(space: spaces.SpaceRep, cfg: witness.SearchConfig | None = None) -> CheckReport:
    """Does the ambient product make the operator system a C*-algebra?

    Decided by membership residuals, as ``check_mult_closed`` is: the
    canonical z = -x y* and b of the paper's normalized 2x6 rows M+- lie in X
    for every x and y exactly when every product B_i B_j* of the norm-one
    basis and the ambient 1 do, and then ||[M+- (x) I_m, w]|| = sqrt(2) for
    every norm-one w at every level (module docstring).  When the ambient 1
    leaves X but the unit v passes the corner-unit identity
    v = v*, v B = B = B v, the rows are built from v in place of 1, and the
    residual of v (``aux["unit_residual"]``, one more sample) stands in for
    that of 1.  HOLDS_WITHIN_BUDGET when the largest of the deciding
    residuals is within the tolerance; otherwise INCONCLUSIVE, since rows
    built outside X certify nothing over X.
    """
    cfg = cfg or witness.SearchConfig()
    if space.involution is None or space.unit is None:
        raise InvalidInputError("cstar check requires an involution and a distinguished element")
    if space.p != space.q:
        raise ShapeError("cstar check needs a square ambient")
    if space.norm_mode != spaces.EMBEDDED:
        return _report("cstar-among-systems", cfg, verdict=UNSUPPORTED_LEVEL, notes=["needs an embedded space"])

    B = _norm_one(space.basis)
    alg_max, _, products = _closure_residuals(space, B, matcore.dagger(B))
    identity = spaces.membership_residual(space, np.eye(space.p))
    aux = {"algebraic_max": alg_max, "identity_residual": identity}
    unit, samples = identity, products + 1
    if identity > cfg.tolerance and _ternary_proof("corner-unit", space, space.unit) is not None:
        # X lies in the corner v M v, whose unit is v: b is built from v in place of the ambient 1
        unit = aux["unit_residual"] = spaces.membership_residual(space, spaces.unit_matrix(space))
        samples += 1
    return _report("cstar-among-systems", cfg, max(alg_max, unit), cfg.max_level, samples, aux)


# ---------------------------------------------------------------------------
# catalog: every criterion by name


@dataclass(frozen=True)
class Criterion:
    """How ``run_check`` runs one criterion on a space.

    ``check`` runs as ``check(space, cfg=cfg)``, or as ``check(space, w, cfg=cfg)``
    with a basis element as the candidate multiplier w when ``takes_w``.  It
    is None for a criterion whose inputs (x and z, or a map T) only the
    caller can give.
    """

    check: Callable | None
    takes_w: bool = False


#: Every criterion by name, all 14: the searched rows, the closure checks, the two checks that
#: take the distinguished element (and the ambient product) from the space, the multipliers, and
#: the two whose inputs the caller gives.
CRITERIA = {**{name: Criterion(row.check) for name, row in SEARCH_CRITERIA.items()},
            "mult-closed": Criterion(check_mult_closed), "cstar-among-systems": Criterion(check_cstar_among_systems),
            "algebra-product": Criterion(check_algebra_product), "positive": Criterion(check_positive),
            **{f"multiplier-{side}": Criterion(functools.partial(check_multiplier, side=side), takes_w=True)
               for side in ("left", "right", "quasi")},
            "adjoint": Criterion(None), "left-multiplier-map": Criterion(None)}

#: The names ``run_check`` runs on a space, sorted: every criterion whose check takes its inputs from the space.
SPACE_CRITERIA = tuple(sorted(name for name, row in CRITERIA.items() if row.check is not None))

#: The checks run by name as (space, cfg=cfg): each searched row's ``check``, then the two closure checks.
CRITERION_RUNNERS = {name: CRITERIA[name].check for name in (*SEARCH_CRITERIA, "mult-closed", "cstar-among-systems")}


def run_check(space: spaces.SpaceRep, criterion: str, cfg: witness.SearchConfig,
              w_index: int | None = None) -> CheckReport:
    """Run the criterion named ``criterion`` (one of ``SPACE_CRITERIA``) on ``space`` through its ``CRITERIA`` row.

    The multipliers take basis element ``w_index`` as the candidate
    multiplier w; every other criterion refuses a ``w_index``.
    """
    row = CRITERIA.get(criterion)
    if row is None:
        raise InvalidInputError(f"unknown criterion {criterion!r}; known: {', '.join(SPACE_CRITERIA)}")
    if row.check is None:
        raise InvalidInputError(f"criterion {criterion!r} takes its inputs from the caller, not from a space")
    if not row.takes_w:
        if w_index is not None:
            raise InvalidInputError(f"{criterion} takes no --w-index (only the multipliers take a w)")
        return row.check(space, cfg=cfg)
    if w_index is None:
        raise InvalidInputError(f"{criterion} needs --w-index (basis element acting as w)")
    if not 0 <= w_index < space.dim:
        raise InvalidInputError(f"--w-index {w_index} out of range")
    return row.check(space, space.basis[w_index], cfg=cfg)
