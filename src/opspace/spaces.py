"""Concrete operator spaces: a basis inside M_{p x q}(C) with amplified matrix norms.

A space is the span of ``k`` linearly independent ambient matrices.  Elements
of the level-``n`` amplification M_n(X) are n x n grids of coefficient vectors,
realized as one (np) x (nq) ambient matrix whose cell (i, j) is the basis
combination of the (i, j) coefficient vector.  Norms are inherited from the
ambient operator norm, except for "level1-oracle" spaces whose 1 x 1 norm is
supplied by a named matrix norm (used for trace-norm examples); criteria on
such spaces can only certify the level-1 necessary condition.

Every space carries ``blocks`` (k, g, a, b), computed once when it is built:
the basis as a direct sum of ``g`` blocks, B_l = Q (blocks[l, 0] + ... +
blocks[l, g-1]) Q* for one unitary Q on both sides (a p x q basis is
zero-padded to a square first).  Operator norms at every level are maxima over
the blocks and trace norms are sums, and neither can tell a space from a
unitary conjugate of it, so the split finds direct sums whether or not they
line up with coordinates.  A basis that does not split is its own one block
(g = 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import (
    InvalidInputError,
    ShapeError,
    SpaceFormatError,
    UnsupportedLevelError,
)

__all__ = [
    "SpaceRep",
    "LevelElement",
    "make_space",
    "load_space",
    "load_space_file",
    "space_to_json",
    "realize",
    "realize_stack",
    "realize_fibers_stack",
    "realize_fibers_adjoint_stack",
    "block_norms",
    "block_norm_cotangents",
    "norm",
    "norm_stack",
    "membership_residual",
    "membership_residual_stack",
    "coefficients_of",
    "apply_involution",
    "involution_stack",
    "project_to_ball",
    "unit_element",
    "unit_matrix",
    "random_stack",
    "zero_element",
]

RANK_TOL = 1e-10
INVOLUTION_TOL = 1e-10
UNIT_NORM_SLACK = 1e-10

EMBEDDED = "embedded"
LEVEL1_ORACLE = "level1-oracle"

#: Norm functions selectable by level1-oracle spaces.
ORACLES = {
    "trace_norm": matcore.trace_norm_stack,
}


@dataclass(eq=False)
class LevelElement:
    """An element of M_n(X): an n x n grid of length-k coefficient vectors."""

    level: int
    coeffs: np.ndarray  # (n, n, k) complex

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        n = int(self.level)
        if n < 1:
            raise InvalidInputError("level must be positive")
        if self.coeffs.shape[:2] != (n, n):
            raise ShapeError(f"coefficient grid {self.coeffs.shape} does not match level {n}")
        if not np.all(np.isfinite(self.coeffs)):
            raise InvalidInputError("coefficients have non-finite entries")


#: A block layout must rebuild every basis element B_l to this accuracy,
#: relative to its largest |entry|, or the space keeps its basis as one block.
LAYOUT_TOL = 1e-12
#: Entries of Q* B_l Q below this relative size join no two indices into one
#: block.  The leakage that ``eigh`` leaves between blocks is about 1e-13 at
#: side 64, and a quarter of LAYOUT_TOL leaves the reconstruction check room
#: for the entries dropped.
_PATTERN_TOL = LAYOUT_TOL / 4


@dataclass(eq=False)
class SpaceRep:
    """A concrete operator space with optional distinguished element and involution."""

    p: int
    q: int
    basis: np.ndarray  # (k, p, q)
    unit: np.ndarray | None = None  # (k,) coefficients of the candidate u/v/e
    involution: np.ndarray | None = None  # (k, k); coeffs(x*) = S @ conj(coeffs(x))
    norm_mode: str = EMBEDDED
    level1_oracle: str | None = None
    blocks: np.ndarray = field(init=False, repr=False)  # (k, g, a, b); see _block_layout
    _flat: np.ndarray = field(init=False, repr=False)
    _pinv: np.ndarray = field(init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=np.complex128)
        if self.basis.ndim != 3 or self.basis.shape[1:] != (self.p, self.q):
            raise ShapeError(f"basis stack {self.basis.shape} does not match ambient {self.p}x{self.q}")
        self._flat = self.basis.reshape(self.dim, self.p * self.q)
        self._pinv = np.linalg.pinv(self._flat)
        self.blocks = _block_layout(self.basis)


def _block_layout(basis: np.ndarray) -> np.ndarray:
    """Split the basis into the finest direct sum that one eigenbasis shows.

    Returns the blocks (k, g, a, a), ragged ones zero-padded to the largest,
    or the basis itself as one block (k, 1, p, q) when it does not split.
    Q diagonalizes one Hermitian element of the *-algebra the (zero-padded)
    basis generates, with fixed weights, so it is the same on every load.
    Its eigenvectors lie in the algebra's invariant subspaces, and the
    blocks are the connected components of the joint pattern of the Q* B_l Q,
    in the order of their smallest index; blocks on which every basis
    element vanishes are dropped.  The split is kept only when it
    reconstructs the basis to LAYOUT_TOL.  A generic Hermitian element
    has simple eigenvalues on each inequivalent summand; where a summand
    repeats, ``eigh`` may mix the copies and the copies then stay one block.
    """
    k, p, q = basis.shape
    s = max(p, q)
    B = np.zeros((k, s, s), dtype=np.complex128)
    B[:, :p, :q] = basis
    ell = np.arange(1, k + 1)
    wr, wi = np.modf(math.sqrt(2.0) * ell)[0], np.modf(math.sqrt(3.0) * ell)[0]
    Bh = matcore.dagger(B)
    H = np.tensordot(wr, B + Bh, axes=1) + np.tensordot(wi, 1j * (B - Bh), axes=1)
    Q = np.linalg.eigh(H)[1]
    T = matcore.dagger(Q) @ B @ Q
    scale = np.abs(B).max(axis=(1, 2))
    linked = (np.abs(T) > _PATTERN_TOL * scale[:, None, None]).any(axis=0)
    linked |= linked.T
    label = np.arange(s)  # each index ends labelled with the smallest index of its component
    while True:
        lowest = np.minimum(label, np.where(linked, label, s).min(axis=1))
        if np.array_equal(lowest, label):
            break
        label = lowest
    same = label[:, None] == label
    live = linked.any(axis=1)  # an index without links is a block on which every B_l vanishes
    roots = np.flatnonzero((label == np.arange(s)) & live)
    if len(roots) < 2:
        return basis[:, None]
    kept = np.where(same & live[:, None], T, 0.0)
    if (np.abs(Q @ kept @ matcore.dagger(Q) - B).max(axis=(1, 2)) > LAYOUT_TOL * scale).any():
        return basis[:, None]
    idx = np.flatnonzero(live)
    block = np.searchsorted(roots, label[idx])
    pos = np.tril(same, -1).sum(axis=1)[idx]  # place within the block
    a = pos.max() + 1
    i, j = np.nonzero(same[np.ix_(idx, idx)])
    blocks = np.zeros((k, len(roots), a, a), dtype=np.complex128)
    blocks[:, block[i], pos[i], pos[j]] = T[:, idx[i], idx[j]]
    return blocks


def make_space(
    basis,
    unit=None,
    involution=None,
    norm_mode: str = EMBEDDED,
    level1_oracle: str | None = None,
    rank_tol: float = RANK_TOL,
) -> SpaceRep:
    """Construct and validate a SpaceRep from raw arrays.

    Checks basis independence, involution consistency (period two on
    coefficients; matching the ambient adjoint in embedded mode) and that the
    distinguished element, if any, sits in the unit ball of the space's norm.
    """
    if not 0.0 < rank_tol < 1.0:
        raise InvalidInputError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    basis = np.asarray(basis, dtype=np.complex128)
    if basis.ndim != 3:
        raise SpaceFormatError("basis must be a stack of matrices")
    k, p, q = basis.shape
    if not np.all(np.isfinite(basis)):
        raise SpaceFormatError("basis has non-finite entries")
    if k > p * q:
        raise SpaceFormatError(f"basis is rank deficient: {k} elements in a {p * q}-dimensional ambient")
    sv = np.linalg.svd(basis.reshape(k, p * q), compute_uv=False)
    if sv[-1] <= rank_tol * sv[0]:
        raise SpaceFormatError(
            f"basis is rank deficient: smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e}"
        )
    if norm_mode not in (EMBEDDED, LEVEL1_ORACLE):
        raise SpaceFormatError(f"unknown norm_mode {norm_mode!r}")
    if norm_mode == LEVEL1_ORACLE:
        if level1_oracle not in ORACLES:
            raise SpaceFormatError(f"unknown level1_oracle {level1_oracle!r}")
    elif level1_oracle is not None:
        raise SpaceFormatError("level1_oracle is only meaningful in level1-oracle mode")

    S = None
    if involution is not None:
        S = np.asarray(involution, dtype=np.complex128)
        if S.shape != (k, k):
            raise SpaceFormatError(f"involution must be {k}x{k}, got {S.shape}")
        period = S @ np.conj(S)
        if np.abs(period - np.eye(k)).max() > INVOLUTION_TOL:
            raise SpaceFormatError("involution applied twice is not the identity on coefficients")
        if norm_mode == EMBEDDED:
            if p != q:
                raise SpaceFormatError("an involution on an embedded space requires a square ambient")
            # coeffs(B_i^*) = S[:, i]; realize and compare with the ambient adjoint
            for i in range(k):
                want = matcore.dagger(basis[i])
                got = np.tensordot(S[:, i], basis, axes=(0, 0))
                if np.abs(got - want).max() > INVOLUTION_TOL:
                    raise SpaceFormatError(
                        "involution does not realize the ambient adjoint on basis element %d" % i
                    )

    u = None
    if unit is not None:
        u = np.asarray(unit, dtype=np.complex128).reshape(-1)
        if u.shape != (k,):
            raise SpaceFormatError(f"unit coefficient vector must have length {k}")

    space = SpaceRep(
        p=p, q=q, basis=basis, unit=u, involution=S, norm_mode=norm_mode, level1_oracle=level1_oracle
    )
    if u is not None:
        un = norm(space, LevelElement(1, u.reshape(1, 1, k)))
        if un > 1.0 + UNIT_NORM_SLACK:
            raise SpaceFormatError(f"distinguished element has norm {un:.12f} > 1")
    return space


# ---------------------------------------------------------------------------
# space-definition documents

_COMPLEX_PAIR = "a complex scalar encoded as [re, im]"


def _decode_scalar(v):
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SpaceFormatError(f"expected {_COMPLEX_PAIR}, got {v!r}")
    re, im = v
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise SpaceFormatError(f"expected {_COMPLEX_PAIR}, got {v!r}")
    return complex(re, im)


def _decode_vector(values, length, what):
    if not isinstance(values, list) or len(values) != length:
        raise SpaceFormatError(f"{what} must be a list of {length} complex pairs")
    return np.array([_decode_scalar(v) for v in values], dtype=np.complex128)


def load_space(document: str, rank_tol: float = RANK_TOL) -> SpaceRep:
    """Parse a UTF-8 JSON space definition and return a validated SpaceRep.

    Schema: {"p", "q", "basis": [[[re,im], ...row-major...], ...],
    "unit": [[re,im], ...] (optional), "involution": [[[re,im], ...], ...] (optional),
    "norm_mode": "embedded"|"level1-oracle", "level1_oracle": "trace_norm" (optional)}.
    Unknown fields are rejected.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpaceFormatError("space definition must be a JSON object")
    known = {"p", "q", "basis", "unit", "involution", "norm_mode", "level1_oracle"}
    unknown = set(doc) - known
    if unknown:
        raise SpaceFormatError(f"unknown fields in space definition: {sorted(unknown)}")
    for req in ("p", "q", "basis"):
        if req not in doc:
            raise SpaceFormatError(f"missing required field {req!r}")
    p, q = doc["p"], doc["q"]
    if not isinstance(p, int) or not isinstance(q, int) or p < 1 or q < 1:
        raise SpaceFormatError("p and q must be positive integers")
    raw_basis = doc["basis"]
    if not isinstance(raw_basis, list) or not raw_basis:
        raise SpaceFormatError("basis must be a non-empty list")
    basis = np.stack(
        [_decode_vector(b, p * q, f"basis[{i}]").reshape(p, q) for i, b in enumerate(raw_basis)]
    )
    k = basis.shape[0]
    unit = _decode_vector(doc["unit"], k, "unit") if doc.get("unit") is not None else None
    involution = None
    if doc.get("involution") is not None:
        rows = doc["involution"]
        if not isinstance(rows, list) or len(rows) != k:
            raise SpaceFormatError(f"involution must be a list of {k} rows")
        involution = np.stack([_decode_vector(r, k, f"involution[{i}]") for i, r in enumerate(rows)])
    return make_space(
        basis,
        unit=unit,
        involution=involution,
        norm_mode=doc.get("norm_mode", EMBEDDED),
        level1_oracle=doc.get("level1_oracle"),
        rank_tol=rank_tol,
    )


def load_space_file(path, rank_tol: float = RANK_TOL) -> SpaceRep:
    with open(path, "r", encoding="utf-8") as fh:
        return load_space(fh.read(), rank_tol=rank_tol)


def _encode_scalar(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def space_to_json(space: SpaceRep) -> str:
    """Serialize a SpaceRep back to the space-definition JSON format."""
    doc = {
        "p": space.p,
        "q": space.q,
        "basis": [[_encode_scalar(z) for z in b.reshape(-1)] for b in space.basis],
        "norm_mode": space.norm_mode,
    }
    if space.unit is not None:
        doc["unit"] = [_encode_scalar(z) for z in space.unit]
    if space.involution is not None:
        doc["involution"] = [[_encode_scalar(z) for z in row] for row in space.involution]
    if space.level1_oracle is not None:
        doc["level1_oracle"] = space.level1_oracle
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# realization and norms


def realize_stack(space: SpaceRep, coeffs: np.ndarray) -> np.ndarray:
    """Realize a stack of coefficient grids (..., r, c, k) as ambient matrices (..., rp, cq)."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    r, c = coeffs.shape[-3], coeffs.shape[-2]
    out = np.einsum("...ijl,lpq->...ipjq", coeffs, space.basis)
    return out.reshape(coeffs.shape[:-3] + (r * space.p, c * space.q))


def realize(space: SpaceRep, x: LevelElement) -> np.ndarray:
    """Realize one element of M_n(X) as its ambient (np) x (nq) matrix."""
    return realize_stack(space, x.coeffs)


def realize_fibers_stack(space: SpaceRep, coeffs: np.ndarray) -> np.ndarray:
    """Realize coefficient grids (..., r, c, k) as the blocks of ``space.blocks`` (..., g, r a, c b).

    Block ``b`` is the level-r amplification of ``space.blocks[:, b]``.
    The ambient matrix is, up to the unitaries I_r (x) Q on both sides, zero
    padding and a permutation, the direct sum of these blocks: its operator
    norm is their maximum and its trace norm their sum.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    r, c = coeffs.shape[-3], coeffs.shape[-2]
    _, g, a, b = space.blocks.shape
    out = np.einsum("...ijl,lgrs->...girjs", coeffs, space.blocks)
    return out.reshape(coeffs.shape[:-3] + (g, r * a, c * b))


def realize_fibers_adjoint_stack(space: SpaceRep, W: np.ndarray) -> np.ndarray:
    """Adjoint of ``realize_fibers_stack``: block cotangents (..., g, r a, c b) -> (..., r, c, k)."""
    W = np.asarray(W, dtype=np.complex128)
    _, g, a, b = space.blocks.shape
    r, c = W.shape[-2] // a, W.shape[-1] // b
    grid = W.reshape(W.shape[:-3] + (g, r, a, c, b))
    return np.einsum("...girjs,lgrs->...ijl", grid, np.conj(space.blocks))


def block_norms(space: SpaceRep, blocks: np.ndarray) -> np.ndarray:
    """Norms of elements given as their blocks (..., g, a, b) -> (...), from ``realize_fibers_stack``.

    The operator norm of a direct sum is the largest of its blocks'; a
    level-1 oracle norm is summed over the blocks, as the trace norm is.
    This is the one place that combines block norms.
    """
    if space.norm_mode == LEVEL1_ORACLE:
        return ORACLES[space.level1_oracle](blocks).sum(axis=-1)
    return matcore.op_norm_fibers(blocks)


def block_norm_cotangents(space: SpaceRep, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``block_norms`` with a cotangent of each, shaped like ``blocks``.

    See ``matcore.norm_cotangent_stack``; the operator norm's cotangent is
    zero outside the arg-max block.
    """
    if space.norm_mode == LEVEL1_ORACLE:
        norms, W = matcore.norm_cotangent_stack(blocks, space.level1_oracle)
        return norms.sum(axis=-1), W
    return matcore.norm_cotangent_stack(blocks, "op_norm_fibers")


def norm_stack(space: SpaceRep, coeffs: np.ndarray) -> np.ndarray:
    """Norms of a stack of coefficient grids in the space's matrix-norm structure."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = coeffs.shape[-3]
    if space.norm_mode == LEVEL1_ORACLE and n != 1:
        raise UnsupportedLevelError(
            f"space norm is only defined at level 1 (level1-oracle mode), got level {n}"
        )
    return block_norms(space, realize_fibers_stack(space, coeffs))


def norm(space: SpaceRep, x: LevelElement) -> float:
    """Norm of an element of M_n(X)."""
    return float(norm_stack(space, x.coeffs[None])[0])


def coefficients_of(space: SpaceRep, m) -> np.ndarray:
    """Least-squares coefficients of the best approximation to ``m`` in the span of the basis."""
    a = matcore.as_cmat(m)
    if a.shape != (space.p, space.q):
        raise ShapeError(f"expected {space.p}x{space.q}, got {a.shape}")
    return a.reshape(-1) @ space._pinv


def membership_residual_stack(space: SpaceRep, ms) -> np.ndarray:
    """Operator-norm distances of ambient matrices (..., p, q) to their projections onto the space.

    A distance is 0 iff its matrix lies in the space.  Each matrix is
    projected as one (1, pq) row, so the products are the vector-matrix ones
    of a single matrix, and each distance is bit for bit ``membership_residual``.
    """
    a = np.asarray(ms, dtype=np.complex128)
    if a.shape[-2:] != (space.p, space.q):
        raise ShapeError(f"expected {space.p}x{space.q} matrices, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix has non-finite entries")
    c = a.reshape(a.shape[:-2] + (1, -1)) @ space._pinv
    proj = (c @ space._flat).reshape(a.shape)
    return matcore.op_norm_stack(a - proj)


def membership_residual(space: SpaceRep, m) -> float:
    """Operator-norm distance from ``m`` to its projection onto the space; 0 iff m lies in it."""
    return float(membership_residual_stack(space, matcore.as_cmat(m)))


def involution_stack(space: SpaceRep, coeffs: np.ndarray) -> np.ndarray:
    """The grids of x* over a stack (..., n, n, k): each grid transposed, coefficients c -> S conj(c)."""
    if space.involution is None:
        raise InvalidInputError("space has no involution")
    return np.einsum("lm,...ijm->...jil", space.involution, np.conj(coeffs))


def apply_involution(space: SpaceRep, x: LevelElement) -> LevelElement:
    """The element x* = [x*_{ji}]: grid transposed, coefficients c -> S conj(c)."""
    return LevelElement(x.level, involution_stack(space, x.coeffs))


def project_to_ball(space: SpaceRep, x: LevelElement, radius: float) -> LevelElement:
    """Rescale into the closed ball of the given radius (no-op inside it)."""
    if radius <= 0:
        raise InvalidInputError("radius must be positive")
    nx = norm(space, x)
    if nx <= radius:
        return x
    return LevelElement(x.level, x.coeffs * (radius / nx))


def unit_element(space: SpaceRep) -> LevelElement:
    if space.unit is None:
        raise InvalidInputError("space has no distinguished element")
    return LevelElement(1, space.unit.reshape(1, 1, -1))


def unit_matrix(space: SpaceRep) -> np.ndarray:
    return realize_stack(space, unit_element(space).coeffs)


def zero_element(space: SpaceRep, level: int = 1) -> LevelElement:
    return LevelElement(level, np.zeros((level, level, space.dim), dtype=np.complex128))


def random_stack(
    space: SpaceRep,
    level: int,
    rng: np.random.Generator,
    count: int,
    target_norm: float | None = None,
) -> np.ndarray:
    """``count`` random coefficient grids (count, level, level, k), optionally rescaled to a given norm.

    The grids are drawn one after another from ``rng``: each draws the real
    parts of its Gaussian coefficients, then their imaginary parts, so one
    call with count n draws what n calls with count 1 draw.  A grid of norm 0
    is left as drawn.
    """
    z = rng.normal(size=(count, 2, level, level, space.dim))
    coeffs = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    if target_norm is not None:
        coeffs = _scale_to_norms(space, coeffs, target_norm)
    return coeffs


def _scale_to_norms(space: SpaceRep, coeffs: np.ndarray, target_norms) -> np.ndarray:
    """Coefficient grids (..., n, n, k) rescaled to ``target_norms`` (a scalar or an array over (...)).

    Each grid is scaled by its own target over its own norm, so a grid comes
    out the same whichever stack it is scaled in; a grid of norm 0 is left as
    it is.
    """
    nx = norm_stack(space, coeffs)
    scale = np.where(nx > 0, target_norms / np.where(nx > 0, nx, 1.0), 1.0)
    return coeffs * scale[..., None, None, None]
