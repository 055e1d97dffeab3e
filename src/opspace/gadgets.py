"""Constructors for the structured block matrices whose norms encode each criterion.

The ``build_*`` constructors return realized ambient matrices for single
elements; the ``*_stack`` helpers assemble the same gadgets over a batch of
realized elements and are what the counterexample search evaluates.  The
ingredients of the multiplicative-structure checks (``psd_sqrt``, ``proof_b``
and ``build_M_pm``) take leading batch axes, a single matrix being a stack of
one, and give each matrix of a stack the bytes it gets alone.
"""

from __future__ import annotations

import numpy as np

from . import matcore, spaces
from .errors import InvalidInputError, NumericalError, ShapeError, UnsupportedLevelError

__all__ = [
    "build_t",
    "build_s",
    "build_r",
    "build_row",
    "build_column",
    "build_four_rotation",
    "build_Ue",
    "build_M_pm",
    "build_mult_row",
    "build_adjoint_block",
    "psd_sqrt",
    "proof_b",
]

I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)


def _coeff_vector(space: spaces.SpaceRep, v) -> np.ndarray:
    if isinstance(v, spaces.LevelElement):
        if v.level != 1:
            raise ShapeError("distinguished element must live at level 1")
        return v.coeffs.reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.shape != (space.dim,):
        raise ShapeError(f"coefficient vector must have length {space.dim}")
    return v


def amplified_unit(space: spaces.SpaceRep, v, level: int) -> np.ndarray:
    """Realize v_n = v (x) I_n, the n-fold diagonal amplification of a level-1 element."""
    vm = spaces.realize_stack(space, _coeff_vector(space, v).reshape(1, 1, -1))
    return matcore.scalar_amplify(vm, level)


def _require_embedded(space: spaces.SpaceRep, who: str):
    if space.norm_mode != spaces.EMBEDDED:
        raise UnsupportedLevelError(f"{who} requires an embedded space (it lives above level 1)")


# ---------------------------------------------------------------------------
# stack assemblies (leading batch axes on X)


def two_by_two_stack(A, B, C, D) -> np.ndarray:
    top = np.concatenate(np.broadcast_arrays(A, B), axis=-1)
    bot = np.concatenate(np.broadcast_arrays(C, D), axis=-1)
    return np.concatenate(np.broadcast_arrays(top, bot), axis=-2)


def t_stack(Vn: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[[v_n, x], [0, v_n]] over a stack of realized x."""
    Z = np.zeros_like(X)
    return two_by_two_stack(Vn, X, Z, Vn)


def r_stack(Vn: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[[v_n, x], [-x*, v_n]] over a stack of realized x."""
    return two_by_two_stack(Vn, X, -matcore.dagger(X), Vn)


def four_rotation_stack(Vn: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The four elements v_n + i^k x, stacked on a new leading axis k."""
    return Vn + I_POWERS.reshape((4,) + (1,) * X.ndim) * X[None]


def row_stack(Un: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[u_n  x] over a stack of realized x."""
    return np.concatenate(np.broadcast_arrays(Un, X), axis=-1)


def column_stack(Un: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[u_n ; x] over a stack of realized x."""
    return np.concatenate(np.broadcast_arrays(Un, X), axis=-2)


# ---------------------------------------------------------------------------
# adjoints of the stack assemblies' x-parts: a cotangent W of the assembled
# gadget maps to the cotangent of x, Re<W, dG> = Re<adjoint(W), dx>, for x
# of the same shape as the distinguished element (as in the search)


def t_stack_adjoint(W: np.ndarray) -> np.ndarray:
    """The top-right block of W."""
    r, c = W.shape[-2] // 2, W.shape[-1] // 2
    return W[..., :r, c:]


def r_stack_adjoint(W: np.ndarray) -> np.ndarray:
    """W_01 - W_10^H: x sits top right and -x* bottom left."""
    r, c = W.shape[-2] // 2, W.shape[-1] // 2
    return W[..., :r, c:] - matcore.dagger(W[..., r:, :c])


def four_rotation_stack_adjoint(norms: np.ndarray, W: np.ndarray) -> np.ndarray:
    """conj(i^k) W_k at the rotation k of largest norm (the first one on ties).

    ``norms`` (4, ...) and cotangents ``W`` (4, ..., rows, cols) belong to a
    ``four_rotation_stack``; the result is the cotangent of x for the maximum
    over k of the norms.
    """
    top = np.argmax(norms, axis=0)
    matrix_shape = W.shape[norms.ndim:]
    Wk = W.reshape((4, top.size) + matrix_shape)[top.reshape(-1), np.arange(top.size)]
    phase = np.conj(I_POWERS[top]).reshape(top.shape + (1,) * len(matrix_shape))
    return phase * Wk.reshape(top.shape + matrix_shape)


def row_stack_adjoint(W: np.ndarray) -> np.ndarray:
    """The right block of W."""
    return W[..., W.shape[-1] // 2:]


def column_stack_adjoint(W: np.ndarray) -> np.ndarray:
    """The bottom block of W."""
    return W[..., W.shape[-2] // 2:, :]


# ---------------------------------------------------------------------------
# public single-element constructors


def build_t(space: spaces.SpaceRep, v, x: spaces.LevelElement) -> np.ndarray:
    """Upper-triangular doubling gadget [[v_n, x], [0, v_n]], realized in the ambient."""
    _require_embedded(space, "the doubling gadget")
    Vn = amplified_unit(space, v, x.level)
    return t_stack(Vn, spaces.realize(space, x))


def build_s(space: spaces.SpaceRep, v, x: spaces.LevelElement) -> np.ndarray:
    """Symmetric gadget [[v_n, x], [x*, v_n]]; requires the space's involution."""
    _require_embedded(space, "the symmetric gadget")
    if space.involution is None:
        raise InvalidInputError("symmetric gadget requires an involution")
    Vn = amplified_unit(space, v, x.level)
    xs = spaces.realize(space, spaces.apply_involution(space, x))
    return two_by_two_stack(Vn, spaces.realize(space, x), xs, Vn)


def build_r(space: spaces.SpaceRep, v, x: spaces.LevelElement) -> np.ndarray:
    """Skew gadget [[v_n, x], [-x*, v_n]]; requires the space's involution."""
    _require_embedded(space, "the skew gadget")
    if space.involution is None:
        raise InvalidInputError("skew gadget requires an involution")
    Vn = amplified_unit(space, v, x.level)
    xs = spaces.realize(space, spaces.apply_involution(space, x))
    return two_by_two_stack(Vn, spaces.realize(space, x), -xs, Vn)


def _rect_realize(space: spaces.SpaceRep, x) -> tuple[np.ndarray, int]:
    """Realize a square LevelElement or a rectangular (r, c, k) coefficient grid."""
    if isinstance(x, spaces.LevelElement):
        return spaces.realize(space, x), x.level
    grid = np.asarray(x, dtype=np.complex128)
    if grid.ndim != 3 or grid.shape[-1] != space.dim:
        raise ShapeError("expected a LevelElement or an (rows, cols, k) coefficient grid")
    return spaces.realize_stack(space, grid), grid.shape[0]


def build_row(space: spaces.SpaceRep, u, x) -> np.ndarray:
    """Row gadget [u_k  x] with u amplified to match the row count of x's grid."""
    _require_embedded(space, "the row gadget")
    X, rows = _rect_realize(space, x)
    return row_stack(amplified_unit(space, u, rows), X)


def build_column(space: spaces.SpaceRep, u, x) -> np.ndarray:
    """Column gadget [u_k ; x] with u amplified to match the column count of x's grid."""
    _require_embedded(space, "the column gadget")
    X, _ = _rect_realize(space, x)
    cols = X.shape[-1] // space.q
    return column_stack(amplified_unit(space, u, cols), X)


def build_four_rotation(space: spaces.SpaceRep, v, x: spaces.LevelElement, k: int) -> np.ndarray:
    """The element v_n + i^k x, realized in the ambient (measure it with the space's norm)."""
    if not 0 <= k <= 3:
        raise InvalidInputError("rotation index k must be in 0..3")
    if space.norm_mode == spaces.LEVEL1_ORACLE and x.level != 1:
        raise UnsupportedLevelError("level1-oracle spaces only evaluate level-1 elements")
    Vn = amplified_unit(space, v, x.level)
    return Vn + I_POWERS[k] * spaces.realize(space, x)


def build_Ue(space: spaces.SpaceRep, e) -> spaces.SpaceRep:
    """The doubling space of (X, e): span of [[e,0],[0,e]] and [[0,B_i],[0,0]] inside M_{2p x 2q}.

    Its distinguished element is e (x) I_2, the first basis element.
    """
    _require_embedded(space, "the doubling space")
    ev = _coeff_vector(space, e)
    E = spaces.realize_stack(space, ev.reshape(1, 1, -1))
    p, q, k = space.p, space.q, space.dim
    basis = np.zeros((k + 1, 2 * p, 2 * q), dtype=np.complex128)
    basis[0, :p, :q] = E
    basis[0, p:, q:] = E
    basis[1:, :p, q:] = space.basis
    unit = np.zeros(k + 1, dtype=np.complex128)
    unit[0] = 1.0
    return spaces.make_space(basis, unit=unit)


def _square_like(name: str, m, d: int) -> np.ndarray:
    a = matcore.as_cstack(m)
    if a.shape[-2:] != (d, d):
        raise ShapeError(f"{name} must be {d}x{d}, got {a.shape}")
    return a


def _first_at(bad: np.ndarray) -> str:
    """Where the first True of ``bad`` sits in a stack, for messages; empty for a single matrix."""
    if bad.ndim == 0:
        return ""
    return f" at stack index {tuple(int(i) for i in np.argwhere(bad)[0])}"


def build_M_pm(x, y, z, b, sign: str = "+") -> np.ndarray:
    """Normalized 2x6 block rows used to detect multiplicative structure, over stacks (..., d, d).

    Row one is [y, 0, 1, x, b, z]; row two is [x, b, z, y, 0, 1] for sign "+"
    and [x, b, z, -y, 0, -1] for sign "-".  Each result is divided by its
    operator norm, so a well-formed instance has orthonormal block rows.  The
    leading axes of the entries broadcast; a single matrix is a stack of one.
    """
    x = matcore.as_cstack(x)
    d = x.shape[-1]
    if x.shape[-2] != d:
        raise ShapeError("entries must be square")
    y, z, b = (_square_like(n, m, d) for n, m in (("y", y), ("z", z), ("b", b)))
    x, y, z, b = np.broadcast_arrays(x, y, z, b)
    one = np.broadcast_to(np.eye(d, dtype=np.complex128), x.shape)
    zero = np.zeros(x.shape, dtype=np.complex128)
    if sign == "+":
        bottom = [x, b, z, y, zero, one]
    elif sign == "-":
        bottom = [x, b, z, -y, zero, -one]
    else:
        raise InvalidInputError("sign must be '+' or '-'")
    m = np.concatenate([np.concatenate([y, zero, one, x, b, z], axis=-1),
                        np.concatenate(bottom, axis=-1)], axis=-2)
    nm = matcore.op_norm_stack(m)
    if (nm <= 0).any():
        raise InvalidInputError(f"gadget norm is zero{_first_at(nm <= 0)}; nothing to normalize")
    return m / nm[..., None, None]


def build_mult_row(x, y, z, b) -> tuple[np.ndarray, np.ndarray]:
    """The 2x4 block matrix [[0, y, 1, 0], [2, x, z, b]] and the row [2, x, z, b].

    Equality of their norms for every b certifies that x y* + z vanishes.
    """
    x = matcore.as_cmat(x)
    d = x.shape[0]
    if x.shape != (d, d):
        raise ShapeError("entries must be square")
    y, z, b = (_square_like(n, m, d) for n, m in (("y", y), ("z", z), ("b", b)))
    one = np.eye(d, dtype=np.complex128)
    zero = np.zeros_like(one)
    two_by_four = matcore.block([[zero, y, one, zero], [2 * one, x, z, b]])
    row = matcore.block([[2 * one, x, z, b]])
    return two_by_four, row


def build_adjoint_block(x, z, t: float) -> np.ndarray:
    """[[t*1, x], [-z, t*1]] for square x, z of equal size."""
    x = matcore.as_cmat(x)
    z = matcore.as_cmat(z)
    if x.shape != z.shape or x.shape[0] != x.shape[1]:
        raise ShapeError("x and z must be square and of equal size")
    tI = float(t) * np.eye(x.shape[0], dtype=np.complex128)
    return matcore.block([[tI, x], [-z, tI]])


# ---------------------------------------------------------------------------
# ingredients for the multiplicative-structure gadgets


def psd_sqrt(h, tol: float = 1e-10) -> np.ndarray:
    """Positive square roots of Hermitian PSD matrices (..., d, d); rejects eigenvalues below -tol.

    The tolerance is relative to the largest eigenvalue's modulus (at least 1)
    of each matrix, and the error names the first matrix of the stack below it.
    """
    h = matcore.as_cstack(h)
    w, v = np.linalg.eigh((h + matcore.dagger(h)) / 2.0)
    low = w.min(axis=-1) < -tol * np.maximum(1.0, np.abs(w.max(axis=-1)))
    if low.any():
        first = w[tuple(np.argwhere(low)[0])] if low.ndim else w
        raise NumericalError(f"operand{_first_at(low)} is not positive semidefinite "
                             f"(min eigenvalue {first.min():.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ matcore.dagger(v)


def proof_b(x, y, z) -> np.ndarray:
    """The filler sqrt(||xx* + yy* + zz*|| 1 - xx* - yy* - zz*) over stacks (pass y=0 for the 2x4 rows)."""
    x, y, z = (matcore.as_cstack(m) for m in (x, y, z))
    h = x @ matcore.dagger(x) + y @ matcore.dagger(y) + z @ matcore.dagger(z)
    return psd_sqrt(matcore.op_norm_stack(h)[..., None, None] * np.eye(h.shape[-1]) - h)
