"""The structured block matrices whose norms encode each criterion, assembled over stacks.

Every helper takes realized matrices with leading batch axes and assembles
its gadget over those axes; a single gadget is a stack of one, as
``matcore.op_norm`` is ``op_norm_stack`` on a stack of one.  The search and
the identity suites evaluate the ``*_stack`` assemblies and the search
differentiates through their ``*_stack_adjoint`` maps; the multiplicative
checks build on ``psd_sqrt``, ``proof_b`` and ``build_M_pm``, which give each
matrix of a stack the bytes it gets alone.  The module depends only on
``matcore``: realizing elements of a space is the caller's part.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .errors import InvalidInputError, NumericalError, ShapeError

__all__ = [
    "two_by_two_stack",
    "t_stack",
    "t_stack_adjoint",
    "r_stack",
    "r_stack_adjoint",
    "four_rotation_stack",
    "four_rotation_stack_adjoint",
    "row_stack",
    "row_stack_adjoint",
    "column_stack",
    "column_stack_adjoint",
    "build_M_pm",
    "psd_sqrt",
    "proof_b",
]

I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)


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
# ingredients for the multiplicative-structure gadgets


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


PSD_TOL = 1e-10


def psd_sqrt(h) -> np.ndarray:
    """Positive square roots of Hermitian PSD matrices (..., d, d); rejects eigenvalues below -PSD_TOL.

    The tolerance is relative to the largest eigenvalue's modulus (at least 1)
    of each matrix, and the error names the first matrix of the stack below it.
    """
    h = matcore.as_cstack(h)
    w, v = np.linalg.eigh((h + matcore.dagger(h)) / 2.0)
    low = w.min(axis=-1) < -PSD_TOL * np.maximum(1.0, np.abs(w.max(axis=-1)))
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
