"""The structured block matrices whose norms encode each criterion, assembled over stacks.

Every helper takes realized matrices with leading batch axes and assembles
its gadget over those axes; a single gadget is a stack of one, as
``matcore.op_norm`` is ``op_norm_stack`` on a stack of one.  The search and
the identity suites evaluate the ``*_stack`` assemblies and the search
differentiates through their ``*_stack_adjoint`` maps.  The closure checks
build no gadget: membership residuals of basis products decide them (see
:mod:`opspace.criteria`).  The module depends only on ``matcore``: realizing
elements of a space is the caller's part.
"""

from __future__ import annotations

import numpy as np

from . import matcore

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

