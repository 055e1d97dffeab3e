"""Dense complex matrix arithmetic: norms, block assembly, amplification, seeded sampling.

Matrices are plain ``numpy.ndarray`` objects with ``dtype=complex128`` and two
axes.  The "stack" variants accept any number of leading batch axes and are the
workhorses behind the counterexample search, where thousands of small norms are
evaluated per ascent step.

Most of those matrices have a side of at most two (level-1 elements and
gadgets of spaces in M_2, and the 2 x 2 or 1 x 1 fibers of direct sums), where
one LAPACK call per matrix costs far more than the arithmetic.  So
``op_norm_stack``, ``op_norm_fibers`` and ``trace_norm_stack`` take the largest
singular value in closed form when the shorter side is 1 or 2, and the trace
norm when the matrix is a single row or column or exactly 2 x 2; every other
shape goes to ``np.linalg.svd``.  The closed forms scale each matrix by its
largest |entry| first, so they hold from 1e-300 to 1e300.  The single-matrix
``op_norm``/``trace_norm`` and ``norm_cotangent_stack`` use LAPACK throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ShapeError

__all__ = [
    "as_cmat",
    "op_norm",
    "trace_norm",
    "dagger",
    "block",
    "scalar_amplify",
    "stream",
    "rand_cmat",
    "op_norm_stack",
    "trace_norm_stack",
    "norm_cotangent_stack",
]


def as_cmat(m, check_finite: bool = True) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    if check_finite and not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix has non-finite entries")
    return a


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value."""
    a = as_cmat(m)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def trace_norm(m) -> float:
    """Trace norm: the sum of singular values."""
    a = as_cmat(m)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(np.asarray(m, dtype=np.complex128), -1, -2))


def block(blocks) -> np.ndarray:
    """Assemble a grid (list of rows) of matrices into one matrix.

    Raises ShapeError when row heights or column widths are ragged.
    """
    rows = [[as_cmat(b, check_finite=False) for b in row] for row in blocks]
    if not rows or not rows[0]:
        raise ShapeError("block grid must be non-empty")
    ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise ShapeError("block grid rows have differing lengths")
        heights = {b.shape[0] for b in row}
        if len(heights) != 1:
            raise ShapeError("blocks within a grid row have differing row counts")
    for j in range(ncols):
        widths = {row[j].shape[1] for row in rows}
        if len(widths) != 1:
            raise ShapeError("blocks within a grid column have differing column counts")
    return np.block([[b for b in row] for row in rows])


def scalar_amplify(m, n: int) -> np.ndarray:
    """Block-diagonal matrix with ``n`` copies of ``m``; leaves the operator norm unchanged."""
    a = as_cmat(m, check_finite=False)
    if n < 1:
        raise InvalidInputError("amplification level must be positive")
    if n == 1:
        return a.copy()
    p, q = a.shape
    out = np.zeros((n * p, n * q), dtype=np.complex128)
    for i in range(n):
        out[i * p : (i + 1) * p, i * q : (i + 1) * q] = a
    return out


def stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based RNG stream derived from a master seed and an integer key path.

    Distinct key paths yield statistically independent streams; the same
    (seed, key) always reproduces the same sequence, independent of any other
    stream, which is what makes restart-parallel searches bit-reproducible.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def rand_cmat(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of independent standard complex Gaussian entries drawn from ``rng``."""
    if rows < 1 or cols < 1:
        raise InvalidInputError("matrix dimensions must be positive")
    z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return z / np.sqrt(2.0)


def _fibered_diagonal(ms: np.ndarray, fiber: int) -> np.ndarray:
    """Rearrange a stack of g-fibered matrices into per-fiber small matrices.

    A matrix is g-fibered when, viewed as an (r/g) x (c/g) grid of g x g
    blocks, every block is diagonal.  Such matrices are direct sums (up to a
    permutation) of the ``g`` small matrices returned here, so spectral data
    can be computed fiber-by-fiber at a fraction of the dense cost.
    """
    r, c = ms.shape[-2], ms.shape[-1]
    br, bc = r // fiber, c // fiber
    grid = ms.reshape(ms.shape[:-2] + (br, fiber, bc, fiber))
    diag = np.diagonal(grid, axis1=-3, axis2=-1)  # (..., br, bc, fiber)
    return np.moveaxis(diag, -1, -3)  # (..., fiber, br, bc)


# the smallest normal double, a power of two: dividing by it is exact, and it
# stands in for the scale of a zero matrix, whose norms then come out as exactly 0
_TINY = np.finfo(np.float64).tiny


def _vector_norm(ms: np.ndarray) -> np.ndarray:
    """Euclidean norm of each matrix of a stack with one row or one column: (..., r, c) -> (...).

    Computed from the moduli divided by their maximum, so it neither
    overflows nor underflows; a 1 x 1 matrix is its modulus.
    """
    x = np.abs(ms).reshape(ms.shape[:-2] + (-1,))
    if x.shape[-1] == 1:
        return x[..., 0]
    s = np.maximum(x.max(axis=-1), _TINY)
    return s * np.sqrt(np.square(x / s[..., None]).sum(axis=-1))


def _scaled(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a, s)`` with ``ms = s * a`` per matrix, s the largest |entry| (``_TINY`` for a zero matrix).

    The entries of ``a`` have modulus at most 1, so the Gram entries formed
    from them can neither overflow nor underflow to zero.
    """
    s = np.maximum(np.abs(ms).max(axis=(-2, -1)), _TINY)
    return ms / s[..., None, None], s


def _row_norms_sq(a: np.ndarray) -> np.ndarray:
    return (np.square(a.real) + np.square(a.imag)).sum(axis=-1)


def _top_sval(ms: np.ndarray) -> np.ndarray:
    """Largest singular value over the leading axes of a stack: (..., r, c) -> (...).

    A single row or column has one singular value, its Euclidean norm.  For
    a shorter side of 2, turned into the rows a_0, a_1 of the scaled matrix,
    it is the top eigenvalue of the Gram matrix [[d_0, o], [conj(o), d_1]]
    (d_i = ||a_i||^2, o = sum a_0 conj(a_1)) in the cancellation-free form
    sigma^2 = (d_0 + d_1)/2 + hypot((d_0 - d_1)/2, |o|); the discriminant form
    with F^4 - 4|det|^2 loses about half its digits at equal singular values.
    Longer sides go to LAPACK.  On the closed-form shapes a non-finite entry
    gives a NaN norm (inf for a 1 x 1 inf) rather than an error.
    """
    r, c = ms.shape[-2:]
    if min(r, c) == 1:
        return _vector_norm(ms)
    if min(r, c) > 2:
        return np.linalg.svd(ms, compute_uv=False)[..., 0]
    if r > c:
        ms = np.swapaxes(ms, -1, -2)  # the transpose has the same singular values
    a, s = _scaled(ms)
    d = _row_norms_sq(a)
    d0, d1 = d[..., 0], d[..., 1]
    o = np.abs((a[..., 0, :] * np.conj(a[..., 1, :])).sum(axis=-1))
    return s * np.sqrt(0.5 * (d0 + d1) + np.hypot(0.5 * (d0 - d1), o))


def _sval_sum(ms: np.ndarray) -> np.ndarray:
    """Sum of the singular values over the leading axes of a stack: (..., r, c) -> (...).

    A single row or column has one singular value, its Euclidean norm.  For
    2 x 2 matrices (sigma_1 + sigma_2)^2 = ||a||_F^2 + 2|det a|, a sum of
    non-negative terms.  Other shapes go to LAPACK: for 2 x c with c > 2,
    sigma_1 sigma_2 = sqrt(det G) would lose half its digits near rank one.
    On the closed-form shapes a non-finite entry gives a NaN norm (inf for a
    1 x 1 inf) rather than an error.
    """
    r, c = ms.shape[-2:]
    if min(r, c) == 1:
        return _vector_norm(ms)
    if (r, c) != (2, 2):
        return np.linalg.svd(ms, compute_uv=False).sum(axis=-1)
    a, s = _scaled(ms)
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return s * np.sqrt(_row_norms_sq(a).sum(axis=-1) + 2.0 * np.abs(det))


def _fibers_if(ms, fiber: int | None):
    """Per-fiber small matrices (..., fiber, br, bc) when ``fiber`` divides both sides, else None."""
    if fiber and fiber > 1 and ms.shape[-2] % fiber == 0 and ms.shape[-1] % fiber == 0:
        return _fibered_diagonal(ms, fiber)
    return None


def op_norm_stack(ms, fiber: int | None = None) -> np.ndarray:
    """Operator norms over the leading axes of a matrix stack.

    ``fiber`` enables the direct-sum fast path for matrices that are diagonal
    at block size ``fiber`` (the values are identical either way).
    """
    ms = np.asarray(ms, dtype=np.complex128)
    small = _fibers_if(ms, fiber)
    if small is None:
        return np.asarray(_top_sval(ms))
    return np.asarray(_top_sval(small).max(axis=-1))


def trace_norm_stack(ms, fiber: int | None = None) -> np.ndarray:
    """Trace norms over the leading axes of a matrix stack."""
    ms = np.asarray(ms, dtype=np.complex128)
    small = _fibers_if(ms, fiber)
    if small is None:
        return np.asarray(_sval_sum(ms))
    return np.asarray(_sval_sum(small).sum(axis=-1))


def op_norm_fibers(ms) -> np.ndarray:
    """Operator norms of direct sums given as per-fiber stacks (..., g, a, b) -> (...)."""
    return np.asarray(_top_sval(np.asarray(ms, dtype=np.complex128)).max(axis=-1))


# the norms norm_cotangent_stack differentiates, named after the functions
# above ("trace_norm" is also the level1-oracle name of the trace norm)
_COTANGENT_NORMS = ("op_norm", "trace_norm", "op_norm_fibers")


def norm_cotangent_stack(ms, norm: str = "op_norm") -> tuple[np.ndarray, np.ndarray]:
    """Norms over the leading axes of a matrix stack, with a cotangent of each.

    The cotangent W of the norm at M is a subgradient in the real inner
    product Re<W, D> = Re sum(conj(W) * D): ||M + D|| = ||M|| + Re<W, D> + o(D)
    wherever the norm is differentiable (the subdifferential of the spectral
    norm, Watson 1992).  ``norm`` selects

    * ``"op_norm"``: (..., r, c) -> (...), W = u v^H for a top singular pair;
    * ``"trace_norm"``: (..., r, c) -> (...), W = U V^H, the polar factor;
    * ``"op_norm_fibers"``: per-fiber stacks (..., g, a, b) -> (...), the norm
      of their direct sum, with u v^H in the arg-max fiber and zeros in the
      others (ties go to the first fiber).

    Returns ``(norms, W)`` with W shaped like ``ms``.
    """
    if norm not in _COTANGENT_NORMS:
        raise InvalidInputError(f"unknown norm {norm!r}; expected one of {_COTANGENT_NORMS}")
    ms = np.asarray(ms, dtype=np.complex128)
    if ms.shape[-1] == 1 or ms.shape[-2] == 1:
        # a single row or column has one singular value: its Euclidean norm
        sv = np.sqrt((np.abs(ms) ** 2).sum(axis=(-1, -2)))
        W = ms / np.where(sv > 0, sv, 1.0)[..., None, None]
        norms = sv
    else:
        U, sv, Vh = np.linalg.svd(ms, full_matrices=False)
        if norm == "trace_norm":
            W = U @ Vh
            norms = sv.sum(axis=-1)
        else:
            W = U[..., :, :1] * Vh[..., :1, :]
            norms = sv[..., 0]
    if norm == "op_norm_fibers":
        top = np.argmax(norms, axis=-1)
        W = W * (np.arange(ms.shape[-3]) == top[..., None])[..., None, None]
        norms = np.take_along_axis(norms, top[..., None], axis=-1)[..., 0]
    return np.asarray(norms), W
