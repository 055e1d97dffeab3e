"""Dense complex matrix arithmetic: norms, block assembly, amplification, seeded sampling.

Matrices are plain ``numpy.ndarray`` objects with ``dtype=complex128`` and two
axes.  The "stack" variants accept any number of leading batch axes and are the
workhorses behind the counterexample search, where thousands of small norms are
evaluated per ascent step.

Most of those matrices have a side of at most two (level-1 elements and
gadgets of spaces in M_2, and the small blocks of direct sums), where
one LAPACK call per matrix costs far more than the arithmetic.  So
``op_norm_stack``, ``op_norm_fibers`` and ``trace_norm_stack`` take the largest
singular value in closed form when the shorter side is 1 or 2, and the trace
norm when the matrix is a single row or column or exactly 2 x 2.  Larger
matrices take their largest singular value from the top eigenvalue of the
Gram matrix (``np.linalg.eigvalsh``), cheaper than a values-only SVD on
stacks, and their trace norm from ``np.linalg.svd``.  The closed forms and
the Gram route scale each matrix by its largest |entry| first, so they hold
from 1e-300 to 1e300.  The single-matrix ``op_norm``/``trace_norm`` are the
same kernels on a stack of one, so a matrix has one norm whichever way it is
measured.  ``norm_cotangent_stack`` follows the closed-form split: the top
singular pair for a shorter side of 1 or 2 and the polar factor of a single
row or column or a 2 x 2 matrix come in closed form, with the norms of the
value kernels, and every other shape (the trace norm of 2 x c with c > 2
among them) goes to LAPACK with singular vectors.

The closed forms run on stacks of one to a few thousand small matrices, and
numpy reduces over a short axis one matrix at a time, at a cost far above
the arithmetic's.  So no closed form reduces over an axis of at most 8
entries: a max is a chain of ``np.maximum`` over the entries (exact in any
order), a sum over an axis of length 2 is one add, the 2 x 2 adjugate is a
flipped view with its off-diagonal negated by ``np.negative``, u v^H is an
outer-product broadcast, and ``gadgets.four_rotation_stack_adjoint`` picks
its rotation by direct indexing.  A sum of three or more terms stays
``np.sum``: its order of addition depends on the loop numpy picks, so
explicit adds would move last bits.  No negation is written as a product
with -1, since a complex product can flip the sign of a zero.  So every norm
and cotangent is, byte for byte, what the reductions gave.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ShapeError

__all__ = [
    "as_cmat",
    "as_cstack",
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


def as_cstack(m, check_finite: bool = True) -> np.ndarray:
    """Coerce to a complex128 stack of matrices (..., r, c), rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise ShapeError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape[-2:]}")
    if check_finite and not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix has non-finite entries")
    return a


def as_cmat(m, check_finite: bool = True) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    ndim = np.ndim(m)
    if ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={ndim}")
    return as_cstack(m, check_finite)


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(op_norm_stack(as_cmat(m)))


def trace_norm(m) -> float:
    """Trace norm: the sum of singular values."""
    return float(trace_norm_stack(as_cmat(m)))


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
    """Block-diagonal matrices with ``n`` copies of each m of a stack (..., p, q) -> (..., np, nq).

    The amplification leaves the operator norm unchanged.
    """
    a = as_cstack(m, check_finite=False)
    if n < 1:
        raise InvalidInputError("amplification level must be positive")
    if n == 1:
        return a.copy()
    p, q = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (n * p, n * q), dtype=np.complex128)
    for i in range(n):
        out[..., i * p : (i + 1) * p, i * q : (i + 1) * q] = a
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


# the most entries a max takes as a chain of np.maximum rather than one reduction
_CHAIN = 8


def _max_of(cols) -> np.ndarray:
    """The elementwise maximum of equally shaped arrays, as one chain of ``np.maximum``.

    A max is exact in any order and NaN wins every comparison, so the chain
    has the value of the reduction, NaN included.
    """
    m = cols[0]
    for col in cols[1:]:
        m = np.maximum(m, col)
    return m


def _max_last(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)``, as a chain over the entries when there are at most ``_CHAIN``."""
    n = x.shape[-1]
    return x.max(axis=-1) if n > _CHAIN else _max_of([x[..., k] for k in range(n)])


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` of non-negative terms: one add over a length-2 axis, ``np.sum`` over longer ones."""
    if x.shape[-1] == 2:
        return x[..., 0] + x[..., 1]
    return x.sum(axis=-1)


def _vector_norm(ms: np.ndarray) -> np.ndarray:
    """Euclidean norm of each matrix of a stack with one row or one column: (..., r, c) -> (...).

    Computed from the moduli divided by their maximum, so it neither
    overflows nor underflows; a 1 x 1 matrix is its modulus.
    """
    x = np.abs(ms).reshape(ms.shape[:-2] + (-1,))
    if x.shape[-1] == 1:
        return x[..., 0]
    s = np.maximum(_max_last(x), _TINY)
    return s * np.sqrt(_sum_last(np.square(x / s[..., None])))


def _scaled(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a, s)`` with ``ms = s * a`` per matrix, s the largest |entry| (``_TINY`` for a zero matrix).

    The entries of ``a`` have modulus at most 1, so the Gram entries formed
    from them can neither overflow nor underflow to zero.
    """
    x = np.abs(ms)
    r, c = x.shape[-2:]
    if r * c > _CHAIN:
        s = x.max(axis=(-2, -1))
    else:
        s = _max_of([x[..., i, j] for i in range(r) for j in range(c)])
    s = np.maximum(s, _TINY)
    return ms / s[..., None, None], s


def _row_norms_sq(a: np.ndarray) -> np.ndarray:
    return _sum_last(np.square(a.real) + np.square(a.imag))


def _gram_top(ms: np.ndarray):
    """The top eigenvalue of the Gram matrix of a stack with shorter side 2, in scaled units.

    Returns ``(a, s, half, o, ao, h, lam)``: the scaled matrix ``a`` turned
    into its two rows a_0, a_1 (transposed when r > c) and its scale ``s``;
    the Gram matrix [[d_0, o], [conj(o), d_1]] (d_i = ||a_i||^2,
    o = sum a_0 conj(a_1)) through ``half`` = (d_0 - d_1)/2, ``o``, ``ao`` = |o|
    and ``h`` = hypot(half, |o|); and its top eigenvalue ``lam`` = (d_0 + d_1)/2 + h,
    a sum of non-negative terms.  The discriminant form with
    F^4 - 4|det|^2 loses about half its digits at equal singular values.
    """
    if ms.shape[-2] > ms.shape[-1]:
        ms = np.swapaxes(ms, -1, -2)  # the transpose has the same singular values
    a, s = _scaled(ms)
    d = _row_norms_sq(a)
    d0, d1 = d[..., 0], d[..., 1]
    half = 0.5 * (d0 - d1)
    p = a[..., 0, :] * np.conj(a[..., 1, :])
    # np.sum adds from +0, so two -0 parts sum to +0 there; the 0.0 does the same here
    o = p[..., 0] + p[..., 1] + 0.0 if p.shape[-1] == 2 else p.sum(axis=-1)
    ao = np.abs(o)
    h = np.hypot(half, ao)
    return a, s, half, o, ao, h, 0.5 * (d0 + d1) + h


def _zero_non_finite(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ms, bad)``: the stack with every matrix that holds a NaN or inf replaced by zeros, and where they were.

    LAPACK raises on a non-finite entry; the callers put NaN back at ``bad``,
    so such a matrix gets a NaN norm on every shape, as on the closed forms.
    """
    bad = ~np.isfinite(ms).all(axis=(-2, -1))
    if bad.any():
        ms = np.where(bad[..., None, None], 0.0, ms)
    return ms, bad


def _top_sval(ms: np.ndarray) -> np.ndarray:
    """Largest singular value over the leading axes of a stack: (..., r, c) -> (...).

    A single row or column has one singular value, its Euclidean norm.  For
    a shorter side of 2 it is the square root of the top eigenvalue of the
    Gram matrix of the scaled rows (``_gram_top``).  When both sides exceed
    2, the matrix is transposed so that its shorter side m comes first and
    scaled by its largest |entry| (``_scaled``); the m x m Gram matrix a a^H
    then has entries of modulus at most c, and its top eigenvalue from
    ``eigvalsh`` is accurate relative to itself (Demmel 1997, section 5.2), so
    s sqrt(lambda_max) is within a few ulps of LAPACK's sigma_1 at any scale.
    A non-finite entry gives a NaN norm (inf for a 1 x 1 inf) rather than an
    error.
    """
    r, c = ms.shape[-2:]
    if min(r, c) == 1:
        return _vector_norm(ms)
    if min(r, c) == 2:
        _, s, *_, lam = _gram_top(ms)
        return s * np.sqrt(lam)
    if r > c:
        ms = np.swapaxes(ms, -1, -2)  # the transpose has the same singular values
    ms, bad = _zero_non_finite(ms)
    a, s = _scaled(ms)
    lam = np.linalg.eigvalsh(a @ dagger(a))[..., -1]
    return np.where(bad, np.nan, s * np.sqrt(np.maximum(lam, 0.0)))


def _top_pair(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest singular value and W = u v^H for a top singular pair, for a shorter side of 2.

    u is the top eigenvector of the Gram matrix of ``_gram_top``, taken as
    (lam - d_1, conj(o)) when d_0 >= d_1 and as (o, lam - d_0) otherwise, so
    that its leading component is a sum of non-negative terms (e_0 when both
    components vanish: equal singular values, any u is a top one); then
    v^H = u^H a / ||u^H a|| and W = u v^H, zero at a zero matrix.
    """
    a, s, half, o, ao, h, lam = _gram_top(ms)
    first = half >= 0
    lead = h + np.abs(half)  # half + h when d_0 >= d_1, else h - half
    un = np.hypot(lead, ao)  # ||u||, hypot being symmetric
    live = un > 0
    un = np.where(live, un, 1.0)
    u = np.empty(un.shape + (2, 1), dtype=np.complex128)
    u[..., 0, 0] = np.where(live, np.where(first, lead, o) / un, 1.0)
    u[..., 1, 0] = np.where(live, np.where(first, np.conj(o), lead) / un, 0.0)
    y = np.conj(u) * a
    y = y[..., 0, :] + y[..., 1, :]  # u^H a
    yn = np.sqrt(_row_norms_sq(y))
    vh = y / np.where(yn > 0, yn, 1.0)[..., None]
    W = u * vh[..., None, :]
    if ms.shape[-2] > ms.shape[-1]:
        W = np.swapaxes(W, -1, -2)
    return s * np.sqrt(lam), W


def _sval_sum_2x2(ms: np.ndarray):
    """``(a, s, det, adet, total)`` of 2 x 2 stacks: scaled matrix, scale, det a, |det a|, sigma_1 + sigma_2.

    The singular values are those of ``a``: (sigma_1 + sigma_2)^2 =
    ||a||_F^2 + 2|det a|, a sum of non-negative terms.
    """
    a, s = _scaled(ms)
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    d = _row_norms_sq(a)
    adet = np.abs(det)
    return a, s, det, adet, np.sqrt(d[..., 0] + d[..., 1] + 2.0 * adet)


def _sval_sum(ms: np.ndarray) -> np.ndarray:
    """Sum of the singular values over the leading axes of a stack: (..., r, c) -> (...).

    A single row or column has one singular value, its Euclidean norm; 2 x 2
    matrices take ``_sval_sum_2x2``.  Other shapes go to LAPACK: for 2 x c
    with c > 2, sigma_1 sigma_2 = sqrt(det G) would lose half its digits near
    rank one.  A non-finite entry gives a NaN norm (inf for a 1 x 1 inf)
    rather than an error.
    """
    r, c = ms.shape[-2:]
    if min(r, c) == 1:
        return _vector_norm(ms)
    if (r, c) != (2, 2):
        ms, bad = _zero_non_finite(ms)
        return np.where(bad, np.nan, np.linalg.svd(ms, compute_uv=False).sum(axis=-1))
    _, s, _, _, total = _sval_sum_2x2(ms)
    return s * total


def _polar_2x2(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace norm and polar factor U V^H of 2 x 2 stacks.

    With phi = det a / |det a| (1 when det a = 0), phi adj(a)^H =
    |det a| U diag(1/sigma_1, 1/sigma_2) V^H = U diag(sigma_2, sigma_1) V^H,
    so U V^H = (a + phi adj(a)^H) / (sigma_1 + sigma_2); at det a = 0 this is
    u_1 v_1^H plus a unit multiple of u_2 v_2^H, still a subgradient.  Zero
    at a zero matrix.
    """
    a, s, det, adet, total = _sval_sum_2x2(ms)
    live = adet > 0
    phi = np.where(live, det / np.where(live, adet, 1.0), 1.0)
    adj_h = np.conj(a[..., ::-1, ::-1])  # [[a_11, a_10], [a_01, a_00]]^*, off-diagonal not yet negated
    np.negative(adj_h[..., 0, 1], out=adj_h[..., 0, 1])
    np.negative(adj_h[..., 1, 0], out=adj_h[..., 1, 0])
    W = (a + phi[..., None, None] * adj_h) / np.where(total > 0, total, 1.0)[..., None, None]
    return s * total, W


def _fibers_if(ms, fiber: int | None):
    """Per-fiber small matrices (..., fiber, br, bc) when ``fiber`` divides both sides, else None."""
    if fiber and fiber > 1 and ms.shape[-2] % fiber == 0 and ms.shape[-1] % fiber == 0:
        return _fibered_diagonal(ms, fiber)
    return None


def op_norm_stack(ms, fiber: int | None = None) -> np.ndarray:
    """Operator norms over the leading axes of a matrix stack.

    Every shape goes through ``_top_sval``: closed forms for a shorter side
    of 1 or 2, the top eigenvalue of the scaled Gram matrix otherwise; no
    shape runs an SVD.  ``fiber`` enables the direct-sum fast path for
    matrices that are diagonal at block size ``fiber`` (the values are
    identical either way).  The package itself passes no ``fiber``: each
    space splits into blocks once, at load (``spaces.SpaceRep.blocks``), and
    measures them with ``op_norm_fibers``.
    """
    ms = np.asarray(ms, dtype=np.complex128)
    small = _fibers_if(ms, fiber)
    if small is None:
        return np.asarray(_top_sval(ms))
    return np.asarray(_max_last(_top_sval(small)))


def trace_norm_stack(ms, fiber: int | None = None) -> np.ndarray:
    """Trace norms over the leading axes of a matrix stack."""
    ms = np.asarray(ms, dtype=np.complex128)
    small = _fibers_if(ms, fiber)
    if small is None:
        return np.asarray(_sval_sum(ms))
    return np.asarray(_sval_sum(small).sum(axis=-1))


def op_norm_fibers(ms) -> np.ndarray:
    """Operator norms of direct sums given as per-fiber stacks (..., g, a, b) -> (...)."""
    return np.asarray(_max_last(_top_sval(np.asarray(ms, dtype=np.complex128))))


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

    Where the value kernels above have a closed form, so does W (``_top_pair``,
    ``_polar_2x2``; a single row or column is its own direction), and the
    norms are theirs bit for bit; other shapes take LAPACK's singular vectors
    and singular values, which agree with the value kernels to a few ulps.
    W is 0 at a zero matrix on every shape (0 lies in the subdifferential
    there), not the arbitrary vectors LAPACK returns for sigma = 0.
    Returns ``(norms, W)`` with W shaped like ``ms``.
    """
    if norm not in _COTANGENT_NORMS:
        raise InvalidInputError(f"unknown norm {norm!r}; expected one of {_COTANGENT_NORMS}")
    ms = np.asarray(ms, dtype=np.complex128)
    r, c = ms.shape[-2:]
    if min(r, c) == 1:
        # a single row or column has one singular value: its Euclidean norm
        norms = _vector_norm(ms)
        W = ms / np.where(norms > 0, norms, 1.0)[..., None, None]
    elif norm == "trace_norm" and (r, c) == (2, 2):
        norms, W = _polar_2x2(ms)
    elif norm != "trace_norm" and min(r, c) == 2:
        norms, W = _top_pair(ms)
    else:
        U, sv, Vh = np.linalg.svd(ms, full_matrices=False)
        if norm == "trace_norm":
            W = U @ Vh
            norms = sv.sum(axis=-1)
        else:
            W = U[..., :, :1] * Vh[..., :1, :]
            norms = sv[..., 0]
        W = np.where((norms == 0)[..., None, None], 0.0, W)
    if norm == "op_norm_fibers":
        top = np.argmax(norms, axis=-1)
        W = W * (np.arange(ms.shape[-3]) == top[..., None])[..., None, None]
        norms = _max_last(norms)
    return np.asarray(norms), W
