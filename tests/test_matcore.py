import math

import numpy as np
import pytest

from opspace import gadgets, matcore
from opspace.errors import InvalidInputError, ShapeError

I2 = np.eye(2, dtype=complex)


def test_op_norm_identity():
    assert matcore.op_norm(I2) == pytest.approx(1.0, abs=1e-14)


def test_op_norm_single_singular_value():
    assert matcore.op_norm([[0, 2], [0, 0]]) == pytest.approx(2.0, abs=1e-14)


def test_op_norm_jordan_block_against_closed_form_and_power_iteration():
    m = np.array([[1, 1], [0, 1]], dtype=complex)
    # eigenvalues of m^H m = [[1,1],[1,2]] by the quadratic formula
    lam_max = (3 + math.sqrt(5)) / 2
    want = math.sqrt(lam_max)
    assert want == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)
    # independent cross-check: power iteration on m^H m
    h = matcore.dagger(m) @ m
    v = np.array([1.0, 1.0], dtype=complex)
    for _ in range(200):
        v = h @ v
        v /= np.linalg.norm(v)
    power = math.sqrt(float(np.real(np.vdot(v, h @ v))))
    assert power == pytest.approx(want, abs=1e-12)
    assert matcore.op_norm(m) == pytest.approx(want, abs=1e-12)


def test_op_norm_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        matcore.op_norm([[np.nan, 0], [0, 1]])
    with pytest.raises(InvalidInputError):
        matcore.op_norm([[np.inf, 0], [0, 1]])


def test_trace_norm_positive_diagonal():
    assert matcore.trace_norm(np.diag([0.6, 0.4])) == pytest.approx(1.0, abs=1e-14)


def test_trace_norm_perturbed_diagonal_against_trace_det_identities():
    b = np.diag([0.6, 0.4]).astype(complex)
    b[1, 0] = 0.25
    # sum of singular values from trace(c) and det(c) of c = b^H b:
    # (sqrt(r) + sqrt(s))^2 = trace(c) + 2 sqrt(det(c))
    c = matcore.dagger(b) @ b
    tr = float(np.real(np.trace(c)))
    det = float(np.real(np.linalg.det(c)))
    want = math.sqrt(tr + 2 * math.sqrt(det))
    assert tr == pytest.approx(0.6**2 + 0.4**2 + 0.25**2, abs=1e-14)
    assert det == pytest.approx((0.6 * 0.4) ** 2, abs=1e-14)
    assert want == pytest.approx(math.sqrt(1.0625), abs=1e-12)
    assert matcore.trace_norm(b) == pytest.approx(want, abs=1e-12)


def test_trace_norm_zero():
    assert matcore.trace_norm(np.zeros((3, 2))) == 0.0


def test_dagger_examples():
    m = np.array([[1j, 0], [0, 0]])
    assert np.allclose(matcore.dagger(m), [[-1j, 0], [0, 0]])
    sym = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex)
    assert np.allclose(matcore.dagger(sym), sym)
    rng = matcore.stream(11, 0)
    r = matcore.rand_cmat(4, 3, rng)
    assert np.allclose(matcore.dagger(matcore.dagger(r)), r)
    assert matcore.op_norm(matcore.dagger(r)) == pytest.approx(matcore.op_norm(r), abs=1e-12)


def test_block_single_and_identity():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(matcore.block([[a]]), a)
    z = np.zeros((2, 2))
    assert np.allclose(matcore.block([[I2, z], [z, I2]]), np.eye(4))


def test_block_ragged_raises():
    with pytest.raises(ShapeError):
        matcore.block([[np.zeros((2, 2)), np.zeros((3, 2))]])
    with pytest.raises(ShapeError):
        matcore.block([[np.zeros((2, 2))], [np.zeros((2, 3))]])


def test_block_sum_diff_identity_random():
    for t in range(20):
        rng = matcore.stream(23, t)
        a = matcore.rand_cmat(3, 3, rng)
        b = matcore.rand_cmat(3, 3, rng)
        lhs = matcore.op_norm(matcore.block([[a, b], [b, a]]))
        rhs = max(matcore.op_norm(a + b), matcore.op_norm(a - b))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_scalar_amplify():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(matcore.scalar_amplify(m, 1), m)
    assert np.allclose(matcore.scalar_amplify(I2, 3), np.eye(6))
    rng = matcore.stream(7, 0)
    r = matcore.rand_cmat(3, 4, rng)
    assert matcore.op_norm(matcore.scalar_amplify(r, 4)) == pytest.approx(
        matcore.op_norm(r), abs=1e-12
    )


def test_rand_cmat_determinism_and_distinctness():
    a = matcore.rand_cmat(3, 3, matcore.stream(5, 1))
    b = matcore.rand_cmat(3, 3, matcore.stream(5, 1))
    assert np.array_equal(a, b)
    c = matcore.rand_cmat(3, 3, matcore.stream(5, 2))
    assert not np.allclose(a, c)


def test_rand_cmat_normalized():
    m = matcore.rand_cmat(2, 2, matcore.stream(5, 3))
    m = m / matcore.op_norm(m)
    assert matcore.op_norm(m) == pytest.approx(1.0, abs=1e-12)


def test_cstar_identity_500_random():
    worst = 0.0
    for t in range(500):
        rng = matcore.stream(31, t)
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = matcore.rand_cmat(rows, cols, rng)
        nm = matcore.op_norm(m)
        dev = abs(nm**2 - matcore.op_norm(matcore.dagger(m) @ m))
        worst = max(worst, dev / (1 + nm**2))
    assert worst <= 1e-9


def test_sum_diff_and_rotation_identities_200_pairs():
    worst1 = worst2 = 0.0
    for t in range(200):
        rng = matcore.stream(32, t)
        a = matcore.rand_cmat(3, 3, rng)
        b = matcore.rand_cmat(3, 3, rng)
        lhs1 = matcore.op_norm(matcore.block([[a, b], [b, a]]))
        rhs1 = max(matcore.op_norm(a + b), matcore.op_norm(a - b))
        worst1 = max(worst1, abs(lhs1 - rhs1))
        lhs2 = matcore.op_norm(matcore.block([[a, -b], [b, a]]))
        rhs2 = max(matcore.op_norm(a + 1j * b), matcore.op_norm(a - 1j * b))
        worst2 = max(worst2, abs(lhs2 - rhs2))
    assert worst1 <= 1e-9
    assert worst2 <= 1e-9


def test_trace_norm_dominates_op_norm_and_zero_characterization():
    for t in range(50):
        rng = matcore.stream(33, t)
        m = matcore.rand_cmat(4, 4, rng)
        assert matcore.trace_norm(m) >= matcore.op_norm(m) - 1e-12
        assert matcore.op_norm(m) > 1e-12
    z = np.zeros((4, 4))
    assert matcore.op_norm(z) <= 1e-12
    assert matcore.trace_norm(z) <= 1e-12


def test_fibered_norms_match_dense():
    rng = matcore.stream(34, 0)
    for p, q, g in [(6, 6, 3), (8, 4, 2), (6, 6, 2)]:
        m = np.zeros((4, p, q), dtype=complex)
        grid = m.reshape(4, p // g, g, q // g, g)
        for b in range(4):
            for i in range(p // g):
                for j in range(q // g):
                    grid[b, i, :, j, :] += np.diag(rng.normal(size=g) + 1j * rng.normal(size=g))
        assert np.allclose(matcore.op_norm_stack(m, fiber=g), matcore.op_norm_stack(m), atol=1e-10)
        assert np.allclose(
            matcore.trace_norm_stack(m, fiber=g), matcore.trace_norm_stack(m), atol=1e-10
        )


# ---------------------------------------------------------------------------
# the stack kernels against LAPACK: closed forms for a shorter side of 1 or 2
# (and 2x2 trace norms), LAPACK for 3x3

KERNEL_SHAPES = [(1, 5), (5, 1), (2, 2), (2, 7), (7, 2), (3, 3)]


def kernel_cases(shape):
    """Named (N, r, c) stacks at one shape: random, plus the degenerate cases of a 2x2 closed form."""
    rng = matcore.stream(35, *shape)
    r, c = shape
    cases = {"random": np.stack([matcore.rand_cmat(r, c, rng) for _ in range(40)])}
    if shape == (2, 2):
        # equal singular values (scaled unitaries) and rank one plus 1e-9 noise
        q = np.stack([np.linalg.qr(matcore.rand_cmat(2, 2, rng))[0] for _ in range(40)])
        cases["unitary"] = q * rng.uniform(0.5, 2.0, size=(40, 1, 1))
        cases["rank_one"] = np.stack([
            matcore.rand_cmat(2, 1, rng) @ matcore.rand_cmat(1, 2, rng) + 1e-9 * matcore.rand_cmat(2, 2, rng)
            for _ in range(40)
        ])
    return cases


def lapack_norms(ms):
    sv = np.linalg.svd(ms, compute_uv=False)
    return sv[..., 0], sv.sum(axis=-1)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_stack_norms_match_lapack(shape, scale):
    for name, ms in kernel_cases(shape).items():
        ms = ms * scale
        op_want, tr_want = lapack_norms(ms)
        assert np.allclose(matcore.op_norm_stack(ms), op_want, rtol=1e-14, atol=0), name
        assert np.allclose(matcore.trace_norm_stack(ms), tr_want, rtol=1e-14, atol=0), name
        # the same matrices as the fibers of a direct sum: (N, g=2, r, c) with two copies
        fibers = np.stack([ms, ms[::-1]], axis=1)
        want = np.maximum(op_want, op_want[::-1])
        assert np.allclose(matcore.op_norm_fibers(fibers), want, rtol=1e-14, atol=0), name


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (2, 5), (3, 3), (4, 4)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_single_matrix_norms_are_the_stack_kernels(shape):
    # one kernel per norm: a matrix measured alone or in a stack of one gets the same bits
    rng = matcore.stream(37, *shape)
    for _ in range(20):
        m = matcore.rand_cmat(*shape, rng)
        assert matcore.op_norm(m) == matcore.op_norm_stack(m[None])[0]
        assert matcore.trace_norm(m) == matcore.trace_norm_stack(m[None])[0]


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_fibered_kernels_match_lapack_on_each_fiber(scale):
    # g-fibered (N, 2g, 2g) matrices: each fiber is a 2x2 matrix, so the fiber= path runs the closed forms
    rng = matcore.stream(36, 0)
    g = 3
    small = np.stack([matcore.rand_cmat(2, 2, rng) for _ in range(20 * g)]).reshape(20, g, 2, 2) * scale
    ms = np.zeros((20, 2 * g, 2 * g), dtype=complex)
    for f in range(g):
        ms[:, f::g, f::g] = small[:, f]
    op_want, tr_want = lapack_norms(small)
    assert np.allclose(matcore.op_norm_stack(ms, fiber=g), op_want.max(axis=-1), rtol=1e-14, atol=0)
    assert np.allclose(matcore.trace_norm_stack(ms, fiber=g), tr_want.sum(axis=-1), rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# the Gram route for both sides > 2: the top eigenvalue of the scaled Gram
# matrix against LAPACK's largest singular value

GRAM_SHAPES = [(3, 3), (4, 4), (3, 5), (5, 3), (6, 12), (12, 6), (12, 48), (48, 12)]


def gram_cases(shape):
    """Named (N, r, c) stacks: Gaussian, rank one, all singular values equal, columns graded over 1e-12."""
    rng = matcore.stream(38, *shape)
    r, c = shape
    m = min(r, c)

    def draw(rows, cols):
        return np.stack([matcore.rand_cmat(rows, cols, rng) for _ in range(20)])

    # orthonormal columns (r >= c) or rows (r < c) times a scale: m equal singular values
    q = np.linalg.qr(draw(max(r, c), m))[0]
    equal = q if r >= c else np.swapaxes(q, -1, -2)
    return {
        "gaussian": draw(r, c),
        "rank_one": draw(r, 1) @ draw(1, c),
        "equal": equal * rng.uniform(0.5, 2.0, size=(20, 1, 1)),
        "graded": draw(r, c) * np.logspace(0, -12, c),
    }


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("shape", GRAM_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_gram_route_matches_lapack(shape, scale):
    for name, ms in gram_cases(shape).items():
        ms = ms * scale
        want = np.linalg.svd(ms, compute_uv=False)[..., 0]
        assert np.allclose(matcore.op_norm_stack(ms), want, rtol=1e-14, atol=0), name


@pytest.mark.parametrize("shape", KERNEL_SHAPES + [(1, 1)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_zero_matrices_have_norm_exactly_zero(shape):
    z = np.zeros((3,) + shape, dtype=complex)
    assert np.array_equal(matcore.op_norm_stack(z), np.zeros(3))
    assert np.array_equal(matcore.trace_norm_stack(z), np.zeros(3))
    assert np.array_equal(matcore.op_norm_fibers(z[None]), np.zeros(1))


# ---------------------------------------------------------------------------
# norm_cotangent_stack against LAPACK: closed forms for the top singular pair
# at a shorter side of 1 or 2 and for the 2x2 polar factor, LAPACK otherwise

COTANGENT_SHAPES = [(1, 5), (5, 1), (2, 2), (2, 5), (5, 2), (3, 3)]
CLOSED_FORM_SHAPES = [(1, 1), (1, 5), (5, 1), (2, 2), (2, 5), (5, 2)]


def lapack_cotangents(ms, norm):
    """(norms, W, singular values) from LAPACK: W = u v^H (op_norm) or U V^H (trace_norm)."""
    U, sv, Vh = np.linalg.svd(ms, full_matrices=False)
    if norm == "trace_norm":
        return sv.sum(axis=-1), U @ Vh, sv
    return sv[..., 0], U[..., :, :1] * Vh[..., :1, :], sv


def dual_norm(W, norm):
    """The dual of the differentiated norm: the trace norm of u v^H, the operator norm of U V^H."""
    sv = np.linalg.svd(W, compute_uv=False)
    return sv.sum(axis=-1) if norm == "op_norm" else sv[..., 0]


def inner(W, ms):
    return np.real(np.conj(W) * ms).sum(axis=(-2, -1))


def well_determined(sv, norm):
    """Where W is unique and well conditioned: a singular gap for u v^H, a smallest singular value for U V^H."""
    if sv.shape[-1] == 1:
        return sv[..., 0] > 0
    if norm == "op_norm":
        return sv[..., 0] - sv[..., 1] > 1e-6 * sv[..., 0]
    return sv[..., -1] > 1e-6 * sv[..., 0]


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("norm", ["op_norm", "trace_norm"])
@pytest.mark.parametrize("shape", COTANGENT_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_cotangents_match_lapack(shape, norm, scale):
    for name, ms in kernel_cases(shape).items():
        ms = ms * scale
        norms, W = matcore.norm_cotangent_stack(ms, norm)
        want, W_want, sv = lapack_cotangents(ms, norm)
        assert W.shape == ms.shape
        assert np.allclose(norms, want, rtol=1e-14, atol=0), name
        if min(shape) == 1 or shape == (2, 2) or (norm == "op_norm" and min(shape) == 2):
            # a closed form: the value kernel's bits
            value = matcore.op_norm_stack if norm == "op_norm" else matcore.trace_norm_stack
            assert np.array_equal(norms, value(ms)), name
        # W is a subgradient: it attains the norm and lies in the dual unit ball
        assert np.allclose(inner(W, ms), want, rtol=1e-14, atol=0), name
        assert (dual_norm(W, norm) <= 1 + 1e-14).all(), name
        sure = well_determined(sv, norm)
        assert np.abs(W - W_want).max(axis=(-2, -1))[sure].max(initial=0.0) <= 1e-12, name
        if name == "random":
            assert sure.all()


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("shape", COTANGENT_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_fiber_cotangents_sit_in_the_arg_max_fiber(shape, scale):
    for name, ms in kernel_cases(shape).items():
        ms = ms * scale
        # the same matrices as the fibers of a direct sum: (N, g=2, r, c) with two copies
        fibers = np.stack([ms, ms[::-1]], axis=1)
        norms, W = matcore.norm_cotangent_stack(fibers, "op_norm_fibers")
        assert np.allclose(norms, matcore.op_norm_fibers(fibers), rtol=1e-14, atol=0), name
        if min(shape) <= 2:  # the closed forms give the value kernel's bits
            assert np.array_equal(norms, matcore.op_norm_fibers(fibers)), name
        assert np.allclose(inner(W, fibers).sum(axis=-1), norms, rtol=1e-14, atol=0), name
        assert (dual_norm(W, "op_norm").sum(axis=-1) <= 1 + 1e-14).all(), name
        each, W_each = matcore.norm_cotangent_stack(fibers, "op_norm")
        top = np.argmax(each, axis=-1)
        rows = np.arange(ms.shape[0])
        assert np.array_equal(W[rows, top], W_each[rows, top]), name
        assert not W[rows, 1 - top].any(), name


@pytest.mark.parametrize("shape, norm", [
    (shape, norm) for shape in CLOSED_FORM_SHAPES + [(3, 3), (4, 4), (3, 5), (5, 3)]
    for norm in matcore._COTANGENT_NORMS
], ids=lambda v: f"{v[0]}x{v[1]}" if isinstance(v, tuple) else v)
def test_cotangent_of_a_zero_matrix_is_zero(shape, norm):
    # 0 lies in the subdifferential at 0, on the LAPACK shapes too (not its vectors for sigma = 0)
    z = np.zeros((3, 2) + shape, dtype=complex)
    norms, W = matcore.norm_cotangent_stack(z, norm)
    assert np.array_equal(norms, np.zeros((3,) if norm == "op_norm_fibers" else (3, 2)))
    assert np.array_equal(W, z)


def test_cotangent_known_values_without_lapack():
    # diag(2, 1): u = e_0, v = e_0; its polar factor is the identity
    d = np.array([[[2, 0], [0, 1]]], dtype=complex)
    norms, W = matcore.norm_cotangent_stack(d)
    assert norms[0] == 2.0 and np.array_equal(W[0], [[1, 0], [0, 0]])
    norms, W = matcore.norm_cotangent_stack(d, "trace_norm")
    assert norms[0] == 3.0 and np.array_equal(W[0], np.eye(2))
    # equal singular values: every unit u is a top one, and the closed form takes e_0
    norms, W = matcore.norm_cotangent_stack(2j * I2[None])
    assert norms[0] == 2.0 and np.array_equal(W[0], [[1j, 0], [0, 0]])
    # a Jordan block is |det| = 1 away from singular: U V^H = (a + adj(a)^H) / sqrt(||a||_F^2 + 2)
    jordan = np.array([[[1, 1], [0, 1]]], dtype=complex)
    norms, W = matcore.norm_cotangent_stack(jordan, "trace_norm")
    assert norms[0] == pytest.approx(math.sqrt(5), rel=1e-15)
    assert np.allclose(W[0], np.array([[2, 1], [-1, 2]]) / math.sqrt(5), rtol=0, atol=1e-15)


def test_stack_kernels_known_values_without_lapack():
    golden = (1 + math.sqrt(5)) / 2
    jordan = np.array([[[1, 1], [0, 1]]], dtype=complex)
    assert matcore.op_norm_stack(jordan)[0] == pytest.approx(golden, rel=1e-15)
    assert matcore.op_norm_stack(np.swapaxes(jordan, -1, -2))[0] == pytest.approx(golden, rel=1e-15)
    # ||a||_F^2 = 0.36 + 0.0625 + 0.16 = 0.5825 and |det a| = 0.24, so the trace norm is sqrt(1.0625)
    a = np.array([[[0.6, 0], [0.25, 0.4]]], dtype=complex)
    assert matcore.trace_norm_stack(a)[0] == pytest.approx(math.sqrt(1.0625), rel=1e-15)
    # one row or column: the Euclidean norm, 3-4-5 at any scale
    for scale in (1e-300, 1.0, 1e300):
        v = np.array([[[3.0, 4j]]]) * scale
        assert matcore.op_norm_stack(v)[0] == pytest.approx(5.0 * scale, rel=1e-15)
        assert matcore.trace_norm_stack(np.swapaxes(v, -1, -2))[0] == pytest.approx(5.0 * scale, rel=1e-15)


def assert_nan_for_non_finite_entries(shape, bad, op_stack, op_fibers, trace_stack):
    # the search counts a restart whose objective is not finite as dead, so these must not raise
    ms = np.ones((2,) + shape, dtype=complex)
    ms[0, 0, 0] = bad
    op = op_stack(ms)
    assert math.isnan(op[0]) and op[1] == pytest.approx(np.linalg.svd(ms[1], compute_uv=False)[0])
    assert math.isnan(op_fibers(ms[:, None])[0])
    if trace_stack is not None:
        tr = trace_stack(ms)
        assert math.isnan(tr[0]) and tr[1] == pytest.approx(np.linalg.svd(ms[1], compute_uv=False).sum())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2, 5), (5, 2), (3, 3), (4, 4), (3, 5)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_closed_forms_give_nan_for_non_finite_entries(shape, bad):
    # the Gram route and the LAPACK trace norm mask such a matrix and put NaN back
    assert_nan_for_non_finite_entries(shape, bad, matcore.op_norm_stack, matcore.op_norm_fibers,
                                      matcore.trace_norm_stack)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2, 5), (5, 2)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cotangent_closed_forms_give_nan_for_non_finite_entries(shape, bad):
    def norms(norm):
        return lambda ms: matcore.norm_cotangent_stack(ms, norm)[0]

    assert_nan_for_non_finite_entries(shape, bad, norms("op_norm"), norms("op_norm_fibers"),
                                      norms("trace_norm") if shape in ((1, 3), (2, 2)) else None)


# ---------------------------------------------------------------------------
# the closed forms against the formulations they replaced (np.sum and np.max
# over short axes, nested np.stack, take_along_axis): norms and cotangents
# must agree byte for byte, signed zeros and NaNs included


def ref_vector_norm(ms):
    x = np.abs(ms).reshape(ms.shape[:-2] + (-1,))
    if x.shape[-1] == 1:
        return x[..., 0]
    s = np.maximum(x.max(axis=-1), matcore._TINY)
    return s * np.sqrt(np.square(x / s[..., None]).sum(axis=-1))


def ref_scaled(ms):
    s = np.maximum(np.abs(ms).max(axis=(-2, -1)), matcore._TINY)
    return ms / s[..., None, None], s


def ref_row_norms_sq(a):
    return (np.square(a.real) + np.square(a.imag)).sum(axis=-1)


def ref_gram_top(ms):
    if ms.shape[-2] > ms.shape[-1]:
        ms = np.swapaxes(ms, -1, -2)
    a, s = ref_scaled(ms)
    d = ref_row_norms_sq(a)
    d0, d1 = d[..., 0], d[..., 1]
    half = 0.5 * (d0 - d1)
    o = (a[..., 0, :] * np.conj(a[..., 1, :])).sum(axis=-1)
    h = np.hypot(half, np.abs(o))
    return a, s, half, o, h, 0.5 * (d0 + d1) + h


def ref_top_pair(ms):
    a, s, half, o, h, lam = ref_gram_top(ms)
    first = half >= 0
    u0 = np.where(first, half + h, o)
    u1 = np.where(first, np.conj(o), h - half)
    un = np.hypot(np.abs(u0), np.abs(u1))
    live = un > 0
    un = np.where(live, un, 1.0)
    u0 = np.where(live, u0 / un, 1.0)
    u1 = np.where(live, u1 / un, 0.0)
    y = np.conj(u0)[..., None] * a[..., 0, :] + np.conj(u1)[..., None] * a[..., 1, :]
    yn = np.sqrt(ref_row_norms_sq(y))
    vh = y / np.where(yn > 0, yn, 1.0)[..., None]
    W = np.stack([u0[..., None] * vh, u1[..., None] * vh], axis=-2)
    if ms.shape[-2] > ms.shape[-1]:
        W = np.swapaxes(W, -1, -2)
    return s * np.sqrt(lam), W


def ref_sval_sum_2x2(ms):
    a, s = ref_scaled(ms)
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return a, s, det, np.sqrt(ref_row_norms_sq(a).sum(axis=-1) + 2.0 * np.abs(det))


def ref_polar_2x2(ms):
    a, s, det, total = ref_sval_sum_2x2(ms)
    adet = np.abs(det)
    phi = np.where(adet > 0, det / np.where(adet > 0, adet, 1.0), 1.0)
    adj_h = np.conj(np.stack([np.stack([a[..., 1, 1], -a[..., 1, 0]], axis=-1),
                              np.stack([-a[..., 0, 1], a[..., 0, 0]], axis=-1)], axis=-2))
    W = (a + phi[..., None, None] * adj_h) / np.where(total > 0, total, 1.0)[..., None, None]
    return s * total, W


def ref_four_rotation_stack_adjoint(norms, W):
    top = np.argmax(norms, axis=0)
    matrix_axes = (1,) * (W.ndim - norms.ndim)
    Wk = np.take_along_axis(W, top.reshape((1,) + top.shape + matrix_axes), axis=0)[0]
    return np.conj(gadgets.I_POWERS[top]).reshape(top.shape + matrix_axes) * Wk


def ref_fiber_cotangents(ms):
    norms, W = matcore.norm_cotangent_stack(ms, "op_norm")
    top = np.argmax(norms, axis=-1)
    W = W * (np.arange(ms.shape[-3]) == top[..., None])[..., None, None]
    return norms.max(axis=-1), W


def assert_same_bytes(got, want, what):
    """Equal bytes, signed zeros included; a NaN part only has to meet a NaN part.

    numpy's max reduction returns a NaN of either sign bit, so the sign of a
    NaN is no part of a kernel's result.
    """
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    got, want = got.view(np.float64), want.view(np.float64)  # complex as (re, im) pairs
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), what
    got, want = np.where(nan, 0.0, got), np.where(nan, 0.0, want)
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), what


def _complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def bitwise_cases(shape):
    """Named (N, r, c) stacks: Gaussian at three scales, zeros, signed zeros, ties, rank one, non-finite."""
    rng = matcore.stream(39, *shape)
    r, c = shape
    n = 24
    gauss = _complex(rng.normal(size=(n, r, c)), rng.normal(size=(n, r, c)))
    zeros = _complex(np.where(rng.random((n, r, c)) < 0.5, -0.0, 0.0),
                     np.where(rng.random((n, r, c)) < 0.5, -0.0, 0.0))
    # units, signed zeros and small integers in every part: exact products, exact ties, exact cancellations
    parts = np.array([-0.0, 0.0, 1.0, -1.0, 2.0, 0.0, -0.0])
    sparse = _complex(rng.choice(parts, size=(4 * n, r, c)), rng.choice(parts, size=(4 * n, r, c)))
    cases = {f"gauss_{scale:g}": gauss * scale for scale in (1e-300, 1.0, 1e300)}
    cases.update(zero=np.zeros((n, r, c), dtype=complex), signed_zero=zeros, sparse=sparse)
    # equal singular values (orthonormal rows or columns times a scale) and rank one
    m, big = min(r, c), max(r, c)
    q = np.linalg.qr(_complex(rng.normal(size=(n, big, m)), rng.normal(size=(n, big, m))))[0]
    cases["equal"] = (q if r >= c else np.swapaxes(q, -1, -2)) * rng.uniform(0.5, 2.0, size=(n, 1, 1))
    cases["rank_one"] = gauss[:, :, :1] * gauss[:, :1, :]
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan)):
        ms = gauss.copy()
        ms[:, rng.integers(r), rng.integers(c)] = bad
        cases[f"non_finite_{bad}"] = ms
    return cases


BITWISE_SHAPES = ([(1, 1)] + [(1, c) for c in range(2, 9)] + [(c, 1) for c in range(2, 9)]
                  + [(2, 2)] + [(2, c) for c in range(3, 9)] + [(c, 2) for c in range(3, 9)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", BITWISE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_closed_forms_are_bitwise_the_reference_formulations(shape):
    for name, ms in bitwise_cases(shape).items():
        what = f"{shape} {name}"
        for got, want in zip(matcore._scaled(ms), ref_scaled(ms)):
            assert_same_bytes(got, want, f"_scaled {what}")
        if min(shape) == 1:
            assert_same_bytes(matcore._vector_norm(ms), ref_vector_norm(ms), f"_vector_norm {what}")
            continue
        a, s, half, o, ao, h, lam = matcore._gram_top(ms)
        for got, want in zip((a, s, half, o, h, lam), ref_gram_top(ms)):
            assert_same_bytes(got, want, f"_gram_top {what}")
        assert_same_bytes(ao, np.abs(o), f"_gram_top |o| {what}")
        for got, want in zip(matcore._top_pair(ms), ref_top_pair(ms)):
            assert_same_bytes(got, want, f"_top_pair {what}")
        if shape == (2, 2):
            a, s, det, adet, total = matcore._sval_sum_2x2(ms)
            for got, want in zip((a, s, det, total), ref_sval_sum_2x2(ms)):
                assert_same_bytes(got, want, f"_sval_sum_2x2 {what}")
            assert_same_bytes(adet, np.abs(det), f"_sval_sum_2x2 |det| {what}")
            for got, want in zip(matcore._polar_2x2(ms), ref_polar_2x2(ms)):
                assert_same_bytes(got, want, f"_polar_2x2 {what}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 4), (4, 2)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_fiber_maxima_are_bitwise_the_reference_formulations(shape, g):
    for name, ms in bitwise_cases(shape).items():
        what = f"{shape} g={g} {name}"
        fibers = ms[: ms.shape[0] // g * g].reshape((-1, g) + shape)
        assert_same_bytes(matcore.op_norm_fibers(fibers), matcore.op_norm_stack(fibers).max(axis=-1), what)
        got = matcore.norm_cotangent_stack(fibers, "op_norm_fibers")
        for got, want in zip(got, ref_fiber_cotangents(fibers)):
            assert_same_bytes(got, want, what)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4, 2), (1, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_four_rotation_pick_is_bitwise_the_reference(shape):
    rng = matcore.stream(40, *shape)
    for name, ms in bitwise_cases(shape).items():
        # (4, N, g=2, r, c) cotangents, and norms (4, N) with exact ties between rotations
        W = ms[: ms.shape[0] // 8 * 8].reshape((4, -1, 2) + shape)
        norms = rng.choice([0.0, 1.0, 2.0], size=W.shape[:2])
        assert_same_bytes(gadgets.four_rotation_stack_adjoint(norms, W),
                          ref_four_rotation_stack_adjoint(norms, W), f"{shape} {name}")
    # ties go to the first rotation: W_k = k + 1, so the pick shows which k won
    W = np.arange(1.0, 5.0).reshape(4, 1, 1, 1).astype(complex) * np.ones((4, 3, 1, 1))
    norms = np.array([[1.0, 0.0, 2.0], [1.0, 3.0, 2.0], [0.0, 3.0, 2.0], [1.0, 0.0, 2.0]])
    got = gadgets.four_rotation_stack_adjoint(norms, W)[:, 0, 0]
    assert np.array_equal(got, [1.0, -2j, 1.0])  # k = 0, 1, 0: conj(i^k) (k + 1)
