import math

import numpy as np
import pytest

from opspace import corpus, gadgets, matcore, spaces
from opspace.errors import InvalidInputError, NumericalError, ShapeError
from opspace.formulas import t_norm_closed_form

from conftest import random_element


def scalar_space(unit=1.0):
    return spaces.make_space(np.ones((1, 1, 1), dtype=complex), unit=np.array([unit]),
                             involution=np.eye(1))


def elem(space, value, level=1):
    c = np.zeros((level, level, space.dim), dtype=complex)
    for i in range(level):
        c[i, i] = value
    return spaces.LevelElement(level, c)


def test_build_t_scalars():
    s = scalar_space()
    g0 = gadgets.build_t(s, s.unit, elem(s, [0.0]))
    assert np.allclose(g0, np.eye(2))
    assert matcore.op_norm(g0) == pytest.approx(1.0, abs=1e-14)
    g1 = gadgets.build_t(s, s.unit, elem(s, [1.0]))
    assert np.allclose(g1, [[1, 1], [0, 1]])
    assert matcore.op_norm(g1) ** 2 == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)


def test_build_t_m2_closed_form():
    space = corpus.build_full_matrix(2).space
    x = random_element(space, 1, matcore.stream(51, 0), target_norm=0.7)
    got = matcore.op_norm(gadgets.build_t(space, space.unit, x)) ** 2
    assert got == pytest.approx(0.5 * (2 + 0.49 + 0.7 * math.sqrt(4.49)), abs=1e-9)


def test_build_s_and_r_scalars():
    s = scalar_space()
    one = elem(s, [1.0])
    assert matcore.op_norm(gadgets.build_s(s, s.unit, one)) == pytest.approx(2.0, abs=1e-12)
    assert matcore.op_norm(gadgets.build_r(s, s.unit, one)) == pytest.approx(
        math.sqrt(2), abs=1e-12
    )
    assert np.allclose(gadgets.build_s(s, s.unit, one), [[1, 1], [1, 1]])
    assert np.allclose(gadgets.build_r(s, s.unit, one), [[1, 1], [-1, 1]])


def test_build_s_r_zero_is_identity():
    space = corpus.build_full_matrix(2).space
    z = spaces.zero_element(space)
    for build in (gadgets.build_s, gadgets.build_r):
        g = build(space, space.unit, z)
        assert np.allclose(g, np.eye(4))
        assert matcore.op_norm(g) == pytest.approx(1.0, abs=1e-14)


def test_build_s_requires_involution():
    space = corpus.build_column_H2().space
    with pytest.raises(InvalidInputError):
        gadgets.build_s(space, space.unit, spaces.zero_element(space))


def test_build_row_column_m2():
    space = corpus.build_full_matrix(2).space
    z = spaces.zero_element(space)
    row = gadgets.build_row(space, space.unit, z)
    assert row.shape == (2, 4)
    assert matcore.op_norm(row) == pytest.approx(1.0, abs=1e-14)
    x = random_element(space, 1, matcore.stream(52, 0), target_norm=1.0)
    assert matcore.op_norm(gadgets.build_row(space, space.unit, x)) == pytest.approx(
        math.sqrt(2), abs=1e-10
    )


def test_build_row_column_on_column_space():
    space = corpus.build_column_H2().space
    e2 = spaces.LevelElement(1, np.array([[[0.0, 1.0]]], dtype=complex))
    col = gadgets.build_column(space, space.unit, e2)
    row = gadgets.build_row(space, space.unit, e2)
    assert matcore.op_norm(col) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert matcore.op_norm(row) == pytest.approx(1.0, abs=1e-12)


def test_build_four_rotation_linf():
    space = corpus.build_linf(3).space
    x = spaces.LevelElement(1, np.array([[[0, 0.3, 0]]], dtype=complex))
    g = gadgets.build_four_rotation(space, space.unit, x, 0)
    assert matcore.op_norm(g) == pytest.approx(1.3, abs=1e-12)


def test_build_four_rotation_trace_oracle():
    space = corpus.build_trace_class_2().space
    x = spaces.LevelElement(1, np.array([[[0, 0, 0.25, 0]]], dtype=complex))
    for k in range(4):
        g = gadgets.build_four_rotation(space, space.unit, x, k)
        assert matcore.trace_norm(g) == pytest.approx(math.sqrt(1.0625), abs=1e-12)


def test_build_four_rotation_m2_closed_form():
    space = corpus.build_full_matrix(2).space
    x = spaces.LevelElement(1, np.array([[[0, 0.3, 0, 0]]], dtype=complex))
    want = (0.3 + math.sqrt(4.09)) / 2
    for k in range(4):
        g = gadgets.build_four_rotation(space, space.unit, x, k)
        assert matcore.op_norm(g) == pytest.approx(want, abs=1e-12)


def test_build_Ue_arity_and_unit():
    m2 = corpus.build_full_matrix(2).space
    ue = gadgets.build_Ue(m2, m2.unit)
    assert ue.dim == 5
    assert ue.p == ue.q == 4
    assert spaces.norm(ue, spaces.unit_element(ue)) == pytest.approx(1.0, abs=1e-12)
    linf = corpus.build_linf(3).space
    ue2 = gadgets.build_Ue(linf, np.array([1.0, 0, 0]))
    assert ue2.dim == 4
    assert (ue2.p, ue2.q) == (6, 6)


def test_build_M_pm_zero_entries():
    z = np.zeros((2, 2), dtype=complex)
    m = gadgets.build_M_pm(z, z, z, z, "+")
    assert m.shape == (4, 12)
    assert np.allclose(m @ matcore.dagger(m), np.eye(4), atol=1e-12)
    raw = matcore.block([[z, z, np.eye(2), z, z, z], [z, z, z, z, z, np.eye(2)]])
    assert matcore.op_norm(raw) == pytest.approx(1.0, abs=1e-14)


def test_build_M_pm_coisometry_with_canonical_filler():
    rng = matcore.stream(53, 0)
    x = matcore.rand_cmat(2, 2, rng)
    x /= max(1.0, matcore.op_norm(x))
    y = matcore.rand_cmat(2, 2, rng)
    y /= max(1.0, matcore.op_norm(y))
    z = -x @ matcore.dagger(y)
    b = gadgets.proof_b(x, y, z)
    for sign in ("+", "-"):
        m = gadgets.build_M_pm(x, y, z, b, sign)
        assert np.allclose(m @ matcore.dagger(m), np.eye(4), atol=1e-9)


def test_build_M_pm_minus_sign_pattern():
    one = np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    m = gadgets.build_M_pm(zero, one, zero, zero, "-")
    unnorm = matcore.block([[one, zero, one, zero, zero, zero],
                            [zero, zero, zero, -one, zero, -one]])
    assert np.allclose(m, unnorm / matcore.op_norm(unnorm))


def test_build_mult_row_constants_only():
    z = np.zeros((2, 2), dtype=complex)
    two_by_four, row = gadgets.build_mult_row(z, z, z, z)
    assert matcore.op_norm(two_by_four) == pytest.approx(2.0, abs=1e-12)
    assert matcore.op_norm(row) == pytest.approx(2.0, abs=1e-12)


def test_build_mult_row_equality_with_canonical_pair():
    rng = matcore.stream(53, 1)
    x = np.triu(matcore.rand_cmat(2, 2, rng))
    y = matcore.dagger(np.triu(matcore.rand_cmat(2, 2, rng)))
    y /= max(1.0, matcore.op_norm(y))
    z = -x @ matcore.dagger(y)
    b = gadgets.proof_b(x, np.zeros_like(x), z)
    two_by_four, row = gadgets.build_mult_row(x, y, z, b)
    assert matcore.op_norm(two_by_four) == pytest.approx(matcore.op_norm(row), abs=1e-9)
    # perturbing z re-introduces the cross term; with the filler rebuilt for
    # the new z, the comparison row's Gram block is a scalar and the coupling
    # splits the norms strictly
    z2 = z + 0.5 * np.diag([1.0, 0.0])
    b2 = gadgets.proof_b(x, np.zeros_like(x), z2)
    g2, r2 = gadgets.build_mult_row(x, y, z2, b2)
    assert matcore.op_norm(g2) - matcore.op_norm(r2) > 1e-4


def test_build_adjoint_block():
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    e21 = e12.T.copy()
    assert matcore.op_norm(gadgets.build_adjoint_block(e12, e21, 0.0)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert matcore.op_norm(gadgets.build_adjoint_block(e12, e21, 1.0)) == pytest.approx(
        math.sqrt(2), abs=1e-9
    )
    # the pair (E_12, 0) approaches the bound as t grows but breaks it at
    # intermediate t, which is what the companion check detects
    z = np.zeros((2, 2))
    big = matcore.op_norm(gadgets.build_adjoint_block(e12, z, 50.0))
    assert big / math.sqrt(1 + 50.0**2) == pytest.approx(1.0, abs=2e-2)
    grid_violation = max(
        matcore.op_norm(gadgets.build_adjoint_block(e12, z, t)) - math.sqrt(1 + t * t)
        for t in np.arange(0.0, 4.25, 0.25)
    )
    assert grid_violation > 0.01
    with pytest.raises(ShapeError):
        gadgets.build_adjoint_block(e12, np.zeros((3, 3)), 1.0)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NumericalError):
        gadgets.psd_sqrt(np.diag([1.0, -0.5]))


def test_doubling_closed_form_on_unital_corpus_spaces():
    names = {"full_matrix_2", "upper_triangular_2", "linf3_ones", "l1_2_model_64"}
    entries = {e.name: e for e in corpus.build_corpus()}
    for name in sorted(names):
        space = entries[name].space
        worst = 0.0
        for t in range(100):
            x = random_element(space, 1, matcore.stream(54, space.p, t))
            s = spaces.norm(space, x)
            got = matcore.op_norm(gadgets.build_t(space, space.unit, x)) ** 2
            worst = max(worst, abs(got - float(t_norm_closed_form(s))))
        assert worst <= 1e-8, name


def test_four_rotation_composed_with_doubling_is_k_invariant():
    space = corpus.build_full_matrix(2).space
    for t in range(20):
        x = random_element(space, 1, matcore.stream(55, t))
        base = matcore.op_norm(gadgets.build_t(space, space.unit, x))
        for k in range(4):
            xk = spaces.LevelElement(1, (1j**k) * x.coeffs)
            assert matcore.op_norm(gadgets.build_t(space, space.unit, xk)) == pytest.approx(
                base, abs=1e-10
            )


def test_symmetric_and_skew_norms_on_system_spaces():
    for entry_name in ("full_matrix_2", "linf3_ones"):
        space = {e.name: e for e in corpus.build_corpus()}[entry_name].space
        for level in (1, 2):
            for t in range(50):
                x = random_element(space, level, matcore.stream(56, level, t))
                nx = spaces.norm(space, x)
                s = matcore.op_norm(gadgets.build_s(space, space.unit, x))
                r = matcore.op_norm(gadgets.build_r(space, space.unit, x))
                assert abs(s - (1 + nx)) <= 1e-8
                assert abs(r - math.sqrt(1 + nx**2)) <= 1e-8


def test_scaled_doubling_gadget_covariance():
    # [[av, x], [0, av]] = a * [[v, x/a], [0, v]], so the scaled and unscaled
    # slack agree up to the factor a
    space = corpus.build_full_matrix(2).space
    for t in range(20):
        rng = matcore.stream(57, t)
        lam = float(rng.uniform(0.05, 1.0))
        x = random_element(space, 1, rng)
        scaled_v = spaces.LevelElement(1, (lam * space.unit).reshape(1, 1, -1))
        lhs = matcore.op_norm(gadgets.build_t(space, scaled_v, x))
        dev_scaled = lhs - math.sqrt(lam**2 + lam * spaces.norm(space, x))
        xs = spaces.LevelElement(1, x.coeffs / lam)
        dev_plain = matcore.op_norm(gadgets.build_t(space, space.unit, xs)) - math.sqrt(
            1 + spaces.norm(space, xs)
        )
        assert abs(dev_scaled - lam * dev_plain) <= 1e-9
