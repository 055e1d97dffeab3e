import json

import numpy as np
import pytest

from opspace import corpus, matcore, spaces
from opspace.errors import InvalidInputError, ShapeError, SpaceFormatError, UnsupportedLevelError


def cpair(z):
    return [float(np.real(z)), float(np.imag(z))]


def m2_document(unit=True):
    basis = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=complex)
            m[i, j] = 1
            basis.append([cpair(z) for z in m.reshape(-1)])
    doc = {"p": 2, "q": 2, "basis": basis, "norm_mode": "embedded"}
    if unit:
        doc["unit"] = [cpair(z) for z in [1, 0, 0, 1]]
    return doc


def test_load_m2_with_unit():
    space = spaces.load_space(json.dumps(m2_document()))
    assert space.dim == 4
    assert space.p == space.q == 2
    assert np.allclose(spaces.unit_matrix(space), np.eye(2))


def test_load_duplicate_basis_rejected():
    doc = m2_document(unit=False)
    doc["basis"].append(doc["basis"][0])
    with pytest.raises(SpaceFormatError, match="rank deficient"):
        spaces.load_space(json.dumps(doc))


def test_load_linf3():
    basis = []
    for i in range(3):
        m = np.zeros((3, 3), dtype=complex)
        m[i, i] = 1
        basis.append([cpair(z) for z in m.reshape(-1)])
    doc = {"p": 3, "q": 3, "basis": basis}
    space = spaces.load_space(json.dumps(doc))
    assert (space.p, space.q, space.dim) == (3, 3, 3)


def test_load_rejects_unknown_fields_and_bad_json():
    doc = m2_document()
    doc["extra"] = 1
    with pytest.raises(SpaceFormatError, match="unknown fields"):
        spaces.load_space(json.dumps(doc))
    with pytest.raises(SpaceFormatError, match="invalid JSON"):
        spaces.load_space("{not json")


def test_load_rejects_bad_involution_and_big_unit():
    doc = m2_document()
    doc["involution"] = [[cpair(2 if i == j else 0) for j in range(4)] for i in range(4)]
    with pytest.raises(SpaceFormatError, match="identity on coefficients"):
        spaces.load_space(json.dumps(doc))
    doc = m2_document()
    doc["unit"] = [cpair(z) for z in [2, 0, 0, 2]]
    with pytest.raises(SpaceFormatError, match="norm"):
        spaces.load_space(json.dumps(doc))


def test_space_json_round_trip():
    for entry in corpus.build_corpus():
        text = spaces.space_to_json(entry.space)
        again = spaces.load_space(text)
        assert np.allclose(again.basis, entry.space.basis)
        assert again.norm_mode == entry.space.norm_mode
        if entry.space.unit is not None:
            assert np.allclose(again.unit, entry.space.unit)


def test_norm_linf3_coordinate():
    space = corpus.build_linf(3).space
    e1 = spaces.LevelElement(1, np.array([[[1, 0, 0]]], dtype=complex))
    assert spaces.norm(space, e1) == pytest.approx(1.0, abs=1e-14)


def test_norm_corner_embedding_level2():
    space = corpus.build_full_matrix(2).space
    coeffs = np.zeros((2, 2, 4), dtype=complex)
    coeffs[0, 1, 1] = 1.0  # E_12 placed in one off-diagonal cell
    x = spaces.LevelElement(2, coeffs)
    assert spaces.norm(space, x) == pytest.approx(1.0, abs=1e-12)


def test_norm_oracle_trace():
    space = corpus.build_trace_class_2().space
    u = spaces.unit_element(space)
    assert spaces.norm(space, u) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UnsupportedLevelError):
        spaces.norm(space, spaces.zero_element(space, level=2))


def test_membership_residual():
    upper = corpus.build_upper_triangular(2).space
    e11 = np.diag([1.0, 0.0])
    assert spaces.membership_residual(upper, e11) == pytest.approx(0.0, abs=1e-12)
    span = corpus.build_non_algebra_span().space
    assert spaces.membership_residual(span, e11) == pytest.approx(1.0, abs=1e-12)
    assert spaces.membership_residual(span, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ShapeError):
        spaces.membership_residual(span, np.zeros((3, 3)))


def test_apply_involution_m2():
    space = corpus.build_full_matrix(2).space
    e12 = spaces.LevelElement(1, np.array([[[0, 1, 0, 0]]], dtype=complex))
    starred = spaces.apply_involution(space, e12)
    assert np.allclose(spaces.realize(space, starred), [[0, 0], [1, 0]])
    twice = spaces.apply_involution(space, starred)
    assert np.allclose(twice.coeffs, e12.coeffs, atol=1e-12)
    herm = spaces.LevelElement(1, np.array([[[1, 0.5, 0.5, -2]]], dtype=complex))
    assert np.allclose(spaces.apply_involution(space, herm).coeffs, herm.coeffs, atol=1e-12)


def test_involution_realizes_adjoint_at_level2():
    space = corpus.build_full_matrix(2).space
    x = spaces.random_element(space, 2, matcore.stream(41, 0))
    xs = spaces.apply_involution(space, x)
    assert np.allclose(spaces.realize(space, xs), matcore.dagger(spaces.realize(space, x)), atol=1e-12)


def test_project_to_ball():
    space = corpus.build_full_matrix(2).space
    x = spaces.random_element(space, 1, matcore.stream(42, 0), target_norm=2.0)
    y = spaces.project_to_ball(space, x, 1.0)
    assert spaces.norm(space, y) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(y.coeffs, 0.5 * x.coeffs)
    small = spaces.random_element(space, 1, matcore.stream(42, 1), target_norm=0.5)
    assert spaces.project_to_ball(space, small, 1.0) is small
    z = spaces.zero_element(space)
    assert np.allclose(spaces.project_to_ball(space, z, 1.0).coeffs, 0)


def test_amplification_monotonicity_zero_padding():
    for entry_name in ("full_matrix_2", "linf3_ones", "column_H2"):
        entry = {e.name: e for e in corpus.build_corpus()}[entry_name]
        space = entry.space
        if space.norm_mode != spaces.EMBEDDED:
            continue
        for t in range(10):
            x = spaces.random_element(space, 2, matcore.stream(43, t))
            padded = np.zeros((3, 3, space.dim), dtype=complex)
            padded[:2, :2] = x.coeffs
            n2 = spaces.norm(space, x)
            n3 = spaces.norm(space, spaces.LevelElement(3, padded))
            assert abs(n2 - n3) <= 1e-10


def test_realization_linearity():
    space = corpus.build_full_matrix(2).space
    for t in range(10):
        rng = matcore.stream(44, t)
        x = spaces.random_element(space, 2, rng)
        alpha = complex(rng.normal(), rng.normal())
        scaled = spaces.LevelElement(2, alpha * x.coeffs)
        assert spaces.norm(space, scaled) == pytest.approx(
            abs(alpha) * spaces.norm(space, x), abs=1e-10
        )


def test_realized_elements_have_zero_membership_residual():
    for entry in corpus.build_corpus():
        space = entry.space
        x = spaces.random_element(space, 1, matcore.stream(45, space.dim))
        m = spaces.realize(space, x)
        assert spaces.membership_residual(space, m) <= 1e-10


def test_fibered_realization_matches_dense_norms():
    from opspace import gadgets

    linf = corpus.build_linf(3).space
    assert linf.fiber == 3
    doubled = gadgets.build_Ue(linf, np.array([1.0, 0, 0]))
    assert doubled.fiber == 3  # off-diagonal blocks are diagonal, so fibers persist
    for space in (linf, doubled):
        for t in range(5):
            c = spaces.random_element(space, 2, matcore.stream(46, t)).coeffs
            dense = matcore.op_norm(spaces.realize_stack(space, c))
            fib = float(matcore.op_norm_fibers(spaces.realize_fibers_stack(space, c[None]))[0])
            assert dense == pytest.approx(fib, abs=1e-12)


@pytest.mark.parametrize("rank_tol", [-1.0, 0.0, 1.0, float("nan")])
def test_rank_tol_outside_unit_interval_refused(rank_tol):
    basis = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(InvalidInputError, match="rank_tol"):
        spaces.make_space(basis, rank_tol=rank_tol)
