import json

import numpy as np
import pytest

from opspace import corpus, matcore, spaces
from opspace.errors import InvalidInputError, ShapeError, SpaceFormatError, UnsupportedLevelError

from conftest import apply_involution, build_Ue, haar_unitary, random_element, zero_element


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


def test_make_space_refuses_an_empty_basis_stack():
    with pytest.raises(SpaceFormatError, match="basis must be a non-empty stack of matrices"):
        spaces.make_space(np.zeros((0, 2, 2)))


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
        spaces.norm(space, zero_element(space, level=2))


def test_membership_residual():
    upper = corpus.build_upper_triangular(2).space
    e11 = np.diag([1.0, 0.0])
    assert spaces.membership_residual(upper, e11) == pytest.approx(0.0, abs=1e-12)
    span = corpus.entry("non_algebra_span").space
    assert spaces.membership_residual(span, e11) == pytest.approx(1.0, abs=1e-12)
    assert spaces.membership_residual(span, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ShapeError):
        spaces.membership_residual(span, np.zeros((3, 3)))


PROJECTION_SPACES = ["non_algebra_span", "upper_triangular_2", "lower_triangular_L12", "twisted_selfadjoint"]


@pytest.mark.parametrize("name", PROJECTION_SPACES)
def test_project_stack_is_the_orthogonal_projection(corpus_entries, name):
    space = corpus_entries[name].space
    rng = np.random.default_rng(11)
    ms = rng.normal(size=(5, space.p, space.q)) + 1j * rng.normal(size=(5, space.p, space.q))
    proj = spaces.project_stack(space, ms)
    assert np.allclose(spaces.project_stack(space, proj), proj, atol=1e-12)
    assert np.allclose(spaces.project_stack(space, space.basis), space.basis, atol=1e-12)
    # the Frobenius-orthogonal complement of the span: the null space of the conjugated flat basis
    flat = space.basis.reshape(space.dim, -1)
    complement = np.linalg.svd(np.conj(flat))[2][space.dim:].conj()
    assert np.abs(np.conj(flat) @ complement.T).max() < 1e-12
    ortho = complement.reshape(-1, space.p, space.q)
    assert np.abs(spaces.project_stack(space, ortho)).max() < 1e-12
    assert np.array_equal(spaces.project_stack(space, ms[2]), proj[2])  # whichever stack it is taken in


@pytest.mark.parametrize("name", PROJECTION_SPACES)
def test_membership_residual_is_the_distance_to_the_projection(corpus_entries, name):
    space = corpus_entries[name].space
    rng = np.random.default_rng(12)
    ms = rng.normal(size=(2, 3, space.p, space.q)) + 1j * rng.normal(size=(2, 3, space.p, space.q))
    want = matcore.op_norm_stack(ms - spaces.project_stack(space, ms))
    assert np.array_equal(spaces.membership_residual_stack(space, ms), want)
    with pytest.raises(ShapeError):
        spaces.project_stack(space, np.zeros((space.p + 1, space.q)))
    with pytest.raises(InvalidInputError):
        spaces.project_stack(space, np.full((space.p, space.q), np.nan))


def test_apply_involution_m2():
    space = corpus.build_full_matrix(2).space
    e12 = spaces.LevelElement(1, np.array([[[0, 1, 0, 0]]], dtype=complex))
    starred = apply_involution(space, e12)
    assert np.allclose(spaces.realize(space, starred), [[0, 0], [1, 0]])
    twice = apply_involution(space, starred)
    assert np.allclose(twice.coeffs, e12.coeffs, atol=1e-12)
    herm = spaces.LevelElement(1, np.array([[[1, 0.5, 0.5, -2]]], dtype=complex))
    assert np.allclose(apply_involution(space, herm).coeffs, herm.coeffs, atol=1e-12)


def test_involution_realizes_adjoint_at_level2():
    space = corpus.build_full_matrix(2).space
    x = random_element(space, 2, matcore.stream(41, 0))
    xs = apply_involution(space, x)
    assert np.allclose(spaces.realize(space, xs), matcore.dagger(spaces.realize(space, x)), atol=1e-12)


def test_amplification_monotonicity_zero_padding():
    for entry_name in ("full_matrix_2", "linf3_ones", "column_H2"):
        entry = {e.name: e for e in corpus.build_corpus()}[entry_name]
        space = entry.space
        if space.norm_mode != spaces.EMBEDDED:
            continue
        for t in range(10):
            x = random_element(space, 2, matcore.stream(43, t))
            padded = np.zeros((3, 3, space.dim), dtype=complex)
            padded[:2, :2] = x.coeffs
            n2 = spaces.norm(space, x)
            n3 = spaces.norm(space, spaces.LevelElement(3, padded))
            assert abs(n2 - n3) <= 1e-10


def test_realization_linearity():
    space = corpus.build_full_matrix(2).space
    for t in range(10):
        rng = matcore.stream(44, t)
        x = random_element(space, 2, rng)
        alpha = complex(rng.normal(), rng.normal())
        scaled = spaces.LevelElement(2, alpha * x.coeffs)
        assert spaces.norm(space, scaled) == pytest.approx(
            abs(alpha) * spaces.norm(space, x), abs=1e-10
        )


def test_realized_elements_have_zero_membership_residual():
    for entry in corpus.build_corpus():
        space = entry.space
        x = random_element(space, 1, matcore.stream(45, space.dim))
        m = spaces.realize(space, x)
        assert spaces.membership_residual(space, m) <= 1e-10


def test_fibered_realization_matches_dense_norms():
    linf = corpus.build_linf(3).space
    assert linf.blocks.shape[1] == 3
    doubled = build_Ue(linf, np.array([1.0, 0, 0]))
    assert doubled.blocks.shape[1] == 3  # B_i couples only i and i + 3, so three 2 x 2 blocks persist
    for space in (linf, doubled):
        for t in range(5):
            c = random_element(space, 2, matcore.stream(46, t)).coeffs
            dense = matcore.op_norm(spaces.realize_stack(space, c))
            fib = float(matcore.op_norm_fibers(spaces.realize_fibers_stack(space, c[None]))[0])
            assert dense == pytest.approx(fib, abs=1e-12)


@pytest.mark.parametrize("rank_tol", [-1.0, 0.0, 1.0, float("nan")])
def test_rank_tol_outside_unit_interval_refused(rank_tol):
    basis = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(InvalidInputError, match="rank_tol"):
        spaces.make_space(basis, rank_tol=rank_tol)


# ---------------------------------------------------------------------------
# block layout


def conjugated(space, seed=5):
    U = haar_unitary(space.p, seed)
    return spaces.make_space(U @ space.basis @ U.conj().T, unit=space.unit, involution=space.involution)


def interleaved_8x4():
    """Two 4 x 2 blocks, on rows {f, f+2, f+4, f+6} and columns {f, f+2} for f = 0, 1."""
    rng = np.random.default_rng(3)
    basis = np.zeros((3, 8, 4), dtype=complex)
    for f in (0, 1):
        basis[:, f::2, f::2] = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    return spaces.make_space(basis)


def triangular_plus_scalar(d=3):
    """T_2 (+) C inside M_d: blocks of sides 2 and 1, and a zero summand of side d - 3."""
    basis = np.zeros((4, d, d), dtype=complex)
    for l, (i, j) in enumerate([(0, 0), (0, 1), (1, 1), (2, 2)]):
        basis[l, i, j] = 1.0
    return spaces.make_space(basis)


# space -> (constructor, block count wanted, exact or at least)
LAYOUT_SPACES = {
    "linf3_e1_conjugated": (lambda: conjugated(corpus.build_linf(3, "e1").space), 3, True),
    "l1_model_16_conjugated": (lambda: conjugated(corpus.build_l1_2_model(16).space), 16, True),
    "kron_m2_i2": (lambda: spaces.make_space(
        np.stack([np.kron(b, np.eye(2)) for b in corpus.build_full_matrix(2).space.basis])), 2, False),
    "interleaved_8x4": (interleaved_8x4, 2, False),
    "triangular_plus_scalar": (triangular_plus_scalar, 2, True),
    "triangular_plus_scalar_plus_zero": (lambda: triangular_plus_scalar(5), 2, True),
    "full_matrix_2": (lambda: corpus.build_full_matrix(2).space, 1, True),
    "column_H2": (lambda: corpus.entry("column_H2").space, 1, True),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_SPACES))
def test_layout_block_counts(name):
    build, want, exact = LAYOUT_SPACES[name]
    g = build().blocks.shape[1]
    assert g == want if exact else g >= want


def test_ragged_blocks_are_zero_padded():
    blocks = triangular_plus_scalar().blocks
    assert blocks.shape == (4, 2, 2, 2)
    used = np.abs(blocks).sum(axis=(0, 3)) > 0  # (block, row) -> some basis element uses the row
    assert sorted(used.sum(axis=1)) == [1, 2]
    for b in range(2):  # each block's rows and columns come first, its zero padding last
        side = used[b].sum()
        assert used[b, :side].all()
        assert not blocks[:, b, side:].any() and not blocks[:, b, :, side:].any()


def square(ms):
    s = max(ms.shape[-2:])
    out = np.zeros(ms.shape[:-2] + (s, s), dtype=complex)
    out[..., : ms.shape[-2], : ms.shape[-1]] = ms
    return out


def trace_pairings(ms):
    """tr(M_l* M_m) and tr(M_l M_m) of a stack (k, s, s), or summed over the blocks of (k, g, s, s)."""
    ms = ms.reshape(ms.shape[0], -1, *ms.shape[-2:])
    return np.einsum("lbst,mbst->lm", ms.conj(), ms), np.einsum("lbst,mbts->lm", ms, ms)


@pytest.mark.parametrize("name", sorted(LAYOUT_SPACES))
def test_layout_blocks_reconstruct_the_basis(name):
    # B_l = Q (+_b blocks[l, b]) Q* for one unitary Q keeps both pairings; the second tells Q on
    # both sides from unrelated unitaries on the left and the right
    space = LAYOUT_SPACES[name][0]()
    want, got = trace_pairings(square(space.basis)), trace_pairings(square(space.blocks))
    scale = np.abs(want[0]).max()  # the Gram matrix; tr(B_l B_m) may vanish throughout
    for w, x in zip(want, got):
        assert np.allclose(x, w, rtol=0, atol=1e-12 * scale)


GADGETS = ("four_rotation", "t", "row", "column", "r")


@pytest.mark.parametrize("name", sorted(LAYOUT_SPACES))
def test_block_path_norms_match_dense(name):
    from opspace import gadgets

    space = LAYOUT_SPACES[name][0]()
    rng = np.random.default_rng(17)
    k = space.dim
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    for n in (1, 2):
        vgrid = np.zeros((n, n, k), dtype=complex)
        vgrid[range(n), range(n)] = v
        c = rng.normal(size=(5, n, n, k)) + 1j * rng.normal(size=(5, n, n, k))
        Xd, Vd = spaces.realize_stack(space, c), spaces.realize_stack(space, vgrid)
        Xb, Vb = spaces.realize_fibers_stack(space, c), spaces.realize_fibers_stack(space, vgrid)
        assert np.allclose(spaces.norm_stack(space, c), matcore.op_norm_stack(Xd), rtol=1e-12, atol=0)
        for gadget in GADGETS:
            if gadget == "r" and space.p != space.q:
                continue  # the skew gadget needs a square ambient
            assemble = getattr(gadgets, f"{gadget}_stack")
            dense, blocks = assemble(Vd, Xd), assemble(Vb, Xb)
            assert np.allclose(matcore.op_norm_fibers(blocks), matcore.op_norm_stack(dense),
                               rtol=1e-12, atol=0), gadget
            assert np.allclose(matcore.trace_norm_stack(blocks).sum(axis=-1), matcore.trace_norm_stack(dense),
                               rtol=1e-12, atol=0), gadget


def test_trace_norm_oracle_is_a_sum_over_blocks():
    base = conjugated(corpus.entry("l1_2_diag_trace").space)
    space = spaces.make_space(base.basis, norm_mode=spaces.LEVEL1_ORACLE, level1_oracle="trace_norm")
    assert space.blocks.shape[1] == 2
    c = np.random.default_rng(19).normal(size=(6, 1, 1, 2)) + 0j
    want = matcore.trace_norm_stack(spaces.realize_stack(space, c))
    assert np.allclose(spaces.norm_stack(space, c), want, rtol=1e-12, atol=0)


def test_layout_falls_back_to_one_block_when_reconstruction_fails(monkeypatch):
    split = conjugated(corpus.build_linf(3, "e1").space)
    assert split.blocks.shape[1] == 3
    monkeypatch.setattr(spaces, "LAYOUT_TOL", 0.0)  # rounding alone now fails the check
    space = conjugated(corpus.build_linf(3, "e1").space)
    assert space.blocks.shape == (3, 1, 3, 3)
    assert np.array_equal(space.blocks[:, 0], space.basis)
    c = np.random.default_rng(23).normal(size=(4, 2, 2, 3)) + 0j
    assert np.allclose(spaces.norm_stack(space, c), spaces.norm_stack(split, c), rtol=1e-12, atol=0)


def test_two_loads_give_identical_layouts():
    text = spaces.space_to_json(conjugated(corpus.build_l1_2_model(16).space))
    one, two = spaces.load_space(text).blocks, spaces.load_space(text).blocks
    assert one.shape == two.shape and one.shape[1:] == (16, 1, 1)
    assert one.tobytes() == two.tobytes()


def test_loading_a_space_does_not_import_numpy_random(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "conj.json"
    path.write_text(spaces.space_to_json(conjugated(corpus.build_l1_2_model(16).space)))
    src = Path(spaces.__file__).resolve().parents[1]
    # loading needs spaces, matcore and errors alone; the package imports no other module of its own
    unneeded = ["numpy.random"] + [f"opspace.{m}" for m in
                                   ("criteria", "witness", "gadgets", "corpus", "formulas", "cli")]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from opspace import spaces; "
            "s = spaces.load_space_file(sys.argv[2]); "
            "print(s.blocks.shape[1], *[m for m in sys.argv[3:] if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, str(src), str(path), *unneeded],
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["16"]


#: Pairs whose parts are -0.0, ints past 2^53 (rounded to a double) or an int beside a float.
EXACT_PAIRS = [[-0.0, 0], [0, -0.0], [-0.0, -0.0], [2**53 + 1, 0.5], [1.5, 2**63 + 1], [2**70, -(2**70)],
               [-(2**63) - 1, 3], [7, 0.1]]
#: Entries that are not a pair of JSON numbers, each named in the loader's message.
BAD_ENTRIES = [True, "1", None, [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0], 0.0], [False, 0], [0.0, None]]


@pytest.mark.parametrize("name", [e.name for e in corpus.build_corpus()])
def test_bulk_decoding_is_complex_of_each_pair(corpus_entries, name):
    def reference(values):  # one complex(re, im) per pair
        return np.array([complex(*v) for v in values], dtype=np.complex128)

    doc = json.loads(spaces.space_to_json(corpus_entries[name].space))
    vectors = doc["basis"] + ([doc["unit"]] if "unit" in doc else []) + doc.get("involution", [])
    for values in vectors:
        mixed = [EXACT_PAIRS[i % len(EXACT_PAIRS)] if i % 3 == 0 else v for i, v in enumerate(values)]
        for vec in (values, json.loads(json.dumps(mixed))):
            assert spaces._decode_vector(vec, len(vec), "v").tobytes() == reference(vec).tobytes()
    space = spaces.load_space(json.dumps(doc))
    assert space.basis.tobytes() == np.stack([reference(b) for b in doc["basis"]]).tobytes()
    if "unit" in doc:
        assert space.unit.tobytes() == reference(doc["unit"]).tobytes()
    if "involution" in doc:
        assert space.involution.tobytes() == np.stack([reference(r) for r in doc["involution"]]).tobytes()
    # the first of several bad entries in a basis element (4,096 pairs on l1_2_model_64) is the one named
    for bad in BAD_ENTRIES:
        broken = json.loads(json.dumps(doc))
        row = broken["basis"][-1]
        half = len(row) // 2
        row[half:] = [bad] + [True] * (len(row) - half - 1)
        with pytest.raises(SpaceFormatError) as err:
            spaces.load_space(json.dumps(broken))
        assert str(err.value) == f"expected a complex scalar encoded as [re, im], got {bad!r}"


def test_a_long_bad_entry_is_echoed_in_part():
    # a list of 200,000 numbers where a pair belongs: the message names its start and its length
    long_entry = [0.5] * 200_000
    doc = {"p": 1, "q": 2, "basis": [[[1, 0], long_entry]]}
    with pytest.raises(SpaceFormatError) as err:
        spaces.load_space(json.dumps(doc))
    text = repr(long_entry)
    assert str(err.value) == ("expected a complex scalar encoded as [re, im], got "
                              f"{text[:spaces._ECHO_CHARS]}... ({len(text):,} characters)")
    assert len(str(err.value)) < 200
    # an entry whose echo is exactly the cap is echoed whole
    edge = "x" * (spaces._ECHO_CHARS - 2)
    with pytest.raises(SpaceFormatError) as err:
        spaces.load_space(json.dumps({"p": 1, "q": 1, "basis": [[edge]]}))
    assert str(err.value).endswith(f"got {edge!r}")
