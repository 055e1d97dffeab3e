import hashlib
import json
import math
import re

import numpy as np
import pytest

from opspace import corpus, criteria, matcore, spaces, witness
from opspace.errors import InvalidInputError

from conftest import zero_element


def test_every_entry_matches_expected(corpus_entries, corpus_reports):
    mismatches = []
    for name, entry in corpus_entries.items():
        for crit, want in entry.expected.items():
            got = corpus_reports[name][crit].verdict
            if got != want:
                mismatches.append((name, crit, want, got))
    assert not mismatches, mismatches


def test_corpus_has_enough_entries(corpus_entries):
    assert len(corpus_entries) >= 9


def test_run_corpus_aggregation(corpus_entries):
    result = corpus.run_corpus(witness.SearchConfig(restarts=8), only="non_algebra_span")
    assert result["all_match"]
    assert result["entries"] == ["non_algebra_span"]
    with pytest.raises(Exception):
        corpus.run_corpus(witness.SearchConfig(), only="no_such_entry")


#: sha256 of each entry's space JSON and its expected items in order, for the 13 corpus
#: entries and the family instances the tests build: any change to a space, a verdict or its order moves one.
ENTRY_DIGESTS = {
    "linf3_ones": "e68cac8e1816dc42d82c6ccfe651b371a722ce299e586546e793f8cbd9e6225c",
    "linf3_e1": "5463a30c47ba090aadb4e74c354fc2fdcbb846585640894cb2bcfa415e7bbda4",
    "trace_class_2": "7d40bcaae82dcb85f490521c972dc0f86916d5eacb0abe3ef1f69c42584ece6c",
    "lower_triangular_L12": "b4b93b9d40829e437972f4b948c3d3feb7d0dca68297c3ba9a6357e584c08a34",
    "l1_2_diag_trace": "8100bb5841330a4cc3e439e8755d9905d696c63c4e35f5e05d979c96856f7f16",
    "l1_2_model_64": "8380f66f56ef673af3676e329a3526c9785b78046898822c38b869d30ffbf5e1",
    "column_H2": "97a82242d5aee19562ddf469f3ea4400d0f05626d83675ef734a1235dbf5622f",
    "twisted_selfadjoint": "8ce9f9b55c793034c772fbb93929f83145f02150b9b05e8aa0064f1ab5edc2a4",
    "upper_triangular_2": "272f3e431873c1aa432e1712167d582d7128383e3ed441221c0d56ceb9d22b9b",
    "full_matrix_2": "d4ae1495b47739ee9906abf1b7d9e41305ab50050d9922060be7e387ba04b918",
    "full_matrix_2_plus_half": "b97cb368f4e03997eb590902c2ed8de33f141e26436df6cabcb8da5f95f162d5",
    "non_algebra_span": "a659bfd1e6ff94833f55084ac43ee4d8968f1fe10bce22b1b2e43eeca589c98a",
    "left_identity_pair": "c0a6f281772cef20d9a0d4b09451720fb013a85fef768edb17f3ccd71b517758",
    'build_linf(1, "ones")': "19f49268df514c2cab673b66670d16739c2f7c84770ff728be5b472bc8a127d6",
    'build_linf(1, "e1")': "90f3d52d90f506b7a34c4e9ab1f3a4bf0a84dffd25f19a973254012904656217",
    'build_trace_class_2(alpha=0.5)': "455c74db8e9fe6055eff6a907ede1228fbbff32dfc41b4a76020a684f577fe40",
    'build_l1_2_model(4)': "e2c35fca9a5acb2be4f225d172de23e158977551e48a9a5717e3e53c2b0a4c63",
    'build_l1_2_model(16)': "f45ed25d192ba3b5dfe577adb59bb9c36dbbd0961e2f7dddb9367cab741c9986",
    'build_upper_triangular(3)': "2ff6e788d72c87b7596c7514fa89dd47d278d064824637567165ed1b6e25a8e1",
    'build_full_matrix(3)': "3e598681bb3df168e36cb56f9c35e1326014872acec30b744e7dd8941a4d052e",
    'build_full_matrix_plus_half(3)': "7984d9ddb475456748dd8040e29b0c254bcd92f707812417489f03d3ce3702d8",
}


def entry_digest(entry):
    doc = [spaces.space_to_json(entry.space), list(entry.expected.items())]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def test_every_entry_and_family_instance_matches_its_pinned_digest():
    built = {name: corpus.entry(name) for name in corpus.ENTRIES}
    built.update({call: eval("corpus." + call) for call in ENTRY_DIGESTS if call.startswith("build_")})
    assert {key: entry_digest(e) for key, e in built.items()} == ENTRY_DIGESTS


def test_entry_builds_the_entry_of_its_name_with_its_own_expected_dict():
    for name in corpus.ENTRIES:
        first, second = corpus.entry(name), corpus.entry(name)
        assert first.name == second.name == name
        assert first.expected == second.expected and first.expected is not second.expected
    assert [e.name for e in corpus.build_corpus()] == list(corpus.ENTRIES)


def test_select_entries_builds_only_the_named_entry(monkeypatch):
    calls = []
    make_space = spaces.make_space
    monkeypatch.setattr(spaces, "make_space", lambda *a, **k: calls.append(1) or make_space(*a, **k))
    assert [e.name for e in corpus.select_entries("column_H2")] == ["column_H2"]
    assert len(calls) == 1


def test_pick_entries_picks_from_the_built_entries(corpus_entries):
    built = list(corpus_entries.values())
    assert corpus.pick_entries(built, None) is built
    assert corpus.pick_entries(built, "column_H2") == [corpus_entries["column_H2"]]


def test_unknown_entry_is_refused_with_the_known_names():
    for call in (corpus.entry, corpus.select_entries, lambda name: corpus.pick_entries([], name)):
        with pytest.raises(InvalidInputError, match="no corpus entry named 'nope'") as err:
            call("nope")
        assert str(err.value).endswith("known: " + ", ".join(corpus.ENTRIES))


def test_l1_model_norm_converges_monotonically():
    # the (1, 1) element: max_j |1 + w^j| is exactly 2 at every even M
    prev = 0.0
    for k in range(2, 8):
        M = 2**k
        space = corpus.build_l1_2_model(M).space
        x = spaces.LevelElement(1, np.array([[[1.0, 1.0]]], dtype=complex))
        n = spaces.norm(space, x)
        assert n >= 2 - 2 * math.pi**2 / M**2
        assert n >= prev - 1e-12
        prev = n
    assert prev == pytest.approx(2.0, abs=1e-9)


def test_l1_model_small_cases():
    space4 = corpus.build_l1_2_model(4).space
    x = spaces.LevelElement(1, np.array([[[1.0, 1.0]]], dtype=complex))
    assert spaces.norm(space4, x) == pytest.approx(2.0, abs=1e-12)
    space64 = corpus.build_l1_2_model(64).space
    y = spaces.LevelElement(1, np.array([[[1.0, 0.5]]], dtype=complex))
    assert spaces.norm(space64, y) >= 1.4988


def test_multiplication_tensor_requires_closure():
    with pytest.raises(Exception):
        criteria.multiplication_tensor(corpus.entry("non_algebra_span").space)
    t = criteria.multiplication_tensor(corpus.build_upper_triangular(2).space)
    assert t.shape == (3, 3, 3)


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_multiplication_tensor_does_not_depend_on_the_basis_scale(scale):
    # a product's residual is divided by the norms of its factors, as in the closure checks
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    span = spaces.make_space(scale * np.stack([np.eye(2), e12, e12.T]).astype(complex),
                             unit=np.array([1.0 / scale, 0.0, 0.0]))
    with pytest.raises(InvalidInputError, match="not closed under multiplication"):
        criteria.multiplication_tensor(span)
    ut3 = spaces.make_space(scale * corpus.build_upper_triangular(3).space.basis)
    assert criteria.multiplication_tensor(ut3).shape == (6, 6, 6)


def test_trace_class_alpha_half_also_violates():
    entry = corpus.build_trace_class_2(alpha=0.5)
    rep = criteria.CRITERION_RUNNERS["unitary-four-rotation"](entry.space)
    assert rep.verdict == criteria.VIOLATED


def test_scalar_sup_space_holds():
    entry = corpus.build_linf(1)
    rep = criteria.CRITERION_RUNNERS["unitary-four-rotation"](entry.space, cfg=witness.SearchConfig(restarts=16))
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET


def test_twisted_unit_is_selfadjoint_unitary():
    space = corpus.entry("twisted_selfadjoint").space
    u = spaces.unit_matrix(space)
    assert np.allclose(u, matcore.dagger(u))
    assert np.allclose(u @ matcore.dagger(u), np.eye(2))


def test_non_algebra_span_facts():
    space = corpus.entry("non_algebra_span").space
    # selfadjoint as a set, but contains no identity
    for b in space.basis:
        assert spaces.membership_residual(space, matcore.dagger(b)) <= 1e-12
    assert spaces.membership_residual(space, np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_lower_triangular_L12_zero_norm_sanity():
    space = corpus.entry("lower_triangular_L12").space
    assert spaces.norm(space, zero_element(space)) == 0.0


def test_every_entry_runs_at_the_callers_config(corpus_reports):
    # no entry carries a config of its own: every config echo is the default's, and every proved row
    # (l1_2_model_64's two unitary rows among them) lists every default level
    cfg = witness.SearchConfig()
    reports = [(name, rep) for name, rows in corpus_reports.items() for rep in rows.values()]
    assert all(rep.config == cfg.to_dict() for _, rep in reports)
    proved = [(name, rep.levels_checked) for name, rep in reports if rep.proof]
    assert [name for name, _ in proved].count("l1_2_model_64") == 2
    assert all(levels == list(range(1, cfg.max_level + 1)) for _, levels in proved)


def test_corpus_thread_count_does_not_change_results():
    cfg = witness.SearchConfig(restarts=8)
    r1 = corpus.run_corpus(cfg, only="column_H2", threads=1)
    r8 = corpus.run_corpus(cfg, only="column_H2", threads=8)
    assert r1["rows"] == r8["rows"]


def test_write_space_files_round_trip(tmp_path, corpus_entries):
    paths = corpus.write_space_files(tmp_path, list(corpus_entries.values()))
    assert len(paths) == len(corpus_entries)
    reloaded = spaces.load_space_file(tmp_path / "non_algebra_span.json")
    rep = criteria.check_mult_closed(reloaded)
    assert rep.verdict == criteria.VIOLATED


def test_no_margin_or_trace_serializes_negative_zero(corpus_entries, corpus_reports):
    # the exact zeros of snapped witnesses and of encoded matrices are written 0.0, not -0.0
    reports = {f"1729/{name}/{crit}": report for name, by_crit in corpus_reports.items()
               for crit, report in by_crit.items()}
    reports.update({f"7/{name}/{crit}": report for name, entry in corpus_entries.items()
                    for crit, report in corpus.run_entry(entry, witness.SearchConfig(seed=7))})
    texts = {key: json.dumps(report.to_dict()) for key, report in reports.items()}
    assert not [key for key, text in texts.items() if re.search(r"-0\.0(?![0-9])", text)]
    for seed in (7, 1729):
        # the zeros checked: mult-closed encodes matrices with zero entries, and snapped witnesses hold exact zeros
        assert 0.0 in np.ravel(reports[f"{seed}/non_algebra_span/mult-closed"].witness["aux"]["y"])
        assert 0.0 in np.ravel(reports[f"{seed}/linf3_e1/unitary-t-gadget"].witness["coeffs"])
