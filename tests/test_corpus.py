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


#: sha256 of each entry's space JSON, expected items in order, tolerance and max_level, for the 13 corpus
#: entries and the family instances the tests build: any change to a space, a verdict or its order moves one.
ENTRY_DIGESTS = {
    "linf3_ones": "4ef1a398f1d1115e42dd5cc405ebfb88fbe09552dc76eb94ee0bb9a5e8cbf914",
    "linf3_e1": "172b01c1746d015e02bfd574240a97999576013382b3171b9dcc3bc4fc66881c",
    "trace_class_2": "88d26127e72f5441896a17355a4b70094151060c4cb3521451148fd9dd88f2d4",
    "lower_triangular_L12": "aa756ed4a80b773c239d5ea5227a981c38f445d7d8a1b373aaa7da7a19f89d4e",
    "l1_2_diag_trace": "f6e7a42688807b1745aa6060cdf003adad55e6d021c449a648337b22cba8088b",
    "l1_2_model_64": "9573c033ea1c945a825729e2f2bbbe41b4b7bcdde5ba6483f1d3c4b833c1c473",
    "column_H2": "cd1a55509c202d78a1a4371b06729795f4682eb622ca07e8a25d5b754786dd8b",
    "twisted_selfadjoint": "fb994b9db2ea3c69c582a2ff9e3c42fc7de91136bc61b80a6451b6a0a55e85e3",
    "upper_triangular_2": "bf39662b3cab28e44b8a2b411b068cd00036b05d8222fcf01e406b2b9574a6e5",
    "full_matrix_2": "eec8c4f038ffedaa0d2bdcbbfdb6b11d796d0bd66b5ce4391e183248184e078b",
    "full_matrix_2_plus_half": "39d52653b63081b2395b21877ce4bdedeb0b7137a028d988ef47a2e903de2674",
    "non_algebra_span": "39e541b5dddeb7d07c242d1c4805d6623a7378d23f046f125886539f35a0fc85",
    "left_identity_pair": "984e4277ac0e311384cc9f76d29ac76cb370dbab6d5cf0c23a4c62d502e1acd7",
    'build_linf(1, "ones")': "2768cb6e58d7f34a311cdcfb0788b03887e958d8be5b91cf9655b8541ce0c33f",
    'build_linf(1, "e1")': "64e4f3c881ac675b9ef48cd02e0aa3bd9d608abe92276b441b0d76985b534e01",
    'build_trace_class_2(alpha=0.5)': "24ed6bff48c9aa7af4365890891d714d34108396a45bc100a562a695be21a36e",
    'build_l1_2_model(4)': "19ee6ad0b1fa78b09af3fd9160b0158d17a9e2b8c04ade1dbf906944715a63bb",
    'build_l1_2_model(16)': "343fd8f8e258f01da7a9ec34189b5cdddc49d2cd7ee203759e86fee57193bd7e",
    'build_upper_triangular(3)': "c0cf21010231ea662c2de38095a72674da862dcd42ae9ad8bd18d99e1174f93b",
    'build_full_matrix(3)': "103c390039135d4d16698c54ba250900f5e84d769a0509e84c2e5cae39442b5c",
    'build_full_matrix_plus_half(3)': "29bab70bb0a2bcb7a71be5121aa34acd46e5ffbd937aaff90a4c17831c180078",
}


def entry_digest(entry):
    doc = [spaces.space_to_json(entry.space), list(entry.expected.items()), entry.tolerance, entry.max_level]
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
