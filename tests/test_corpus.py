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
        corpus.multiplication_tensor(corpus.build_non_algebra_span().space)
    t = corpus.multiplication_tensor(corpus.build_upper_triangular(2).space)
    assert t.shape == (3, 3, 3)


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_multiplication_tensor_does_not_depend_on_the_basis_scale(scale):
    # a product's residual is divided by the norms of its factors, as in the closure checks
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    span = spaces.make_space(scale * np.stack([np.eye(2), e12, e12.T]).astype(complex),
                             unit=np.array([1.0 / scale, 0.0, 0.0]))
    with pytest.raises(InvalidInputError, match="not closed under multiplication"):
        corpus.multiplication_tensor(span)
    ut3 = spaces.make_space(scale * corpus.build_upper_triangular(3).space.basis)
    assert corpus.multiplication_tensor(ut3).shape == (6, 6, 6)


def test_trace_class_alpha_half_also_violates():
    entry = corpus.build_trace_class_2(alpha=0.5)
    rep = criteria.CRITERION_RUNNERS["unitary-four-rotation"](entry.space)
    assert rep.verdict == criteria.VIOLATED


def test_scalar_sup_space_holds():
    entry = corpus.build_linf(1)
    rep = criteria.CRITERION_RUNNERS["unitary-four-rotation"](entry.space, cfg=witness.SearchConfig(restarts=16))
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET


def test_twisted_unit_is_selfadjoint_unitary():
    space = corpus.build_twisted_selfadjoint().space
    u = spaces.unit_matrix(space)
    assert np.allclose(u, matcore.dagger(u))
    assert np.allclose(u @ matcore.dagger(u), np.eye(2))


def test_non_algebra_span_facts():
    space = corpus.build_non_algebra_span().space
    # selfadjoint as a set, but contains no identity
    for b in space.basis:
        assert spaces.membership_residual(space, matcore.dagger(b)) <= 1e-12
    assert spaces.membership_residual(space, np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_lower_triangular_L12_zero_norm_sanity():
    space = corpus.build_lower_triangular_L12().space
    assert spaces.norm(space, zero_element(space)) == 0.0


def test_corpus_thread_count_does_not_change_results():
    cfg = witness.SearchConfig(restarts=8)
    r1 = corpus.run_corpus(cfg, only="column_H2", threads=1)
    r8 = corpus.run_corpus(cfg, only="column_H2", threads=8)
    assert r1["rows"] == r8["rows"]


def test_write_space_files_round_trip(tmp_path, corpus_entries):
    paths = corpus.write_space_files(tmp_path)
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
