"""HOLDS proved from a ternary identity of the unit, cross-checked against the search.

A searched criterion on an embedded space is proved, not searched, when its
distinguished element satisfies the identity of its SEARCH_CRITERIA row on
every basis element (see ``criteria._ternary_proof``).  These tests pin which
corpus rows that proves, run a reduced search on each of them (it must find
no violation), and check that nothing else is proved.
"""

import json

import numpy as np
import pytest

from opspace import corpus, criteria, spaces, witness
from opspace.errors import InvalidInputError

SEARCHED = tuple(criteria.SEARCH_CRITERIA)
SMALL = witness.SearchConfig(restarts=8)
SMALL_STEPS = 30  # witness.ASCENT_STEPS under SMALL

#: Every corpus row whose unit satisfies its criterion's identity exactly.
PROVED = {
    ("linf3_ones", "unitary-four-rotation"), ("linf3_ones", "unitary-t-gadget"),
    ("linf3_ones", "coisometry"), ("linf3_ones", "isometry"), ("linf3_ones", "operator-system"),
    ("l1_2_model_64", "unitary-four-rotation"), ("l1_2_model_64", "unitary-t-gadget"),
    ("column_H2", "isometry"),
    ("twisted_selfadjoint", "unitary-four-rotation"), ("twisted_selfadjoint", "unitary-t-gadget"),
    ("twisted_selfadjoint", "coisometry"), ("twisted_selfadjoint", "isometry"),
    ("upper_triangular_2", "unitary-four-rotation"), ("upper_triangular_2", "unitary-t-gadget"),
    ("upper_triangular_2", "coisometry"), ("upper_triangular_2", "isometry"),
    ("full_matrix_2", "unitary-four-rotation"), ("full_matrix_2", "unitary-t-gadget"),
    ("full_matrix_2", "coisometry"), ("full_matrix_2", "isometry"),
    ("full_matrix_2", "operator-system"),
    ("left_identity_pair", "coisometry"),
}


def searched_reports(corpus_reports):
    for name, reports in corpus_reports.items():
        for crit, rep in reports.items():
            if crit in SEARCHED:
                yield name, crit, rep


def test_proved_rows_are_exactly_the_identity_rows(corpus_entries, corpus_reports):
    proved = {(name, crit) for name, crit, rep in searched_reports(corpus_reports) if rep.proof}
    assert proved == PROVED
    for name, crit in PROVED:
        rep = corpus_reports[name][crit]
        cfg = corpus.entry_config(corpus_entries[name], witness.SearchConfig())
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
        assert (rep.margin, rep.samples, rep.trace, rep.witness) == (0.0, 0, [], None)
        assert rep.levels_checked == list(range(1, cfg.max_level + 1))
        assert rep.proof["identity"] == criteria.IDENTITIES[criteria.SEARCH_CRITERIA[crit].proof]
        assert rep.proof["tolerance"] == criteria.PROOF_TOL
        assert 0.0 <= rep.proof["residual"] <= criteria.PROOF_TOL
        assert rep.notes == [f"proved by the ternary identity {rep.proof['identity']}; no search run"]


def test_violated_and_level1_oracle_rows_are_not_proved(corpus_entries, corpus_reports):
    for name, crit, rep in searched_reports(corpus_reports):
        space = corpus_entries[name].space
        if rep.verdict == criteria.VIOLATED or space.norm_mode == spaces.LEVEL1_ORACLE:
            assert rep.proof is None, (name, crit)
            assert rep.samples > 0, (name, crit)


def test_unit_without_an_identity_still_searches(corpus_reports):
    # I + I/2 on M_2 + M_2/2: u u* B = B + B/8, so every HOLDS here rests on the search
    for crit, rep in corpus_reports["full_matrix_2_plus_half"].items():
        assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
        assert rep.proof is None and rep.samples > 0 and rep.trace, crit
    space = corpus.build_full_matrix_plus_half(2).space
    U = np.tensordot(space.unit, space.basis, axes=1)
    B = space.basis
    assert np.abs(U @ U.conj().T @ B - B).max() == pytest.approx(0.375)


@pytest.mark.parametrize("name,crit", sorted(PROVED))
def test_a_search_on_every_proved_row_finds_no_violation(monkeypatch, corpus_entries, name, crit):
    # SearchCriterion.search runs the row's search and tries no proof
    monkeypatch.setattr(witness, "ASCENT_STEPS", SMALL_STEPS)
    entry = corpus_entries[name]
    cfg = corpus.entry_config(entry, SMALL)
    rep = criteria.SEARCH_CRITERIA[crit].search(entry.space, entry.space.unit, cfg)
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET, rep.margin
    assert rep.proof is None and rep.samples > 0


def test_left_identity_pair_gets_a_left_proof_only(criterion_cache):
    space = corpus.entry("left_identity_pair").space
    assert criteria._ternary_proof("left", space, space.unit)["identity"] == "u u* B = B"
    assert criteria._ternary_proof("right", space, space.unit) is None
    assert criteria._ternary_proof("both", space, space.unit) is None
    assert criterion_cache("left_identity_pair", "coisometry").proof["identity"] == "u u* B = B"
    for crit in ("isometry", "unitary-four-rotation", "unitary-t-gadget"):
        rep = criterion_cache("left_identity_pair", crit)
        assert rep.verdict == criteria.VIOLATED and rep.proof is None


def test_twisted_selfadjoint_gets_no_corner_unit_proof(criterion_cache):
    # E12 + E21 is a selfadjoint unitary, but not the unit of a corner holding the space
    space = corpus.entry("twisted_selfadjoint").space
    assert criteria._ternary_proof("both", space, space.unit) is not None
    assert criteria._ternary_proof("corner-unit", space, space.unit) is None
    rep = criterion_cache("twisted_selfadjoint", "operator-system")
    assert rep.verdict == criteria.VIOLATED and rep.proof is None


def test_level1_oracle_spaces_always_search(monkeypatch):
    monkeypatch.setattr(witness, "ASCENT_STEPS", SMALL_STEPS)
    # span{E11} with the trace norm: u u* B = B holds, but there is no ambient to prove it in
    space = spaces.make_space(np.array([[[1.0, 0.0], [0.0, 0.0]]]), unit=[1.0],
                              norm_mode=spaces.LEVEL1_ORACLE, level1_oracle="trace_norm")
    assert criteria._ternary_proof("both", space, space.unit) is None
    rep = criteria.CRITERION_RUNNERS["unitary-four-rotation"](space, cfg=SMALL)
    assert rep.verdict == criteria.HOLDS_WITHIN_BUDGET
    assert rep.proof is None and rep.samples > 0


def test_the_unit_passed_in_decides_the_proof(monkeypatch):
    space = corpus.build_full_matrix(2).space
    swap = np.array([0, 1, 1, 0], dtype=complex)  # E12 + E21, another unitary of M_2
    assert criteria.CRITERION_RUNNERS["unitary-four-rotation"](space, u=swap).proof is not None
    monkeypatch.setattr(witness, "ASCENT_STEPS", SMALL_STEPS)
    rep = criteria.CRITERION_RUNNERS["coisometry"](space, u=np.array([1, 0, 0, 0], dtype=complex), cfg=SMALL)
    assert rep.verdict == criteria.VIOLATED and rep.proof is None


def test_identity_residual_is_relative_to_the_basis_element():
    space = corpus.build_full_matrix(2).space
    near = criteria._ternary_proof("both", space, (1 - 1e-14) * space.unit)
    assert near is not None and 0.0 < near["residual"] <= criteria.PROOF_TOL
    assert criteria._ternary_proof("both", space, (1 - 1e-10) * space.unit) is None
    # an absolute 1e-12 would pass any unit on a basis this small
    tiny = spaces.make_space(1e-150 * space.basis, unit=1e150 * space.unit,
                             involution=space.involution)
    assert criteria._ternary_proof("both", tiny, tiny.unit) is not None
    assert criteria._ternary_proof("both", tiny, (1 - 1e-10) * tiny.unit) is None


def test_preconditions_still_refuse_before_the_proof():
    space = corpus.build_full_matrix(2).space
    with pytest.raises(InvalidInputError, match="restarts"):
        criteria.CRITERION_RUNNERS["coisometry"](space, cfg=witness.SearchConfig(restarts=-1))
    with pytest.raises(InvalidInputError, match="ambient guard"):
        criteria.CRITERION_RUNNERS["coisometry"](space, cfg=witness.SearchConfig(max_level=300))
    with pytest.raises(InvalidInputError, match="contraction"):
        criteria.CRITERION_RUNNERS["coisometry"](space, u=2 * space.unit)
    with pytest.raises(InvalidInputError, match="selfadjoint"):
        criteria.CRITERION_RUNNERS["operator-system"](space, u=np.array([0, 1, 0, 0], dtype=complex))


def test_report_with_proof_round_trips(criterion_cache):
    rep = criterion_cache("full_matrix_2", "coisometry")
    d = rep.to_dict()
    assert d["proof"] == rep.proof
    again = criteria.CheckReport.from_dict(json.loads(json.dumps(d)))
    assert again.proof == rep.proof
    assert again.to_dict() == d


def test_unproved_payloads_have_no_proof_key(corpus_reports):
    violated = 0
    for name, reports in corpus_reports.items():
        for crit, rep in reports.items():
            if rep.proof is None:
                assert "proof" not in rep.to_dict(), (name, crit)
                violated += rep.verdict == criteria.VIOLATED
    assert violated == 15
