"""How ``SearchCriterion.check`` decides a searched row: the proof, then the construction, then the search.

Each corpus row takes exactly one route, and these tests pin which.  Taking
a route away sends its rows to the next one: without the construction, the
one-sided unitary rows are searched and stay VIOLATED below the bound G_STAR
that the construction attains; without the proof, the rows of a unitary are
searched and stay HOLDS.  The search's winner is the first cell, in (level,
radius) order, with the strictly largest finite best, and the polish runs in
that cell's ball under that cell's cap.
"""

import numpy as np
import pytest

from opspace import corpus, criteria, spaces, witness

from test_metamorphic import ONE_SIDED
from test_one_sided import UNITARY
from test_ternary_proof import PROVED

CONSTRUCTED = {(name, crit) for name in ONE_SIDED for crit in UNITARY}

#: Every corpus row that neither the proof nor the construction decides, written out.
SEARCHED = {
    ("full_matrix_2_plus_half", "unitary-four-rotation"), ("full_matrix_2_plus_half", "unitary-t-gadget"),
    ("full_matrix_2_plus_half", "coisometry"), ("full_matrix_2_plus_half", "isometry"),
    ("l1_2_diag_trace", "unitary-four-rotation"),
    ("column_H2", "coisometry"),
    ("left_identity_pair", "isometry"),
    ("linf3_e1", "unitary-four-rotation"), ("linf3_e1", "unitary-t-gadget"), ("linf3_e1", "coisometry"),
    ("linf3_e1", "isometry"), ("linf3_e1", "operator-system"),
    ("lower_triangular_L12", "unitary-four-rotation"),
    ("trace_class_2", "unitary-four-rotation"),
    ("twisted_selfadjoint", "operator-system"),
}


def route(report):
    """proved, constructed or searched for a searched row; closed form or residual for any other check."""
    if report.proof is not None:
        return "proved"
    if report.notes and report.notes[0].startswith("constructed:"):
        return "constructed"
    return "searched" if report.trace else "closed form or residual"


def searched_rows(corpus_entries):
    """(entry name, criterion, entry) for every corpus row a ``SearchCriterion`` checks."""
    return [(name, crit, entry) for name, entry in corpus_entries.items()
            for crit in entry.expected if crit in criteria.SEARCH_CRITERIA]


def test_each_corpus_row_takes_its_route(corpus_reports):
    got = {(name, crit): route(rep) for name, reports in corpus_reports.items() for crit, rep in reports.items()}
    others = {row for row in got if row[1] not in criteria.SEARCH_CRITERIA}
    want = {**{row: "proved" for row in PROVED}, **{row: "constructed" for row in CONSTRUCTED},
            **{row: "searched" for row in SEARCHED}, **{row: "closed form or residual" for row in others}}
    assert got == want
    assert [len(rows) for rows in (PROVED, CONSTRUCTED, SEARCHED, others)] == [22, 4, 15, 5]


def test_without_the_construction_exactly_the_one_sided_rows_search(corpus_entries, corpus_reports, monkeypatch):
    monkeypatch.setattr(criteria.SearchCriterion, "_constructed", lambda self, *args: None)
    moved = set()
    for name, crit, entry in searched_rows(corpus_entries):
        rep = criteria.run_check(entry.space, crit, witness.SearchConfig())
        if rep.to_dict() == corpus_reports[name][crit].to_dict():
            continue
        moved.add((name, crit))
        assert route(rep) == "searched" and rep.verdict == criteria.VIOLATED, (name, crit)
        assert 0.0 < -rep.margin <= criteria.G_STAR, (name, crit)
    assert moved == CONSTRUCTED


def test_without_the_proof_the_rows_of_a_unitary_search_and_hold(corpus_entries, corpus_reports, monkeypatch):
    monkeypatch.setattr(criteria, "_ternary_proof", lambda kind, residuals: None)
    entry = corpus_entries["linf3_ones"]
    assert len(entry.expected) == 5
    for crit in entry.expected:
        assert route(corpus_reports["linf3_ones"][crit]) == "proved"
        rep = criteria.run_check(entry.space, crit, witness.SearchConfig())
        assert route(rep) == "searched" and rep.verdict == criteria.HOLDS_WITHIN_BUDGET, crit
        assert rep.samples > 0 and rep.witness is None, crit


def fake_result(level, tag, best):
    """A cell's SearchResult whose point is tagged, so the polish shows which cell it started from."""
    point = spaces.LevelElement(level, np.full((level, level, 3), tag, dtype=np.complex128))
    return witness.SearchResult(best_value=best, best_point=point, evaluations=2, restart_bests=[best, best])


@pytest.mark.parametrize("bests, polished_cell, levels", [
    # a tie across levels: the first in (level, radius) order wins, and the dead cell never does
    ({1: [-np.inf, -0.3, -0.1, -0.2], 2: [-0.1, -0.5, -np.inf, -0.4]}, (1, 2), [1, 2]),
    # a violation at level 1 stops the search there; the tie goes to the larger radius
    ({1: [-np.inf, 0.2, 0.5, 0.5], 2: [1.0, 1.0, 1.0, 1.0]}, (1, 2), [1]),
    # every cell died: no polish, no evidence
    ({1: [-np.inf] * 4, 2: [-np.inf] * 4}, None, [1, 2]),
])
def test_the_polish_starts_from_the_first_cell_with_the_largest_finite_best(monkeypatch, bests, polished_cell,
                                                                           levels):
    space = corpus.build_linf(3, "e1").space
    row = criteria.SEARCH_CRITERIA["unitary-four-rotation"]
    searched, polished = [], []

    def maximize_violation(objective, space, level, cfg, cells, mode, restarts, *, gradient, caps):
        searched.append(level)
        return [fake_result(level, 10 * level + ri, best) for ri, best in enumerate(bests[level])]

    def refine_witness(objective, space, point, radius, mode, *, gradient, cap):
        polished.append((int(point.coeffs.real.flat[0]), radius, cap))
        return witness.SearchResult(best_value=-np.inf, best_point=point, evaluations=1)

    monkeypatch.setattr(witness, "maximize_violation", maximize_violation)
    monkeypatch.setattr(witness, "refine_witness", refine_witness)
    rep = row.check(space, cfg=witness.SearchConfig())
    assert searched == levels and [cell["level"] for cell in rep.trace] == [n for n in levels for _ in range(4)]
    assert [cell["best"] for cell in rep.trace] == [b if np.isfinite(b) else None for n in levels for b in bests[n]]
    if polished_cell is None:
        assert polished == [] and rep.verdict == criteria.INCONCLUSIVE
        return
    level, ri = polished_cell
    radius = criteria.RADIUS_SWEEP[ri]
    cap = criteria._unitary_cap(radius, *criteria._unit_profile(space, criteria._unit_coeffs(space, None)))
    assert polished == [(10 * level + ri, radius, cap)]
    assert rep.margin == -bests[level][ri] and rep.samples == 8 * len(levels) + 1


def constructed(space, crit):
    """What ``_constructed`` gives the row ``crit`` at the space's unit, called directly, past the proof."""
    row, u = criteria.SEARCH_CRITERIA[crit], criteria._unit_coeffs(space, None)
    return row._constructed(space, u, witness.SearchConfig(), *criteria._identity_residuals(row.proof, space, u))


def test_the_construction_checks_its_own_precondition(corpus_entries):
    column_h2 = corpus_entries["column_H2"].space
    assert route(constructed(column_h2, "unitary-four-rotation")) == "constructed"
    assert constructed(column_h2, "isometry") is None  # not a unitary row, though its one half holds
    assert constructed(corpus_entries["linf3_e1"].space, "unitary-four-rotation") is None  # neither half holds
    assert constructed(corpus_entries["linf3_ones"].space, "unitary-four-rotation") is None  # both halves hold
    # u = [I_2 | 0] satisfies the left half alone, but no element of span{u, [[0, 1, 1], [1, 0, 0]]} has x u* = 0
    basis = np.array([[[1, 0, 0], [0, 1, 0]], [[0, 1, 1], [1, 0, 0]]], dtype=complex)
    assert constructed(spaces.make_space(basis, unit=[1.0, 0.0]), "unitary-four-rotation") is None
