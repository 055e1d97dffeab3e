"""The unitary rows on a one-sided unit: the bound every level obeys, and the witness that reaches it.

When u satisfies exactly one half of u u* B = B = B u* u, u u* (or u* u)
fixes X from one side, so ||u_n u_n* + x x*|| = 1 + ||x||^2 (or the same
with u_n* u_n + x* x) at every level.  The four rotations average that, and
the doubling gadget contains the row [u_n  x] (or the column [x ; u_n]), so
each gadget's norm is at least sqrt(1 + ||x||^2), and both objectives are
at most g(||x||) = sqrt(1 + ||x||) - sqrt(1 + ||x||^2), whose peak is G_STAR
at T_STAR.  An x that u annihilates on the other side makes the cross terms
vanish and reaches the bound, so ``SearchCriterion.check`` reports it at
||x|| = T_STAR and runs no search (see ``criteria._constructed``).
"""

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from opspace import corpus, criteria, gadgets, matcore, spaces, witness

from conftest import doubled, gadget_operands, random_element, two_sided_copy

UNITARY = ("unitary-four-rotation", "unitary-t-gadget")
EPS = np.finfo(float).eps


def column_space(n):
    """C_n: the n x 1 columns, with the isometry e_1 as unit (only B u* u = B holds)."""
    return spaces.make_space(np.eye(n)[:, :, None], unit=np.eye(n)[0])


def row_space(n):
    """R_n: the 1 x n rows, with the coisometry e_1 as unit (only u u* B = B holds)."""
    return spaces.make_space(np.eye(n)[:, None, :], unit=np.eye(n)[0])


def one_sided_spaces():
    """Spaces whose unit satisfies one half of u u* B = B = B u* u alone."""
    h2, pair = (corpus.entry(name).space for name in ("column_H2", "left_identity_pair"))
    return {"C2": column_space(2), "C3": column_space(3), "R2": row_space(2), "R3": row_space(3),
            "column_H2": h2, "left_identity_pair": pair,
            "column_H2_UXV": two_sided_copy(h2, 5), "left_identity_pair_UXV": two_sided_copy(pair, 6),
            "column_H2_sum": doubled(h2), "left_identity_pair_sum": doubled(pair)}


SPACES = one_sided_spaces()


def gadget_norms(space, x):
    """(||x||, the four ||u_n + i^k x||, ||[[u_n, x], [0, u_n]]||) for one element x, assembled."""
    un, X = gadget_operands(space, x)
    rotations = matcore.op_norm_stack(gadgets.four_rotation_stack(un, X))
    return matcore.op_norm(X), rotations, matcore.op_norm(gadgets.t_stack(un, X))


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_both_gadgets_are_at_least_the_row_norm_at_every_x(name, level):
    space = SPACES[name]
    halves, _ = criteria._identity_residuals("both", space, space.unit)
    assert sorted(r <= criteria.PROOF_TOL for r in halves.values()) == [False, True]
    rng = np.random.default_rng([level, space.p, space.q, space.dim])
    for target in rng.uniform(0.02, 2.0, size=24):
        nx, rotations, t_norm = gadget_norms(space, random_element(space, level, rng, target))
        floor = math.sqrt(1.0 + nx * nx) * (1.0 - 16 * EPS)
        assert rotations.max() >= floor and t_norm >= floor, (nx, rotations, t_norm)
        # so neither objective exceeds g(||x||), nor g(||x||) its peak
        assert math.sqrt(1.0 + nx) - math.sqrt(1.0 + nx * nx) <= criteria.G_STAR


@pytest.mark.parametrize("name", sorted(SPACES))
def test_the_constructed_witness_reaches_the_bound_with_every_rotation(name):
    space = SPACES[name]
    for crit in UNITARY:
        rep = criteria.run_check(space, crit, witness.SearchConfig())
        assert (rep.verdict, rep.samples, rep.trace, rep.proof, rep.levels_checked) == (
            criteria.VIOLATED, 1, [], None, [1])
        assert rep.notes[0].startswith("constructed: only the ") and len(rep.notes) == 1
        x = rep.witness_element()
        nx, rotations, t_norm = gadget_norms(space, x)
        assert nx == pytest.approx(criteria.T_STAR, rel=16 * EPS, abs=0)
        target = math.sqrt(1.0 + nx * nx)
        assert rotations == pytest.approx(np.full(4, target), rel=16 * EPS, abs=0)
        assert t_norm == pytest.approx(target, rel=16 * EPS, abs=0)
        # a difference of two norms near 1.1: its rounding is absolute
        assert -rep.margin == pytest.approx(criteria.G_STAR, rel=0, abs=16 * EPS)
        assert rep.witness["aux"]["violation"] == -rep.margin
        assert criteria.SEARCH_CRITERIA[crit].value_at(space, space.unit, x) == -rep.margin


def test_t_star_is_the_root_of_the_cubic_and_g_peaks_there():
    def cubic(t):  # exact at a double: 4 t^3 + 3 t^2 - 1, whose root in (0, 1) is where g' = 0
        t = Fraction(t)
        return 4 * t**3 + 3 * t**2 - 1

    below, above = np.nextafter(criteria.T_STAR, 0.0), np.nextafter(criteria.T_STAR, 1.0)
    assert cubic(below) < 0 < cubic(above)
    assert abs(cubic(criteria.T_STAR)) < min(abs(cubic(below)), abs(cubic(above)))  # the nearest double
    assert criteria.G_STAR == 0.10758698847905968
    g = lambda t: math.sqrt(1.0 + t) - math.sqrt(1.0 + t * t)
    assert all(g(t) <= criteria.G_STAR for t in np.linspace(0.0, 2.0, 2001))


#: The margins the search found on the four one-sided corpus rows before they were constructed.
SEARCHED_MARGINS = {
    (7, "column_H2", "unitary-four-rotation"): -0.10758698847905834,
    (7, "column_H2", "unitary-t-gadget"): -0.10758698846757664,
    (7, "left_identity_pair", "unitary-four-rotation"): -0.10758698847905812,
    (7, "left_identity_pair", "unitary-t-gadget"): -0.10758698846757664,
    (1729, "column_H2", "unitary-four-rotation"): -0.1075869884783136,
    (1729, "column_H2", "unitary-t-gadget"): -0.10758698842080894,
    (1729, "left_identity_pair", "unitary-four-rotation"): -0.1075869884783136,
    (1729, "left_identity_pair", "unitary-t-gadget"): -0.10758698842080894,
    (4242, "column_H2", "unitary-four-rotation"): -0.10758698847776915,
    (4242, "column_H2", "unitary-t-gadget"): -0.10758698846509462,
    (4242, "left_identity_pair", "unitary-four-rotation"): -0.10758698847776915,
    (4242, "left_identity_pair", "unitary-t-gadget"): -0.10758698846509462,
}


@pytest.mark.parametrize("seed, name, crit", sorted(SEARCHED_MARGINS))
def test_one_sided_corpus_rows_are_constructed_at_least_as_far_as_the_search_went(seed, name, crit):
    entry = corpus.entry(name)
    rep = criteria.run_check(entry.space, crit, witness.SearchConfig(seed=seed))
    assert (rep.verdict, rep.samples, rep.trace) == (criteria.VIOLATED, 1, [])
    searched = SEARCHED_MARGINS[seed, name, crit]
    assert rep.margin <= searched  # the violation is at least the one searched for
    assert -searched <= criteria.G_STAR  # and no search went past the bound


def fallback_space():
    """u = [I_2 | 0] in span{u, [[0, 1, 1], [1, 0, 0]]}: u u* = I_2 fixes X from the left, but no x has x u* = 0."""
    u = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return spaces.make_space(np.stack([u, np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])]), unit=[1.0, 0.0])


#: sha256 of the canonical JSON of the fallback space's reports, searched before the constructed route existed.
FALLBACK_DIGESTS = {
    ("unitary-four-rotation", 7): "6ff0febfc481c0bee7e979a7f38c75f007d44d3fd4c2144a0b263a29e811f944",
    ("unitary-four-rotation", 1729): "d1525e05f091f57d84ea4e27f63a94e03bd0f43344bfffe627ffc97ede14db0e",
    ("unitary-t-gadget", 7): "cf16618301bf5a7503b10d92bf3b544781c6e417150d4f3bb653092edbd5db5f",
    ("unitary-t-gadget", 1729): "53cbe90ffd477dc1496bce570c4ee10787609ed1938418660de2fb77da3fde56",
}


def test_a_one_sided_unit_without_an_annihilated_x_still_searches():
    space = fallback_space()
    halves, Uh = criteria._identity_residuals("both", space, space.unit)
    assert halves["left"] <= criteria.PROOF_TOL < halves["right"]
    assert criteria._annihilated(space, Uh, "left") is None
    for (crit, seed), digest in FALLBACK_DIGESTS.items():
        rep = criteria.run_check(space, crit, witness.SearchConfig(seed=seed))
        assert rep.verdict == criteria.VIOLATED and rep.samples > 1 and rep.trace
        assert -rep.margin < criteria.G_STAR  # the bound holds, and this space stays below it
        payload = json.dumps(rep.to_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, (crit, seed)


def test_only_the_one_sided_unitary_rows_of_the_corpus_are_constructed(corpus_reports):
    constructed = {(name, crit) for name, reports in corpus_reports.items() for crit, rep in reports.items()
                   if rep.notes and rep.notes[0].startswith("constructed:")}
    assert constructed == {(name, crit) for name in ("column_H2", "left_identity_pair") for crit in UNITARY}


def test_a_one_sided_unit_on_a_large_ambient_is_constructed_in_small_memory():
    # u = [I_p | 0] in span{u, [0 | e_1]}: x0 u* = 0 for the second, and the map c -> sum_l c_l B_l u* has
    # p^2 rows; its full left SVD factor would hold p^4 complex entries (268 MB at p = 64)
    p = 64
    u, x0 = np.zeros((p, p + 1)), np.zeros((p, p + 1))
    u[:, :p], x0[0, p] = np.eye(p), 1.0
    space = spaces.make_space(np.stack([u, x0]), unit=[1.0, 0.0])
    for crit in UNITARY:
        tracemalloc.start()
        try:
            rep = criteria.run_check(space, crit, witness.SearchConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.verdict, rep.samples, rep.trace) == (criteria.VIOLATED, 1, [])
        assert -rep.margin == pytest.approx(criteria.G_STAR, rel=0, abs=16 * EPS)
        assert peak < 16 * 2**20, peak
