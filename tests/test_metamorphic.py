"""Verdicts are invariant under complete isometries of the space.

The characterizations read only the matrix norms of X, so a seeded Haar
conjugation U X U*, a permutation of the basis and the direct sum X (+) X
must leave every verdict as it is.  The unit and the involution are carried
along with the basis, and a row proved by a ternary identity of the unit
stays proved by the same identity.  A reduced search budget keeps the suite
short; under it the untransformed spaces still reproduce their pinned corpus
verdicts.

The closure checks (``mult-closed`` and ``cstar-among-systems``) read the
subspace alone, not its coordinates, so they must also keep their verdicts
under a diagonal rescaling of the basis.  The searched rows are not held to
that: their restarts are drawn in coefficients, so a non-unitary basis
change moves what they find.

On the two corpus entries whose unit satisfies one half of the ternary
identity alone (``column_H2`` and ``left_identity_pair``), the route each
searched row takes (proved, constructed or searched) must survive a
complete isometry X -> U X V* that is no conjugation, a general change of
basis with the unit carried over, and X (+) X; so must the margin of a proved
or constructed row, which no draw decides.
"""

import dataclasses

import numpy as np
import pytest

from opspace import corpus, criteria, spaces, witness

from conftest import doubled, haar_unitary, rebuilt, two_sided_copy

CONFIG = witness.SearchConfig(restarts=8)
ASCENT_STEPS = 30

ENTRIES = {
    "linf3_ones": lambda: corpus.build_linf(3, "ones"),
    "linf3_e1": lambda: corpus.build_linf(3, "e1"),
    "twisted_selfadjoint": lambda: corpus.entry("twisted_selfadjoint"),
    "full_matrix_2": lambda: corpus.build_full_matrix(2),
    "full_matrix_2_plus_half": lambda: corpus.build_full_matrix_plus_half(2),
}

SEARCHED = ("unitary-four-rotation", "unitary-t-gadget", "coisometry", "isometry", "operator-system")


def conjugated(space):
    U = haar_unitary(space.p, seed=space.p * 1000 + space.dim)
    return rebuilt(space, U @ space.basis @ U.conj().T)


def permuted(space):
    perm = np.roll(np.arange(space.dim), 1)
    S = space.involution
    return rebuilt(space, space.basis[perm], unit=space.unit[perm], involution=S[np.ix_(perm, perm)])


def rescaled(space):
    """B_i scaled by d_i, log-spaced from 1e-3 to 1e3: the same subspace in new coordinates.

    The unit's coefficients become u_i / d_i and the involution D^-1 S D.
    """
    d = np.logspace(-3.0, 3.0, space.dim)
    return rebuilt(space, d[:, None, None] * space.basis, unit=space.unit / d,
                   involution=space.involution * d[None, :] / d[:, None])


TRANSFORMS = {"conjugated": conjugated, "permuted": permuted, "doubled": doubled}
CLOSURE_TRANSFORMS = dict(TRANSFORMS, rescaled=rescaled)
CLOSURE = ("mult-closed", "cstar-among-systems")


def verdicts(entry):
    """(verdict, proved identity or None) for each searched criterion of the entry."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness, "ASCENT_STEPS", ASCENT_STEPS)
        return {crit: (rep.verdict, (rep.proof or {}).get("identity"))
                for crit, rep in corpus.run_entry(entry, CONFIG) if crit in SEARCHED}


@pytest.fixture(scope="module")
def original_verdicts():
    return {name: verdicts(build()) for name, build in ENTRIES.items()}


def test_untransformed_spaces_keep_their_pinned_verdicts(original_verdicts):
    for name, build in ENTRIES.items():
        expected = {c: v for c, v in build().expected.items() if c in SEARCHED}
        assert {c: v for c, (v, _) in original_verdicts[name].items()} == expected, name
    proved = {name: sorted(c for c, (_, proof) in got.items() if proof)
              for name, got in original_verdicts.items()}
    assert proved == {
        "linf3_ones": sorted(SEARCHED),
        "linf3_e1": [],
        "twisted_selfadjoint": ["coisometry", "isometry", "unitary-four-rotation", "unitary-t-gadget"],
        "full_matrix_2": sorted(SEARCHED),
        "full_matrix_2_plus_half": [],
    }


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_verdicts_invariant_under_complete_isometries(original_verdicts, name, transform):
    entry = ENTRIES[name]()
    moved = dataclasses.replace(entry, space=TRANSFORMS[transform](entry.space))
    assert verdicts(moved) == original_verdicts[name]


def test_transforms_are_complete_isometries():
    # the transforms preserve the norm at level 2 of every coefficient grid
    rng = np.random.default_rng(11)
    for build in ENTRIES.values():
        space = build().space
        c = rng.normal(size=(6, 2, 2, space.dim)) + 1j * rng.normal(size=(6, 2, 2, space.dim))
        want = spaces.norm_stack(space, c)
        assert np.allclose(spaces.norm_stack(conjugated(space), c), want, rtol=1e-12, atol=0)
        assert np.allclose(spaces.norm_stack(doubled(space), c), want, rtol=1e-12, atol=0)
        perm = np.roll(np.arange(space.dim), 1)
        assert np.allclose(spaces.norm_stack(permuted(space), c[..., perm]), want, rtol=1e-12, atol=0)


def closure_verdicts(space):
    return {crit: criteria.CRITERION_RUNNERS[crit](space, cfg=CONFIG).verdict for crit in CLOSURE}


def test_untransformed_spaces_keep_their_closure_verdicts():
    H, V, I = criteria.HOLDS_WITHIN_BUDGET, criteria.VIOLATED, criteria.INCONCLUSIVE
    got = {name: tuple(closure_verdicts(build().space).values()) for name, build in ENTRIES.items()}
    assert got == {"linf3_ones": (H, H), "linf3_e1": (H, H), "twisted_selfadjoint": (V, I),
                   "full_matrix_2": (H, H), "full_matrix_2_plus_half": (V, I)}


@pytest.mark.parametrize("transform", sorted(CLOSURE_TRANSFORMS))
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_closure_verdicts_invariant_under_isometries_and_basis_rescaling(name, transform):
    space = ENTRIES[name]().space
    assert closure_verdicts(CLOSURE_TRANSFORMS[transform](space)) == closure_verdicts(space)


ONE_SIDED = ("column_H2", "left_identity_pair")


def recoordinated(space):
    """The same subspace in the coordinates B'_i = sum_j A_ij B_j for a seeded complex A, the unit carried over.

    The unit's coefficients u' solve A^T u' = u; the space has no involution to carry.
    """
    rng = np.random.default_rng(space.dim)
    A = np.eye(space.dim) + 0.5 * (rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2))
    return spaces.make_space(np.tensordot(A, space.basis, axes=1), unit=np.linalg.solve(A.T, space.unit))


ONE_SIDED_TRANSFORMS = {"two-sided": lambda space: two_sided_copy(space, 3), "recoordinated": recoordinated,
                        "doubled": doubled}


def route(report):
    """proved (a ternary identity), constructed (a witness at the bound, no search) or searched."""
    if report.proof is not None:
        return "proved"
    return "searched" if report.trace else "constructed"


def routes(entry):
    """(route, verdict, margin) for each criterion of the entry."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness, "ASCENT_STEPS", ASCENT_STEPS)
        return {crit: (route(rep), rep.verdict, rep.margin) for crit, rep in corpus.run_entry(entry, CONFIG)}


@pytest.fixture(scope="module")
def one_sided_routes():
    return {name: routes(corpus.entry(name)) for name in ONE_SIDED}


def test_one_sided_entries_take_each_route(one_sided_routes):
    got = {name: {crit: r for crit, (r, _, _) in by_crit.items()} for name, by_crit in one_sided_routes.items()}
    assert got == {
        "column_H2": {"isometry": "proved", "coisometry": "searched",
                      "unitary-four-rotation": "constructed", "unitary-t-gadget": "constructed"},
        "left_identity_pair": {"coisometry": "proved", "isometry": "searched",
                               "unitary-four-rotation": "constructed", "unitary-t-gadget": "constructed"},
    }


@pytest.mark.parametrize("transform", sorted(ONE_SIDED_TRANSFORMS))
@pytest.mark.parametrize("name", ONE_SIDED)
def test_one_sided_routes_and_margins_invariant_under_isometries_and_basis_change(one_sided_routes, name,
                                                                                 transform):
    entry = corpus.entry(name)
    moved = routes(dataclasses.replace(entry, space=ONE_SIDED_TRANSFORMS[transform](entry.space)))
    want = one_sided_routes[name]
    assert {c: v[:2] for c, v in moved.items()} == {c: v[:2] for c, v in want.items()}
    # a searched margin moves under a basis change (module docstring); a proved or constructed one is exact
    for crit, (how, _, margin) in moved.items():
        if how != "searched":
            assert margin == pytest.approx(want[crit][2], rel=0, abs=1e-12), crit
