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
"""

import dataclasses

import numpy as np
import pytest

from opspace import corpus, criteria, spaces, witness

from conftest import haar_unitary

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


def rebuilt(space, basis, unit=None, involution=None):
    return spaces.make_space(
        basis,
        unit=space.unit if unit is None else unit,
        involution=space.involution if involution is None else involution,
    )


def conjugated(space):
    U = haar_unitary(space.p, seed=space.p * 1000 + space.dim)
    return rebuilt(space, U @ space.basis @ U.conj().T)


def permuted(space):
    perm = np.roll(np.arange(space.dim), 1)
    S = space.involution
    return rebuilt(space, space.basis[perm], unit=space.unit[perm], involution=S[np.ix_(perm, perm)])


def doubled(space):
    k, p, q = space.basis.shape
    basis = np.zeros((k, 2 * p, 2 * q), dtype=np.complex128)
    basis[:, :p, :q] = basis[:, p:, q:] = space.basis
    return rebuilt(space, basis)


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
