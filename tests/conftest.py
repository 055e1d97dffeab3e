import numpy as np
import pytest

from opspace import corpus, criteria, gadgets, matcore, spaces, witness
from opspace.errors import InvalidInputError, NumericalError, ShapeError


# Test-only constructors: no module of the package calls them.


def block(blocks) -> np.ndarray:
    """Assemble a grid (list of rows) of matrices into one matrix.

    Raises ShapeError when row heights or column widths are ragged.
    """
    rows = [[matcore.as_cmat(b, check_finite=False) for b in row] for row in blocks]
    if not rows or not rows[0]:
        raise ShapeError("block grid must be non-empty")
    ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise ShapeError("block grid rows have differing lengths")
        heights = {b.shape[0] for b in row}
        if len(heights) != 1:
            raise ShapeError("blocks within a grid row have differing row counts")
    for j in range(ncols):
        widths = {row[j].shape[1] for row in rows}
        if len(widths) != 1:
            raise ShapeError("blocks within a grid column have differing column counts")
    return np.block([[b for b in row] for row in rows])


def rand_cmat(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of independent standard complex Gaussian entries drawn from ``rng``."""
    if rows < 1 or cols < 1:
        raise InvalidInputError("matrix dimensions must be positive")
    z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return z / np.sqrt(2.0)


def apply_involution(space, x):
    """The element x* = [x*_{ji}]: grid transposed, coefficients c -> S conj(c)."""
    return spaces.LevelElement(x.level, spaces.involution_stack(space, x.coeffs))


def zero_element(space, level: int = 1):
    return spaces.LevelElement(level, np.zeros((level, level, space.dim), dtype=np.complex128))


@pytest.fixture(scope="session")
def default_cfg():
    return witness.SearchConfig()


@pytest.fixture(scope="session")
def corpus_entries():
    return {e.name: e for e in corpus.build_corpus()}


@pytest.fixture(scope="session")
def corpus_reports(corpus_entries):
    """Every corpus entry run once under the default config (shared across tests)."""
    out = {}
    for name, entry in corpus_entries.items():
        cfg = witness.SearchConfig()
        out[name] = dict(corpus.run_entry(entry, cfg))
    return out


@pytest.fixture(scope="session")
def criterion_cache(corpus_entries, corpus_reports):
    """Reports per (entry, criterion), extending the corpus runs on demand."""
    cache = {}
    for name, reports in corpus_reports.items():
        for crit, rep in reports.items():
            cache[(name, crit)] = rep

    def get(name, crit):
        if (name, crit) not in cache:
            entry = corpus_entries[name]
            cfg = witness.SearchConfig()
            cache[(name, crit)] = criteria.CRITERION_RUNNERS[crit](entry.space, cfg=cfg)
        return cache[(name, crit)]

    return get


def haar_unitary(d, seed):
    """A Haar-distributed d x d unitary drawn from a seeded generator."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rebuilt(space, basis, unit=None, involution=None):
    """A space on ``basis``, with ``space``'s unit and involution unless others are given."""
    return spaces.make_space(
        basis,
        unit=space.unit if unit is None else unit,
        involution=space.involution if involution is None else involution,
    )


def doubled(space):
    """X (+) X: each B_l becomes B_l (+) B_l, the unit and involution carried over."""
    k, p, q = space.basis.shape
    basis = np.zeros((k, 2 * p, 2 * q), dtype=np.complex128)
    basis[:, :p, :q] = basis[:, p:, q:] = space.basis
    return rebuilt(space, basis)


def two_sided_copy(space, seed):
    """U X V* for Haar unitaries U (p x p) and V (q x q) drawn from ``seed``, the unit carried over.

    A complete isometry that is no conjugation (V != U), so it keeps neither
    u u* nor u* u, only their action on the copy; the involution is dropped.
    """
    U, V = haar_unitary(space.p, seed), haar_unitary(space.q, seed + 1)
    return spaces.make_space(U @ space.basis @ V.conj().T, unit=space.unit)


def random_element(space, level, rng, target_norm=None):
    """One random element of level ``level``: the first grid of ``spaces.random_stack``, scaled to ``target_norm``."""
    coeffs = spaces.random_stack(space, level, rng, 1)
    if target_norm is not None:
        coeffs = spaces.scale_to_norms(space, coeffs, target_norm)
    return spaces.LevelElement(level, coeffs[0])


def gadget_operands(space, x):
    """The realized (u_n, x) of one element x of M_n(X), u_n the unit amplified to x's level."""
    return matcore.scalar_amplify(spaces.unit_matrix(space), x.level), spaces.realize(space, x)


def symmetric_gadget(space, x):
    """[[u_n, x], [x*, u_n]] of one element, x* from the space's involution, as ``formulas`` forms it."""
    un, X = gadget_operands(space, x)
    return gadgets.two_by_two_stack(un, X, spaces.realize(space, apply_involution(space, x)), un)


def mult_rows(x, y, z, b):
    """The 2x4 block matrix [[0, y, 1, 0], [2, x, z, b]] and its row [2, x, z, b], for single d x d entries."""
    one = np.eye(x.shape[0], dtype=np.complex128)
    zero = np.zeros_like(one)
    return (block([[zero, y, one, zero], [2 * one, x, z, b]]),
            block([[2 * one, x, z, b]]))


# The paper's multiplicative rows, the oracle the closure checks are tested
# against: each helper takes matrices with leading batch axes, and gives each
# matrix of a stack the bytes it gets alone.


def _square_like(name: str, m, d: int) -> np.ndarray:
    a = matcore.as_cstack(m)
    if a.shape[-2:] != (d, d):
        raise ShapeError(f"{name} must be {d}x{d}, got {a.shape}")
    return a


def _first_at(bad: np.ndarray) -> str:
    """Where the first True of ``bad`` sits in a stack, for messages; empty for a single matrix."""
    if bad.ndim == 0:
        return ""
    return f" at stack index {tuple(int(i) for i in np.argwhere(bad)[0])}"


def build_M_pm(x, y, z, b, sign: str = "+", one=None) -> np.ndarray:
    """Normalized 2x6 block rows that detect multiplicative structure, over stacks (..., d, d).

    Row one is [y, 0, 1, x, b, z]; row two is [x, b, z, y, 0, 1] for sign "+"
    and [x, b, z, -y, 0, -1] for sign "-".  ``one`` (a single d x d matrix,
    the identity by default) stands for 1: a unit v below the identity gives
    the rows of the corner v M v.  Each result is divided by its operator
    norm, so a well-formed instance has orthonormal block rows (in the corner:
    M M* = v (+) v).  The leading axes of the entries broadcast; a single
    matrix is a stack of one.
    """
    x = matcore.as_cstack(x)
    d = x.shape[-1]
    if x.shape[-2] != d:
        raise ShapeError("entries must be square")
    y, z, b = (_square_like(n, m, d) for n, m in (("y", y), ("z", z), ("b", b)))
    x, y, z, b = np.broadcast_arrays(x, y, z, b)
    one = np.broadcast_to(np.eye(d, dtype=np.complex128) if one is None else _square_like("one", one, d), x.shape)
    zero = np.zeros(x.shape, dtype=np.complex128)
    if sign == "+":
        bottom = [x, b, z, y, zero, one]
    elif sign == "-":
        bottom = [x, b, z, -y, zero, -one]
    else:
        raise InvalidInputError("sign must be '+' or '-'")
    m = np.concatenate([np.concatenate([y, zero, one, x, b, z], axis=-1),
                        np.concatenate(bottom, axis=-1)], axis=-2)
    nm = matcore.op_norm_stack(m)
    if (nm <= 0).any():
        raise InvalidInputError(f"gadget norm is zero{_first_at(nm <= 0)}; nothing to normalize")
    return m / nm[..., None, None]


#: The negative eigenvalues ``psd_sqrt`` lets pass, relative to the largest modulus (at least 1).
PSD_TOL = 1e-10


def psd_sqrt(h) -> np.ndarray:
    """Positive square roots of Hermitian PSD matrices (..., d, d); rejects eigenvalues below -PSD_TOL.

    The tolerance is relative to the largest eigenvalue's modulus (at least 1)
    of each matrix, and the error names the first matrix of the stack below it.
    """
    h = matcore.as_cstack(h)
    w, v = np.linalg.eigh((h + matcore.dagger(h)) / 2.0)
    low = w.min(axis=-1) < -PSD_TOL * np.maximum(1.0, np.abs(w.max(axis=-1)))
    if low.any():
        first = w[tuple(np.argwhere(low)[0])] if low.ndim else w
        raise NumericalError(f"operand{_first_at(low)} is not positive semidefinite "
                             f"(min eigenvalue {first.min():.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ matcore.dagger(v)


def proof_b(x, y, z, one=None) -> np.ndarray:
    """The filler sqrt(||h|| 1 - h), h = xx* + yy* + zz*, over stacks (pass y=0 for the 2x4 rows).

    ``one`` (a single matrix, the identity by default) stands for 1, as in ``build_M_pm``.
    """
    x, y, z = (matcore.as_cstack(m) for m in (x, y, z))
    h = x @ matcore.dagger(x) + y @ matcore.dagger(y) + z @ matcore.dagger(z)
    one = np.eye(h.shape[-1]) if one is None else one
    return psd_sqrt(matcore.op_norm_stack(h)[..., None, None] * one - h)


def corner_unit(space) -> np.ndarray:
    """The 1 of the C*-check's rows: the realized unit v when v = v* and v B = B = B v on every basis element B
    (to 1e-12; X then lies in the corner v M v), else the ambient identity."""
    v = spaces.unit_matrix(space)
    B = space.basis
    if max(np.abs(v - matcore.dagger(v)).max(), np.abs(v @ B - B).max(), np.abs(B @ v - B).max()) <= 1e-12:
        return v
    return np.eye(space.p, dtype=np.complex128)


def closure_row_deviations(space, x, y, fillers=()):
    """||[[0, y, 1, 0], [2, x, z, b]]|| - ||[2, x, z, b]|| with z = -P(x y*), both rows assembled.

    One deviation for the canonical filler b (``proof_b`` with y = 0),
    then one for each of ``fillers``; the norms are ``matcore.op_norm_stack``
    of the stacked rows.
    """
    z = -spaces.project_stack(space, x @ matcore.dagger(y))
    rows = [mult_rows(x, y, z, b) for b in (proof_b(x, np.zeros_like(x), z), *fillers)]
    full, row = (np.stack(part) for part in zip(*rows))
    return matcore.op_norm_stack(full) - matcore.op_norm_stack(row)


def adjoint_block(x, z, t):
    """[[t 1, x], [-z, t 1]] for single square x, z, assembled: the oracle for ``criteria.check_adjoint``,
    which measures ||x - z*|| / 2, the supremum of the block's gap over t, and never assembles it."""
    tI = float(t) * np.eye(x.shape[0], dtype=np.complex128)
    return gadgets.two_by_two_stack(tI, x, -z, tI)


#: Angles theta of the circle points z = 1 + e^(i theta) at which the positivity oracle assembles 1 - z x;
#: theta = 0 is z = 2.
CIRCLE_THETAS = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)


def circle_norms(x, thetas=CIRCLE_THETAS) -> np.ndarray:
    """||1 - z x|| at z = 1 + e^(i theta) for a single square x, assembled: the oracle for
    ``criteria.check_positive``, which measures ||1 - 2x|| - 1 and ||x - x*|| / 2 and never samples the circle."""
    x = matcore.as_cmat(x)
    z = 1.0 + np.exp(1j * np.asarray(thetas))
    return matcore.op_norm_stack(np.eye(x.shape[0]) - z[:, None, None] * x)


def build_Ue(space, e):
    """The doubling space U(X, e): the span of [[e, 0], [0, e]] and the [[0, B_i], [0, 0]] in M_{2p x 2q}.

    Its distinguished element is e (x) I_2, the first basis element.
    """
    E = spaces.realize_stack(space, np.asarray(e, dtype=np.complex128).reshape(1, 1, -1))
    p, q, k = space.p, space.q, space.dim
    basis = np.zeros((k + 1, 2 * p, 2 * q), dtype=np.complex128)
    basis[0, :p, :q] = E
    basis[0, p:, q:] = E
    basis[1:, :p, q:] = space.basis
    unit = np.zeros(k + 1, dtype=np.complex128)
    unit[0] = 1.0
    return spaces.make_space(basis, unit=unit)


def oracle_space_with_involution():
    """The 2x2 trace-norm oracle space, given the involution that swaps the E12 and E21 coefficients."""
    tc2 = corpus.build_trace_class_2().space
    swap = np.eye(4)[[0, 2, 1, 3]]
    return spaces.make_space(tc2.basis, unit=tc2.unit, involution=swap,
                             norm_mode=spaces.LEVEL1_ORACLE, level1_oracle="trace_norm")


def operator_system(basis, unit, involution):
    return spaces.make_space(np.asarray(basis, dtype=complex), unit=unit, involution=involution)


def tridiagonal_3():
    """span{E_ii, E_{i,i+1}, E_{i+1,i}} in M_3 with unit I: an operator system that is no algebra."""
    cells = [(i, j) for i in range(3) for j in range(3) if abs(i - j) <= 1]
    basis = np.zeros((len(cells), 3, 3))
    for s, (i, j) in enumerate(cells):
        basis[s, i, j] = 1.0
    involution = np.zeros((len(cells), len(cells)))
    for s, (i, j) in enumerate(cells):
        involution[cells.index((j, i)), s] = 1.0
    unit = [1.0 if i == j else 0.0 for i, j in cells]
    return operator_system(basis, unit, involution)


def non_algebra_system():
    """span{E_12, E_21} with u = E_12 + E_21 and the swap as involution."""
    nas = corpus.entry("non_algebra_span").space
    return operator_system(nas.basis, [1.0, 1.0], [[0, 1], [1, 0]])


def evaluate_witness(entry, report):
    """Re-evaluate a VIOLATED search report's stored witness from scratch."""
    elem = report.witness_element()
    assert elem is not None
    return criteria.SEARCH_CRITERIA[report.criterion].value_at(entry.space, entry.space.unit, elem)
