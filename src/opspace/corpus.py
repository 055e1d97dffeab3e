"""Reference spaces wired to expected verdicts for regression.

Each builder returns a CorpusEntry: a concrete space, the criteria worth
running on it, and the verdicts those criteria must reproduce under the
default search budget with the pinned seed.  ``write_space_files`` serializes
their space definitions, and ``run_check`` is the one place a criterion name
maps to a check, so ``opspace check`` on an emitted file runs what the corpus
runs and every entry can be re-run from a file through the CLI.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import criteria, matcore, spaces, witness
from .errors import InvalidInputError, ShapeError

__all__ = [
    "CorpusEntry",
    "build_linf",
    "build_trace_class_2",
    "build_lower_triangular_L12",
    "build_l1_2_diag_trace",
    "build_l1_2_model",
    "build_column_H2",
    "build_twisted_selfadjoint",
    "build_upper_triangular",
    "build_full_matrix",
    "build_full_matrix_plus_half",
    "build_non_algebra_span",
    "build_left_identity_pair",
    "build_corpus",
    "CRITERIA",
    "multiplication_tensor",
    "run_check",
    "run_entry",
    "run_corpus",
    "select_entries",
    "write_space_files",
]

H = criteria.HOLDS_WITHIN_BUDGET
V = criteria.VIOLATED


@dataclass
class CorpusEntry:
    name: str
    space: spaces.SpaceRep
    expected: dict
    tolerance: float | None = None  # entry-local override
    max_level: int | None = None  # entry-local override


def _unit_vector(k: int, i: int) -> np.ndarray:
    u = np.zeros(k, dtype=np.complex128)
    u[i] = 1.0
    return u


def _matrix_units(d: int) -> np.ndarray:
    basis = np.zeros((d * d, d, d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            basis[i * d + j, i, j] = 1.0
    return basis


def build_linf(N: int = 3, unit: str = "ones") -> CorpusEntry:
    """Diagonal subspace of M_N with sup norm; the all-ones vector is a unitary, e_1 is not."""
    basis = np.zeros((N, N, N), dtype=np.complex128)
    for i in range(N):
        basis[i, i, i] = 1.0
    if unit == "ones":
        u = np.ones(N, dtype=np.complex128)
        expected = {
            "unitary-four-rotation": H,
            "unitary-t-gadget": H,
            "coisometry": H,
            "isometry": H,
            "operator-system": H,
        }
        name = f"linf{N}_ones"
    elif unit == "e1":
        u = _unit_vector(N, 0)
        expected = {
            "unitary-four-rotation": V,
            "unitary-t-gadget": V,
            "coisometry": V,
            "isometry": V,
            "operator-system": V,
        }
        name = f"linf{N}_e1"
    else:
        raise InvalidInputError("unit must be 'ones' or 'e1'")
    space = spaces.make_space(basis, unit=u, involution=np.eye(N))
    return CorpusEntry(name, space, expected)


def build_trace_class_2(alpha: float = 0.6) -> CorpusEntry:
    """M_2 with the trace norm (level-1 oracle); diag(alpha, 1-alpha) is not a unitary.

    Every trace-one positive diagonal fails the rotation test.
    """
    if not 0 < alpha < 1:
        raise InvalidInputError("alpha must lie in (0, 1)")
    basis = _matrix_units(2)
    u = np.zeros(4, dtype=np.complex128)
    u[0], u[3] = alpha, 1.0 - alpha
    space = spaces.make_space(basis, unit=u, norm_mode=spaces.LEVEL1_ORACLE, level1_oracle="trace_norm")
    return CorpusEntry(
        "trace_class_2",
        space,
        {"unitary-four-rotation": V},
    )


def build_lower_triangular_L12() -> CorpusEntry:
    """Lower-triangular 3-dimensional subspace of the 2x2 trace-norm space.

    Its rotation-test witnesses are those of the full trace-norm space.
    """
    basis = np.zeros((3, 2, 2), dtype=np.complex128)
    basis[0, 0, 0] = 1.0
    basis[1, 1, 0] = 1.0
    basis[2, 1, 1] = 1.0
    u = np.array([0.6, 0.0, 0.4], dtype=np.complex128)
    space = spaces.make_space(basis, unit=u, norm_mode=spaces.LEVEL1_ORACLE, level1_oracle="trace_norm")
    return CorpusEntry(
        "lower_triangular_L12",
        space,
        {"unitary-four-rotation": V},
    )


def build_l1_2_diag_trace() -> CorpusEntry:
    """The diagonal of the 2x2 trace-norm space: an isometric copy of two-point l1 (|a| + |b|).

    It passes the level-1 rotation test.
    """
    basis = np.zeros((2, 2, 2), dtype=np.complex128)
    basis[0, 0, 0] = 1.0
    basis[1, 1, 1] = 1.0
    space = spaces.make_space(basis, unit=np.array([1.0, 0.0]),
                              norm_mode=spaces.LEVEL1_ORACLE, level1_oracle="trace_norm")
    return CorpusEntry(
        "l1_2_diag_trace",
        space,
        {"unitary-four-rotation": H},
    )


def build_l1_2_model(M: int = 64) -> CorpusEntry:
    """Embedded model of two-point l1: span{I, diag(w^j)} with w a primitive M-th root of unity.

    The level-1 norm of (a, b) is max_j |a + b w^j|, which converges to
    |a| + |b| at rate O(1/M^2); M = 64 keeps the gap below the entry-local
    tolerance.  The model is genuinely unital at every level.
    """
    if M < 2:
        raise InvalidInputError("M must be at least 2")
    omega = np.exp(2j * np.pi / M)
    basis = np.zeros((2, M, M), dtype=np.complex128)
    basis[0] = np.eye(M)
    basis[1] = np.diag(omega ** np.arange(M))
    space = spaces.make_space(basis, unit=np.array([1.0, 0.0]))
    return CorpusEntry(
        f"l1_2_model_{M}",
        space,
        {"unitary-four-rotation": H, "unitary-t-gadget": H},
        tolerance=1e-3,
        max_level=1,
    )


def build_column_H2() -> CorpusEntry:
    """The first column of M_2 (two-dimensional column Hilbert space): e_1 is an isometry, no coisometry."""
    basis = np.zeros((2, 2, 1), dtype=np.complex128)
    basis[0, 0, 0] = 1.0
    basis[1, 1, 0] = 1.0
    space = spaces.make_space(basis, unit=np.array([1.0, 0.0]))
    return CorpusEntry(
        "column_H2",
        space,
        {
            "isometry": H,
            "coisometry": V,
            "unitary-four-rotation": V,
            "unitary-t-gadget": V,
        },
    )


def build_twisted_selfadjoint() -> CorpusEntry:
    """{x in M_2 : x_11 = 0, x_12 = x_21} with unit E_12 + E_21: unital but not a system."""
    basis = np.zeros((2, 2, 2), dtype=np.complex128)
    basis[0, 0, 1] = 1.0
    basis[0, 1, 0] = 1.0
    basis[1, 1, 1] = 1.0
    space = spaces.make_space(basis, unit=np.array([1.0, 0.0]), involution=np.eye(2))
    return CorpusEntry(
        "twisted_selfadjoint",
        space,
        {
            "unitary-four-rotation": H,
            "unitary-t-gadget": H,
            "coisometry": H,
            "isometry": H,
            "operator-system": V,
        },
    )


def _triangular_units(d: int) -> np.ndarray:
    idx = [(i, j) for i in range(d) for j in range(i, d)]
    basis = np.zeros((len(idx), d, d), dtype=np.complex128)
    for s, (i, j) in enumerate(idx):
        basis[s, i, j] = 1.0
    return basis


def build_upper_triangular(d: int = 2) -> CorpusEntry:
    """Upper-triangular matrices: a unital operator algebra."""
    basis = _triangular_units(d)
    unit = np.zeros(basis.shape[0], dtype=np.complex128)
    pos = 0
    for i in range(d):
        for j in range(i, d):
            if i == j:
                unit[pos] = 1.0
            pos += 1
    space = spaces.make_space(basis, unit=unit)
    return CorpusEntry(
        f"upper_triangular_{d}",
        space,
        {
            "unitary-four-rotation": H,
            "unitary-t-gadget": H,
            "coisometry": H,
            "isometry": H,
            "mult-closed": H,
            "algebra-product": H,
        },
    )


def _transpose_permutation(d: int) -> np.ndarray:
    S = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            S[j * d + i, i * d + j] = 1.0
    return S


def build_full_matrix(d: int = 2) -> CorpusEntry:
    """The full matrix algebra M_d with its adjoint involution and identity unit.

    Every positive criterion holds.
    """
    basis = _matrix_units(d)
    unit = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        unit[i * d + i] = 1.0
    space = spaces.make_space(basis, unit=unit, involution=_transpose_permutation(d))
    return CorpusEntry(
        f"full_matrix_{d}",
        space,
        {
            "unitary-four-rotation": H,
            "unitary-t-gadget": H,
            "coisometry": H,
            "isometry": H,
            "operator-system": H,
            "mult-closed": H,
            "cstar-among-systems": H,
        },
    )


def build_full_matrix_plus_half(d: int = 2) -> CorpusEntry:
    """{x (+) x/2 : x in M_d} in M_2d with unit u = I (+) I/2: unital, yet u u* B != B.

    The map x -> x (+) x/2 is a complete isometry from M_d, so every
    unitality criterion holds; but u u* (x (+) x/2) = x (+) x/8, so no ternary
    identity proves it and these verdicts rest on the search.
    """
    full = build_full_matrix(d).space
    basis = np.zeros((d * d, 2 * d, 2 * d), dtype=np.complex128)
    basis[:, :d, :d] = full.basis
    basis[:, d:, d:] = full.basis / 2
    space = spaces.make_space(basis, unit=full.unit, involution=full.involution)
    return CorpusEntry(
        f"full_matrix_{d}_plus_half",
        space,
        {
            "unitary-four-rotation": H,
            "unitary-t-gadget": H,
            "coisometry": H,
            "isometry": H,
        },
    )


def build_non_algebra_span() -> CorpusEntry:
    """span{E_12, E_21} in M_2: selfadjoint as a set, but its products land on the diagonal, outside it."""
    basis = np.zeros((2, 2, 2), dtype=np.complex128)
    basis[0, 0, 1] = 1.0
    basis[1, 1, 0] = 1.0
    space = spaces.make_space(basis)
    return CorpusEntry(
        "non_algebra_span",
        space,
        {"mult-closed": V},
    )


def build_left_identity_pair() -> CorpusEntry:
    """span{E_11, E_12} with unit E_11: a left identity is a coisometry but no isometry.

    The span is a row operator algebra, and E_11 is its norm-one left identity.
    """
    basis = np.zeros((2, 2, 2), dtype=np.complex128)
    basis[0, 0, 0] = 1.0
    basis[1, 0, 1] = 1.0
    space = spaces.make_space(basis, unit=np.array([1.0, 0.0]))
    return CorpusEntry(
        "left_identity_pair",
        space,
        {
            "coisometry": H,
            "isometry": V,
            "unitary-four-rotation": V,
            "unitary-t-gadget": V,
        },
    )


def build_corpus() -> list:
    return [
        build_linf(3, "ones"),
        build_linf(3, "e1"),
        build_trace_class_2(),
        build_lower_triangular_L12(),
        build_l1_2_diag_trace(),
        build_l1_2_model(64),
        build_column_H2(),
        build_twisted_selfadjoint(),
        build_upper_triangular(2),
        build_full_matrix(2),
        build_full_matrix_plus_half(2),
        build_non_algebra_span(),
        build_left_identity_pair(),
    ]


#: The largest membership residual of a basis product B_i B_j, divided by ||B_i|| ||B_j||,
#: that multiplication_tensor accepts.
PRODUCT_TOL = 1e-9


def multiplication_tensor(space: spaces.SpaceRep) -> np.ndarray:
    """Structure tensor of the ambient product restricted to a multiplication-closed space.

    A product's residual is divided by the norms of its factors, as in the
    closure checks, so whether a space is refused does not depend on the
    scale of its basis.
    """
    if space.p != space.q:
        raise ShapeError("multiplication closure needs a square ambient")
    k = space.dim
    norms = matcore.op_norm_stack(space.basis)
    t = np.zeros((k, k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            prod = space.basis[i] @ space.basis[j]
            if spaces.membership_residual(space, prod) / (norms[i] * norms[j]) > PRODUCT_TOL:
                raise InvalidInputError("space is not closed under multiplication")
            t[i, j] = spaces.coefficients_of(space, prod)
    return t


def entry_config(entry: CorpusEntry, cfg: witness.SearchConfig) -> witness.SearchConfig:
    """``cfg`` with the entry's own tolerance and max_level where it sets them (validated anew)."""
    updates = {name: v for name in ("tolerance", "max_level") if (v := getattr(entry, name)) is not None}
    return dataclasses.replace(cfg, **updates) if updates else cfg


_MULTIPLIERS = ("multiplier-left", "multiplier-right", "multiplier-quasi")
CRITERIA = tuple(sorted((*criteria.CRITERION_RUNNERS, "algebra-product", "positive", *_MULTIPLIERS)))


def run_check(space: spaces.SpaceRep, criterion: str, cfg: witness.SearchConfig,
              w_index: int | None = None) -> criteria.CheckReport:
    """Run the criterion named ``criterion`` (one of ``CRITERIA``) on ``space``.

    ``algebra-product`` tests the ambient product and ``positive`` the space's
    distinguished element; the multiplier checks take basis element
    ``w_index`` as the candidate multiplier w.
    """
    if criterion in criteria.CRITERION_RUNNERS:
        return criteria.CRITERION_RUNNERS[criterion](space, cfg=cfg)
    if criterion == "algebra-product":
        return criteria.check_algebra_product(space, space.unit, multiplication_tensor(space), cfg)
    if criterion == "positive":
        if space.unit is None:
            raise InvalidInputError(
                "the positivity check tests the space's distinguished element; none is set"
            )
        return criteria.check_positive(space, spaces.unit_element(space), cfg)
    if criterion in _MULTIPLIERS:
        if w_index is None:
            raise InvalidInputError("multiplier checks need --w-index (basis element acting as w)")
        if not 0 <= w_index < space.dim:
            raise InvalidInputError(f"--w-index {w_index} out of range")
        return criteria.check_multiplier(space, space.basis[w_index], criterion.split("-", 1)[1], cfg)
    raise InvalidInputError(f"unknown criterion {criterion!r}; known: {', '.join(CRITERIA)}")


def run_entry(entry: CorpusEntry, cfg: witness.SearchConfig) -> list:
    """Run every expected criterion of one entry; returns (criterion, report) pairs."""
    local = entry_config(entry, cfg)
    return [(crit, run_check(entry.space, crit, local)) for crit in entry.expected]


def select_entries(only: str | None = None) -> list:
    """The corpus, or its one entry named ``only``; an unknown name raises InvalidInputError."""
    entries = [e for e in build_corpus() if only is None or e.name == only]
    if only is not None and not entries:
        raise InvalidInputError(f"no corpus entry named {only!r}")
    return entries


def run_corpus(cfg: witness.SearchConfig | None = None, only: str | None = None,
               threads: int = 1) -> dict:
    """Run the whole corpus against its expected verdicts.

    Entries are independent, each criterion draws from its own seed-derived
    stream, and results are assembled in entry order, so the outcome does not
    depend on the number of worker threads.
    """
    cfg = cfg or witness.SearchConfig()
    entries = select_entries(only)

    def work(entry):
        return run_entry(entry, cfg)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            all_reports = list(pool.map(work, entries))
    else:
        all_reports = [work(e) for e in entries]

    rows = []
    all_match = True
    for entry, reports in zip(entries, all_reports):
        for crit, report in reports:
            match = report.verdict == entry.expected[crit]
            all_match = all_match and match
            rows.append({
                "entry": entry.name,
                "criterion": crit,
                "expected": entry.expected[crit],
                "verdict": report.verdict,
                "margin": report.margin,
                "match": match,
                "notes": report.notes,
            })
    return {"rows": rows, "all_match": all_match, "entries": [e.name for e in entries]}


def write_space_files(outdir) -> list:
    """Emit each corpus entry's space-definition JSON; returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in build_corpus():
        path = outdir / f"{entry.name}.json"
        path.write_text(spaces.space_to_json(entry.space), encoding="utf-8")
        paths.append(path)
    return paths
