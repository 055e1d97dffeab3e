"""Reference spaces wired to expected verdicts for regression.

The corpus is one ordered table, ``ENTRIES``: each name maps to the builder of
its CorpusEntry, a concrete space with the criteria worth running on it and
the verdicts those criteria must reproduce under the default search budget
with the pinned seed.  The six fixed spans are rows of ``_SPANS`` (ambient
shape, the matrix-unit cells of each basis element, ``make_space`` keywords,
expected verdicts); the families are the ``build_*`` functions, which take
their size.  ``entry`` builds one entry by name, and ``build_corpus`` all of
them in order.  ``write_space_files`` serializes the space definitions of built
entries, and ``run_entries`` runs them, so one build serves both.  The corpus
runs each criterion through ``criteria.run_check`` at the caller's
SearchConfig, as ``opspace check`` does; no entry carries a config of its own,
so every row re-runs from an emitted file through the CLI with the same flags.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import criteria, spaces, witness
from .errors import InvalidInputError

__all__ = [
    "CorpusEntry",
    "ENTRIES",
    "build_linf",
    "build_trace_class_2",
    "build_l1_2_model",
    "build_upper_triangular",
    "build_full_matrix",
    "build_full_matrix_plus_half",
    "build_corpus",
    "entry",
    "run_entry",
    "run_entries",
    "run_corpus",
    "select_entries",
    "pick_entries",
    "write_space_files",
]

H = criteria.HOLDS_WITHIN_BUDGET
V = criteria.VIOLATED

#: The searched rows in ``criteria.SEARCH_CRITERIA``'s order: the two unitary tests (four-rotation,
#: t-gadget), the coisometry and isometry tests, and the operator-system test.
_ROWS = tuple(criteria.SEARCH_CRITERIA)
#: The ``make_space`` keywords of a space normed by the level-1 trace-norm oracle.
_TRACE_NORM = {"norm_mode": spaces.LEVEL1_ORACLE, "level1_oracle": "trace_norm"}


@dataclass
class CorpusEntry:
    """A named reference space and the verdicts its criteria must reproduce at the caller's config."""
    name: str
    space: spaces.SpaceRep
    expected: dict


def _units(p: int, q: int, cells) -> np.ndarray:
    """A basis of p x q matrices: element s is the sum of the matrix units E_ij over the cells (i, j) of cells[s]."""
    basis = np.zeros((len(cells), p, q), dtype=np.complex128)
    for s, element in enumerate(cells):
        for i, j in element:
            basis[s, i, j] = 1.0
    return basis


def build_linf(N: int = 3, unit: str = "ones") -> CorpusEntry:
    """Diagonal subspace of M_N with sup norm; the all-ones vector is a unitary, e_1 is not."""
    if unit not in ("ones", "e1"):
        raise InvalidInputError("unit must be 'ones' or 'e1'")
    u = np.ones(N) if unit == "ones" else np.eye(N)[0]
    space = spaces.make_space(_units(N, N, [[(i, i)] for i in range(N)]), unit=u, involution=np.eye(N))
    return CorpusEntry(f"linf{N}_{unit}", space, dict.fromkeys(_ROWS, H if unit == "ones" else V))


def build_trace_class_2(alpha: float = 0.6) -> CorpusEntry:
    """M_2 with the trace norm (level-1 oracle); diag(alpha, 1-alpha) is not a unitary.

    Every trace-one positive diagonal fails the rotation test.
    """
    if not 0 < alpha < 1:
        raise InvalidInputError("alpha must lie in (0, 1)")
    space = spaces.make_space(_units(2, 2, [[(i, j)] for i in range(2) for j in range(2)]),
                              unit=[alpha, 0.0, 0.0, 1.0 - alpha], **_TRACE_NORM)
    return CorpusEntry("trace_class_2", space, {"unitary-four-rotation": V})


def build_l1_2_model(M: int = 64) -> CorpusEntry:
    """Embedded model of two-point l1: span{I, diag(w^j)} with w a primitive M-th root of unity.

    The level-1 norm of (a, b) is max_j |a + b w^j|, which converges to
    |a| + |b| at rate O(1/M^2).  The model is genuinely unital at every
    level: u = I satisfies the ternary identity, so both unitary rows are
    proved at any config.
    """
    if M < 2:
        raise InvalidInputError("M must be at least 2")
    omega = np.exp(2j * np.pi / M)
    space = spaces.make_space([np.eye(M), np.diag(omega ** np.arange(M))], unit=[1.0, 0.0])
    return CorpusEntry(f"l1_2_model_{M}", space, dict.fromkeys(_ROWS[:2], H))


def build_upper_triangular(d: int = 2) -> CorpusEntry:
    """Upper-triangular matrices: a unital operator algebra."""
    cells = [[(i, j)] for i in range(d) for j in range(i, d)]
    space = spaces.make_space(_units(d, d, cells), unit=[float(i == j) for [(i, j)] in cells])
    expected = dict.fromkeys((*_ROWS[:4], "mult-closed", "algebra-product"), H)
    return CorpusEntry(f"upper_triangular_{d}", space, expected)


def build_full_matrix(d: int = 2) -> CorpusEntry:
    """The full matrix algebra M_d with its adjoint involution and identity unit.

    Every positive criterion holds.
    """
    basis = _units(d, d, [[(i, j)] for i in range(d) for j in range(d)])
    # coeffs(E_ij*) are those of E_ji: the transpose permutation, which is symmetric
    involution = basis.transpose(0, 2, 1).reshape(d * d, d * d)
    space = spaces.make_space(basis, unit=np.eye(d).reshape(-1), involution=involution)
    return CorpusEntry(f"full_matrix_{d}", space, dict.fromkeys((*_ROWS, "mult-closed", "cstar-among-systems"), H))


def build_full_matrix_plus_half(d: int = 2) -> CorpusEntry:
    """{x (+) x/2 : x in M_d} in M_2d with unit u = I (+) I/2: unital, yet u u* B != B.

    The map x -> x (+) x/2 is a complete isometry from M_d, so every
    unitality criterion holds; but u u* (x (+) x/2) = x (+) x/8, so no ternary
    identity proves it and these verdicts rest on the search.
    """
    full = build_full_matrix(d).space
    space = spaces.make_space(np.kron(np.diag([1.0, 0.5]), full.basis), unit=full.unit, involution=full.involution)
    return CorpusEntry(f"full_matrix_{d}_plus_half", space, dict.fromkeys(_ROWS[:4], H))


#: The fixed spans: name -> ((p, q), the cells of each basis element, ``make_space`` keywords, expected verdicts).
_SPANS = {
    # the lower triangle of the 2x2 trace-norm space; its rotation-test witnesses are those of the full space
    "lower_triangular_L12": ((2, 2), [[(0, 0)], [(1, 0)], [(1, 1)]], dict(_TRACE_NORM, unit=[0.6, 0.0, 0.4]),
                             {"unitary-four-rotation": V}),
    # the diagonal of the 2x2 trace-norm space, an isometric copy of two-point l1 (|a| + |b|): it passes
    "l1_2_diag_trace": ((2, 2), [[(0, 0)], [(1, 1)]], dict(_TRACE_NORM, unit=[1.0, 0.0]),
                        {"unitary-four-rotation": H}),
    # the first column of M_2 (two-dimensional column Hilbert space): e_1 is an isometry, no coisometry
    "column_H2": ((2, 1), [[(0, 0)], [(1, 0)]], {"unit": [1.0, 0.0]},
                  {"isometry": H, "coisometry": V, **dict.fromkeys(_ROWS[:2], V)}),
    # {x in M_2 : x_11 = 0, x_12 = x_21} with unit E_12 + E_21: unital but not a system
    "twisted_selfadjoint": ((2, 2), [[(0, 1), (1, 0)], [(1, 1)]], {"unit": [1.0, 0.0], "involution": np.eye(2)},
                            dict(zip(_ROWS, (H, H, H, H, V)))),
    # span{E_12, E_21}: selfadjoint as a set, but its products land on the diagonal, outside it
    "non_algebra_span": ((2, 2), [[(0, 1)], [(1, 0)]], {}, {"mult-closed": V}),
    # span{E_11, E_12}, a row operator algebra with the norm-one left identity E_11: a coisometry, no isometry
    "left_identity_pair": ((2, 2), [[(0, 0)], [(0, 1)]], {"unit": [1.0, 0.0]},
                           {"coisometry": H, "isometry": V, **dict.fromkeys(_ROWS[:2], V)}),
}


def _span(name: str) -> CorpusEntry:
    """The CorpusEntry of the fixed span ``name``, built from its ``_SPANS`` row with its own expected dict."""
    (p, q), cells, keywords, expected = _SPANS[name]
    return CorpusEntry(name, spaces.make_space(_units(p, q, cells), **keywords), dict(expected))


#: The corpus in report order: each entry's name -> the builder of its CorpusEntry.
ENTRIES = {
    "linf3_ones": functools.partial(build_linf, 3, "ones"),
    "linf3_e1": functools.partial(build_linf, 3, "e1"),
    "trace_class_2": build_trace_class_2,
    "lower_triangular_L12": functools.partial(_span, "lower_triangular_L12"),
    "l1_2_diag_trace": functools.partial(_span, "l1_2_diag_trace"),
    "l1_2_model_64": functools.partial(build_l1_2_model, 64),
    "column_H2": functools.partial(_span, "column_H2"),
    "twisted_selfadjoint": functools.partial(_span, "twisted_selfadjoint"),
    "upper_triangular_2": functools.partial(build_upper_triangular, 2),
    "full_matrix_2": functools.partial(build_full_matrix, 2),
    "full_matrix_2_plus_half": functools.partial(build_full_matrix_plus_half, 2),
    "non_algebra_span": functools.partial(_span, "non_algebra_span"),
    "left_identity_pair": functools.partial(_span, "left_identity_pair"),
}


def _known(name: str) -> str:
    """``name`` if a corpus entry has it; otherwise InvalidInputError naming the known ones."""
    if name not in ENTRIES:
        raise InvalidInputError(f"no corpus entry named {name!r}; known: {', '.join(ENTRIES)}")
    return name


def entry(name: str) -> CorpusEntry:
    """Build the corpus entry named ``name``; an unknown name raises InvalidInputError naming the known ones."""
    return ENTRIES[_known(name)]()


def build_corpus() -> list:
    """Every corpus entry, built in ``ENTRIES`` order."""
    return [build() for build in ENTRIES.values()]


#: The benchmark harness calls the tensor by this name; it lives in ``criteria``.
multiplication_tensor = criteria.multiplication_tensor


def run_entry(entry: CorpusEntry, cfg: witness.SearchConfig) -> list:
    """Run every expected criterion of one entry at ``cfg``; returns (criterion, report) pairs."""
    return [(crit, criteria.run_check(entry.space, crit, cfg)) for crit in entry.expected]


def select_entries(only: str | None = None) -> list:
    """The corpus, or its one entry named ``only`` (built alone); an unknown name raises InvalidInputError."""
    return build_corpus() if only is None else [entry(only)]


def pick_entries(entries: list, only: str | None) -> list:
    """The built ``entries``, or the one of them named ``only``; an unknown name raises InvalidInputError."""
    if only is None:
        return entries
    _known(only)
    return [e for e in entries if e.name == only]


def run_corpus(cfg: witness.SearchConfig | None = None, only: str | None = None,
               threads: int = 1) -> dict:
    """Run the whole corpus, or its one entry named ``only``, against its expected verdicts."""
    return run_entries(select_entries(only), cfg or witness.SearchConfig(), threads)


def run_entries(entries: list, cfg: witness.SearchConfig, threads: int = 1) -> dict:
    """Run built corpus entries against their expected verdicts.

    Entries are independent, each criterion draws from its own seed-derived
    stream, and results are assembled in entry order, so the outcome does not
    depend on the number of worker threads.
    """
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


def write_space_files(outdir, entries: list) -> list:
    """Emit the space-definition JSON of each built entry (the whole corpus: ``build_corpus()``); returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in entries:
        path = outdir / f"{entry.name}.json"
        path.write_text(spaces.space_to_json(entry.space), encoding="utf-8")
        paths.append(path)
    return paths
