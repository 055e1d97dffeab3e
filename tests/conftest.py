import numpy as np
import pytest

from opspace import corpus, criteria, spaces, witness


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
        cfg = corpus.entry_config(entry, witness.SearchConfig())
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
            cfg = corpus.entry_config(entry, witness.SearchConfig())
            cache[(name, crit)] = criteria.CRITERION_RUNNERS[crit](entry.space, cfg=cfg)
        return cache[(name, crit)]

    return get


def haar_unitary(d, seed):
    """A Haar-distributed d x d unitary drawn from a seeded generator."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_element(space, level, rng, target_norm=None):
    """One random element of level ``level``: the first grid of ``spaces.random_stack``."""
    return spaces.LevelElement(level, spaces.random_stack(space, level, rng, 1, target_norm)[0])


def oracle_space_with_involution():
    """The 2x2 trace-norm oracle space, given the involution that swaps the E12 and E21 coefficients."""
    tc2 = corpus.build_trace_class_2().space
    swap = np.eye(4)[[0, 2, 1, 3]]
    return spaces.make_space(tc2.basis, unit=tc2.unit, involution=swap,
                             norm_mode=spaces.LEVEL1_ORACLE, level1_oracle="trace_norm")


def evaluate_witness(entry, report):
    """Re-evaluate a VIOLATED search report's stored witness from scratch."""
    elem = report.witness_element()
    assert elem is not None
    return criteria.SEARCH_CRITERIA[report.criterion].value_at(entry.space, entry.space.unit, elem)
