import pytest

from opspace import corpus, criteria, witness


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


def evaluate_witness(entry, report):
    """Re-evaluate a VIOLATED search report's stored witness from scratch."""
    elem = report.witness_element()
    assert elem is not None
    return criteria.SEARCH_CRITERIA[report.criterion].value_at(entry.space, entry.space.unit, elem)
