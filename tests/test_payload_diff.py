import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "payload_diff.py"


@pytest.fixture(scope="module")
def payload_diff():
    spec = importlib.util.spec_from_file_location("payload_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(verdict, margin, samples=10, witness=None):
    return {"verdict": verdict, "margin": margin, "samples": samples, "notes": [], "witness": witness}


def write_dumps(tmp_path, old, new):
    paths = tmp_path / "old.json", tmp_path / "new.json"
    for path, dump in zip(paths, (old, new)):
        path.write_text(json.dumps(dump), encoding="utf-8")
    return paths


def test_diff_names_the_largest_fall_of_a_violation(payload_diff, tmp_path, capsys):
    old = {"7/a/held": payload("HOLDS_WITHIN_BUDGET", 0.0),
           "7/b/fell": payload("VIOLATED", -0.5),
           "7/c/fell_less": payload("VIOLATED", -0.2),
           "7/d/grew": payload("VIOLATED", -0.1),
           "7/e/holds_fell": payload("HOLDS_WITHIN_BUDGET", 0.3)}
    new = {**old, "7/b/fell": payload("VIOLATED", -0.4, samples=5),
           "7/c/fell_less": payload("VIOLATED", -0.19),
           "7/d/grew": payload("VIOLATED", -0.3),
           "7/e/holds_fell": payload("HOLDS_WITHIN_BUDGET", 0.1)}
    assert payload_diff.diff(*write_dumps(tmp_path, old, new)) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[-1] == ("1 of 5 payloads byte-identical; moved: 1 HOLDS_WITHIN_BUDGET, 3 VIOLATED; "
                         "0 verdicts changed; largest VIOLATED fall 0.2 at 7/b/fell; samples 50 -> 45; "
                         "0 witnesses moved at an unchanged margin")


def test_diff_without_a_fall_says_so(payload_diff, tmp_path, capsys):
    old = {"7/a/grew": payload("VIOLATED", -0.1), "7/b/changed": payload("HOLDS_WITHIN_BUDGET", 0.0),
           "7/c/same_margin": payload("VIOLATED", -0.3)}
    new = {"7/a/grew": payload("VIOLATED", -0.2), "7/b/changed": payload("VIOLATED", -0.3),
           "7/c/same_margin": payload("VIOLATED", -0.3, samples=4)}
    assert payload_diff.diff(*write_dumps(tmp_path, old, new)) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "0 of 3 payloads byte-identical; moved: 1 HOLDS_WITHIN_BUDGET, 2 VIOLATED; "
        "1 verdicts changed; no VIOLATED violation fell; samples 30 -> 24; "
        "0 witnesses moved at an unchanged margin")


def test_diff_counts_samples_and_witnesses_moved_at_an_unchanged_margin(payload_diff, tmp_path, capsys):
    e2, e3 = {"level": 1, "coeffs": [[[[0.0, 0.0], [1.0, 0.0]]]]}, {"level": 1, "coeffs": [[[[1.0, 0.0], [0.0, 0.0]]]]}
    old = {"7/a/same_margin": payload("VIOLATED", -0.4, samples=1200, witness=e2),
           "7/b/both_moved": payload("VIOLATED", -0.3, samples=800, witness=e2),
           "7/c/margin_only": payload("VIOLATED", -0.2, samples=5, witness=e3),
           "7/d/held": payload("HOLDS_WITHIN_BUDGET", 0.0, samples=3000)}
    new = {"7/a/same_margin": payload("VIOLATED", -0.4, samples=700, witness=e3),
           "7/b/both_moved": payload("VIOLATED", -0.35, samples=800, witness=e3),
           "7/c/margin_only": payload("VIOLATED", -0.25, samples=5, witness=e3),
           "7/d/held": payload("HOLDS_WITHIN_BUDGET", 0.0, samples=3000)}
    assert payload_diff.diff(*write_dumps(tmp_path, old, new)) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1 of 4 payloads byte-identical; moved: 3 VIOLATED; 0 verdicts changed; no VIOLATED violation fell; "
        "samples 5,005 -> 4,505; 1 witnesses moved at an unchanged margin")


def test_dump_adds_positive_the_multipliers_and_the_left_multiplier_maps(payload_diff, monkeypatch, tmp_path):
    from opspace import corpus, criteria, matcore, witness

    # a unit, non-square, no unit, and an involution
    names = ("upper_triangular_2", "column_H2", "non_algebra_span", "linf3_ones")
    entries = {e.name: e for e in corpus.build_corpus() if e.name in names}
    monkeypatch.setattr(corpus, "build_corpus", lambda: list(entries.values()))
    out = tmp_path / "dump.json"
    payload_diff.dump(out, [7], SCRIPT.parent.parent / "src")
    dumped = json.loads(out.read_text(encoding="utf-8"))
    # and adjoint on x = basis element 0 at norm one, against x* and against x
    square = ["multiplier-left", "multiplier-quasi", "multiplier-right", "adjoint-x*", "adjoint-x"]
    keys = {name: sorted(k.split("/")[2] for k in dumped if k.split("/")[1] == name) for name in names}
    # left-multiplier-map with T the identity on every entry, and with T the involution where there is one
    assert keys["column_H2"] == sorted([*entries["column_H2"].expected, "left-multiplier-map-id"])
    assert keys["non_algebra_span"] == sorted(["mult-closed", "left-multiplier-map-id", *square])
    assert keys["upper_triangular_2"] == sorted(["algebra-product", "coisometry", "isometry", "mult-closed",
                                                 "positive", "unitary-four-rotation", "unitary-t-gadget",
                                                 "left-multiplier-map-id", *square])
    assert keys["linf3_ones"] == sorted([*entries["linf3_ones"].expected, "positive", *square,
                                         *payload_diff.LEFT_MULTIPLIER_CHECKS])
    cfg = witness.SearchConfig(seed=7)
    entry = entries["upper_triangular_2"]
    report = criteria.run_check(entry.space, "multiplier-quasi", cfg, w_index=0)
    assert dumped["7/upper_triangular_2/multiplier-quasi"] == json.loads(json.dumps(report.to_dict()))
    nas = entries["non_algebra_span"]
    x = nas.space.basis[0] / matcore.op_norm(nas.space.basis[0])
    for key, z, verdict in (("adjoint-x*", matcore.dagger(x), criteria.HOLDS_WITHIN_BUDGET),
                            ("adjoint-x", x, criteria.VIOLATED)):
        report = criteria.check_adjoint(x, z, cfg)
        assert report.verdict == verdict
        assert dumped[f"7/non_algebra_span/{key}"] == json.loads(json.dumps(report.to_dict()))
    linf3 = entries["linf3_ones"]
    for key, T in zip(payload_diff.LEFT_MULTIPLIER_CHECKS, (np.eye(linf3.space.dim), linf3.space.involution)):
        report = criteria.check_left_multiplier_map(linf3.space, T, cfg)
        assert dumped[f"7/linf3_ones/{key}"] == json.loads(json.dumps(report.to_dict()))
