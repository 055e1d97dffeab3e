"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line."""

import json
import math
import time

import numpy as np

from opspace import cli, corpus, criteria, gadgets, matcore, spaces, witness
from opspace.formulas import t_norm_closed_form

from conftest import random_element

SQRT2 = math.sqrt(2)


def gate(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {name}: {detail}")
    assert ok, f"acceptance {name}: {detail}"


def test_01_pair_identities():
    t0 = time.monotonic()
    worst1 = worst2 = 0.0
    for t in range(200):
        rng = matcore.stream(101, t)
        a = matcore.rand_cmat(3, 3, rng)
        b = matcore.rand_cmat(3, 3, rng)
        lhs1 = matcore.op_norm(matcore.block([[a, b], [b, a]]))
        worst1 = max(worst1, abs(lhs1 - max(matcore.op_norm(a + b), matcore.op_norm(a - b))))
        lhs2 = matcore.op_norm(matcore.block([[a, -b], [b, a]]))
        worst2 = max(worst2, abs(lhs2 - max(matcore.op_norm(a + 1j * b),
                                            matcore.op_norm(a - 1j * b))))
    dt = time.monotonic() - t0
    gate("1 pair identities", worst1 <= 1e-9 and worst2 <= 1e-9 and dt < 5.0,
         f"max deviations {worst1:.2e}, {worst2:.2e}; {dt:.2f}s")


def test_02_doubling_closed_form():
    spaces_under_test = [
        corpus.build_full_matrix(2).space,
        corpus.build_full_matrix(3).space,
        corpus.build_upper_triangular(2).space,
    ]
    worst = 0.0
    for si, space in enumerate(spaces_under_test):
        for level in (1, 2):
            for t in range(100):
                x = random_element(space, level, matcore.stream(102, si, level, t))
                s = spaces.norm(space, x)
                got = matcore.op_norm(gadgets.build_t(space, space.unit, x)) ** 2
                worst = max(worst, abs(got - float(t_norm_closed_form(s))))
    m2 = spaces_under_test[0]
    unit_x = spaces.LevelElement(1, np.array([[[0, 1.0, 0, 0]]], dtype=complex))
    spot = matcore.op_norm(gadgets.build_t(m2, m2.unit, unit_x)) ** 2
    spot_dev = abs(spot - (3 + math.sqrt(5)) / 2)
    gate("2 doubling gadget closed form", worst <= 1e-8 and spot_dev <= 1e-9,
         f"max deviation {worst:.2e}; spot |x|=1 deviation {spot_dev:.2e}")


def test_03_symmetric_and_skew_identities():
    worst_s = worst_r = 0.0
    for si, space in enumerate([corpus.build_full_matrix(2).space,
                                corpus.build_full_matrix(3).space]):
        for level in (1, 2):
            for t in range(100):
                x = random_element(space, level, matcore.stream(103, si, level, t))
                nx = spaces.norm(space, x)
                s = matcore.op_norm(gadgets.build_s(space, space.unit, x))
                r = matcore.op_norm(gadgets.build_r(space, space.unit, x))
                worst_s = max(worst_s, abs(s - (1 + nx)))
                worst_r = max(worst_r, abs(r - math.sqrt(1 + nx**2)))
    gate("3 symmetric/skew identities", worst_s <= 1e-8 and worst_r <= 1e-8,
         f"max deviations {worst_s:.2e}, {worst_r:.2e}")


def test_04_sequence_space_example():
    t0 = time.monotonic()
    rep_e1 = criteria.check_unitary_four_rotation(corpus.build_linf(3, "e1").space)
    rep_ones = criteria.check_unitary_four_rotation(corpus.build_linf(3, "ones").space)
    dt = time.monotonic() - t0
    ok = (rep_e1.verdict == criteria.VIOLATED
          and -rep_e1.margin >= SQRT2 - 1 - 1e-3
          and rep_ones.verdict == criteria.HOLDS_WITHIN_BUDGET
          and rep_ones.margin >= -1e-6
          and dt < 30.0)
    gate("4 sup-norm sequence space", ok,
         f"e1 {rep_e1.verdict} violation {-rep_e1.margin:.6f}; "
         f"ones {rep_ones.verdict} margin {rep_ones.margin:+.2e}; {dt:.1f}s")


def test_05_trace_norm_examples():
    tc2 = corpus.build_trace_class_2()
    rep = criteria.check_unitary_four_rotation(tc2.space)
    pinned = spaces.LevelElement(1, np.array([[[0, 0, 0.25, 0]]], dtype=complex))
    gap = criteria.four_rotation_violation_at(tc2.space, None, pinned)
    gap_dev = abs(gap - (math.sqrt(1.25) - math.sqrt(1.0625)))
    l12 = criteria.check_unitary_four_rotation(corpus.build_lower_triangular_L12().space)
    ok = (rep.verdict == criteria.VIOLATED
          and gap_dev <= 1e-9
          and -rep.margin >= 0.08
          and l12.verdict == criteria.VIOLATED)
    gate("5 trace-norm examples", ok,
         f"verdict {rep.verdict}, pinned gap deviation {gap_dev:.2e}, "
         f"found violation {-rep.margin:.4f}, lower-triangular {l12.verdict}")


def test_06_row_test_suite(criterion_cache):
    space = corpus.build_full_matrix(2).space
    worst = 0.0
    for level in (1, 2):
        for t in range(100):
            x = random_element(space, level, matcore.stream(106, level, t),
                                      target_norm=1.0)
            g = gadgets.build_row(space, space.unit, x)
            worst = max(worst, abs(matcore.op_norm(g) ** 2 - 2.0))
    h2 = corpus.build_column_H2().space
    rep = criterion_cache("column_H2", "coisometry")
    e2 = spaces.LevelElement(1, np.array([[[0, 1.0]]], dtype=complex))
    gap_dev = abs(criteria.row_deviation_at(h2, None, e2) - (SQRT2 - 1))
    ok = worst <= 1e-8 and rep.verdict == criteria.VIOLATED and gap_dev <= 1e-9
    gate("6 row/column test suite", ok,
         f"max squared deviation {worst:.2e}; column-space coisometry {rep.verdict}, "
         f"witness gap deviation {gap_dev:.2e}")


def test_07_criterion_equivalences(corpus_entries, criterion_cache):
    embedded = [e for e in corpus_entries.values()
                if e.space.norm_mode == spaces.EMBEDDED and e.space.unit is not None]
    assert len(embedded) >= 7
    rows = []
    ok = True
    for entry in embedded:
        fr = criterion_cache(entry.name, "unitary-four-rotation").verdict
        tg = criterion_cache(entry.name, "unitary-t-gadget").verdict
        iso = criterion_cache(entry.name, "isometry").verdict
        coiso = criterion_cache(entry.name, "coisometry").verdict
        both = (criteria.HOLDS_WITHIN_BUDGET
                if iso == coiso == criteria.HOLDS_WITHIN_BUDGET else criteria.VIOLATED)
        agree = fr == tg == both
        ok = ok and agree
        rows.append(f"{entry.name}:{fr[0]}{tg[0]}{both[0]}")
    gate("7 criterion equivalences", ok, "; ".join(rows))


def test_08_doubling_space_round_trip(criterion_cache):
    results = []
    ok = True
    for name, want in (("full_matrix_2", criteria.HOLDS_WITHIN_BUDGET),
                       ("linf3_e1", criteria.VIOLATED)):
        entry = {e.name: e for e in corpus.build_corpus()}[name]
        base = criterion_cache(name, "unitary-four-rotation").verdict
        doubled_space = gadgets.build_Ue(entry.space, entry.space.unit)
        doubled = criteria.check_unitary_four_rotation(doubled_space).verdict
        ok = ok and base == doubled == want
        results.append(f"{name}: {base}/{doubled}")
    gate("8 doubling-space round trip", ok, "; ".join(results))


def test_09_positivity_suite():
    space = corpus.build_full_matrix(2).space
    m3 = corpus.build_full_matrix(3).space
    r1 = criteria.check_positive(space, np.diag([0.5, 0.25]))
    r2 = criteria.check_positive(space, -0.5 * np.eye(2))
    z = complex(*r2.witness["aux"]["z"])
    pos_fail = neg_fail = 0
    for t in range(50):
        rng = matcore.stream(109, 0, t)
        g = matcore.rand_cmat(3, 3, rng)
        p = matcore.dagger(g) @ g
        p /= matcore.op_norm(p)
        if criteria.check_positive(m3, p).verdict != criteria.HOLDS_WITHIN_BUDGET:
            pos_fail += 1
    found = 0
    t = 0
    while found < 50:
        rng = matcore.stream(109, 1, t)
        t += 1
        g = matcore.rand_cmat(3, 3, rng)
        h = (g + matcore.dagger(g)) / 2
        h /= matcore.op_norm(h)
        if float(np.linalg.eigvalsh(h).min()) > -0.1:
            continue
        found += 1
        if criteria.check_positive(m3, h).verdict != criteria.VIOLATED:
            neg_fail += 1
    ok = (r1.verdict == criteria.HOLDS_WITHIN_BUDGET
          and r2.verdict == criteria.VIOLATED and abs(z - 2.0) <= 1e-6
          and pos_fail == 0 and neg_fail == 0)
    gate("9 positivity", ok,
         f"diag holds={r1.verdict}, -I/2 witness z={z:.8f}, "
         f"positive failures {pos_fail}/50, indefinite misses {neg_fail}/50")


def test_10_operator_system_criterion(criterion_cache):
    full = criterion_cache("full_matrix_2", "operator-system")
    twisted_space = corpus.build_twisted_selfadjoint().space
    rep_a = criteria.check_operator_system(twisted_space)
    rep_b = criteria.check_operator_system(twisted_space)
    reproducible = (rep_a.verdict == rep_b.verdict == criteria.VIOLATED
                    and rep_a.margin == rep_b.margin
                    and rep_a.witness["coeffs"] == rep_b.witness["coeffs"])
    ok = full.verdict == criteria.HOLDS_WITHIN_BUDGET and reproducible
    gate("10 operator-system criterion", ok,
         f"full matrix {full.verdict}; twisted space {rep_a.verdict} "
         f"margin {rep_a.margin:+.6f} reproducible={reproducible}")


def test_11_multiplication_closure_cross_validation():
    t0 = time.monotonic()
    cases = []
    expected = {
        "upper_triangular_2": criteria.HOLDS_WITHIN_BUDGET,
        "non_algebra_span": criteria.VIOLATED,
        "full_matrix_2": criteria.HOLDS_WITHIN_BUDGET,
    }
    entries = {e.name: e for e in corpus.build_corpus()}
    ok = True
    for name, want in expected.items():
        rep = criteria.check_mult_closed(entries[name].space)
        aux = rep.witness["aux"]
        ok = ok and rep.verdict == want and aux["paths_agree"]
        if name == "non_algebra_span":
            ok = ok and abs(-rep.margin - 1.0) <= 1e-9
        cases.append(f"{name}={rep.verdict[0]}")
    agree = 0
    for t in range(20):
        rng = matcore.stream(111, t)
        k = int(rng.integers(2, 5))
        basis = np.stack([matcore.rand_cmat(3, 3, rng) for _ in range(k)])
        space = spaces.make_space(basis)
        rep = criteria.check_mult_closed(space)
        if rep.witness["aux"]["paths_agree"]:
            agree += 1
    dt = time.monotonic() - t0
    ok = ok and agree == 20 and dt < 60.0
    gate("11 closure cross-validation", ok,
         f"{'; '.join(cases)}; random subspaces agreeing {agree}/20; {dt:.1f}s")


def test_12_cstar_row_identities():
    space = corpus.build_full_matrix(2).space
    rep = criteria.check_cstar_among_systems(space, n_pairs=20, n_contractions=16)
    worst_perturbed = 0.0
    rng = matcore.stream(112, 0)
    x = matcore.rand_cmat(2, 2, rng)
    x /= max(1.0, matcore.op_norm(x))
    y = matcore.rand_cmat(2, 2, rng)
    y /= max(1.0, matcore.op_norm(y))
    z_good = -x @ matcore.dagger(y)
    b = gadgets.proof_b(x, y, z_good)
    for sign in ("+", "-"):
        m = gadgets.build_M_pm(x, y, z_good + 0.3 * np.eye(2), b, sign)
        for mlev in (1, 2):
            amp = matcore.scalar_amplify(m, mlev)
            for t in range(16):
                w = matcore.rand_cmat(2 * mlev * 2, 2 * mlev * 2, matcore.stream(112, 1, mlev, t))
                w /= matcore.op_norm(w)
                row = np.concatenate([amp, w], axis=1)
                worst_perturbed = max(worst_perturbed, abs(matcore.op_norm(row) - SQRT2))
    ok = (rep.verdict == criteria.HOLDS_WITHIN_BUDGET and -rep.margin <= 1e-6
          and worst_perturbed > 1e-3)
    gate("12 multiplicative-row identities", ok,
         f"max deviation {-rep.margin:.2e} over sampled pairs; "
         f"perturbed-product deviation {worst_perturbed:.2e}")


def test_13_determinism(tmp_path):
    def run(extra, out):
        rc = cli.main(["corpus", "--seed", "7", "--format", "json", "--out", str(out)] + extra)
        with open(out) as fh:
            d = json.load(fh)
        d.pop("generated_at")
        return rc, d

    rc1, d1 = run([], tmp_path / "c1.json")
    rc2, d2 = run([], tmp_path / "c2.json")
    bytes_equal = json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    rc3, d3 = run(["--threads", "8"], tmp_path / "c3.json")
    rows1 = [(r["criterion"], r["entry"], r["verdict"], r["margin"]) for r in d1["rows"]]
    rows3 = [(r["criterion"], r["entry"], r["verdict"], r["margin"]) for r in d3["rows"]]
    entries = {r["entry"] for r in d1["rows"]}
    ok = (rc1 == rc2 == rc3 == 0 and bytes_equal and rows1 == rows3
          and len(entries) >= 9)
    gate("13 determinism", ok,
         f"repeat run byte-identical={bytes_equal}; "
         f"1 vs 8 threads identical verdicts/margins={rows1 == rows3}; "
         f"{len(entries)} entries")
