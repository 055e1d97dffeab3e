import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opspace import cli, corpus, criteria, spaces, witness
from opspace.errors import SpaceFormatError

from conftest import oracle_space_with_involution


@pytest.fixture(scope="module")
def space_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("spaces")
    corpus.write_space_files(d, corpus.build_corpus())
    return d


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_check_violated_exit_code(space_dir, tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["check", space_dir / "linf3_ones.json", "unitary-four-rotation",
                  "--unit-index", 0, "--format", "json", "--out", out])
    assert rc == 1
    report = load_report(out)
    assert report["verdict"] == "VIOLATED"
    assert report["witness"]["coeffs"] is not None
    assert "tool_version" in report and "generated_at" in report


def test_check_holds_exit_code(space_dir, tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["check", space_dir / "column_H2.json", "isometry",
                  "--format", "json", "--out", out])
    assert rc == 0
    assert load_report(out)["verdict"] == "HOLDS_WITHIN_BUDGET"


def test_check_unknown_criterion(space_dir, capsys):
    rc = run_cli(["check", space_dir / "full_matrix_2.json", "no-such-criterion"])
    assert rc == 3
    assert "unknown criterion" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["check", "{space}", "mult-closed", "--levels", "abc"], "argument --levels: invalid int value: 'abc'"),
    (["corpus", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify-formulas", "--tolerance", "1e-3"], "unrecognized arguments: --tolerance 1e-3"),
    (["check", "{space}", "coisometry", "--radius", "0.5"], "unrecognized arguments: --radius 0.5"),
], ids=["malformed-value", "unknown-flag", "removed-flag", "removed-radius"])
def test_usage_error_exits_3(space_dir, capsys, argv, message):
    # exit 2 means INCONCLUSIVE, so a mistyped command line must not read as an undecided check
    assert run_cli([a.format(space=space_dir / "full_matrix_2.json") for a in argv]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_config_echo_has_the_five_settable_fields(space_dir, tmp_path):
    five = ["max_level", "restarts", "seed", "threads", "tolerance"]
    assert sorted(witness.SearchConfig().to_dict()) == five
    check, corpus_out = tmp_path / "check.json", tmp_path / "corpus.json"
    assert run_cli(["check", space_dir / "full_matrix_2.json", "coisometry", "--format", "json", "--out", check]) == 0
    assert run_cli(["corpus", "--only", "non_algebra_span", "--format", "json", "--out", corpus_out]) == 0
    assert sorted(load_report(check)["config"]) == five
    assert sorted(load_report(corpus_out)["config"]) == five


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    assert run_cli(argv) == 0
    assert capsys.readouterr().out


def test_every_pinned_row_reruns_from_its_file(space_dir, tmp_path):
    # `opspace check` on an emitted file gives the corpus's own payload, algebra-product included
    cfg = witness.SearchConfig(restarts=8)
    out = tmp_path / "r.json"
    for entry in corpus.build_corpus():
        for crit, report in corpus.run_entry(entry, cfg):
            rc = run_cli(["check", space_dir / f"{entry.name}.json", crit, "--restarts", 8,
                          "--format", "json", "--out", out])
            assert rc == cli._VERDICT_EXIT[report.verdict], (entry.name, crit)
            payload = load_report(out)
            for key in ("generated_at", "tool_version"):
                del payload[key]
            assert json.dumps(payload, sort_keys=True) == json.dumps(report.to_dict(), sort_keys=True), \
                (entry.name, crit)


@pytest.mark.parametrize("criterion", ["mult-closed", "algebra-product"])
def test_product_checks_refuse_a_rectangular_ambient(space_dir, capsys, criterion):
    assert run_cli(["check", space_dir / "column_H2.json", criterion]) == 3
    assert "multiplication closure needs a square ambient" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    rc = run_cli(["check", tmp_path / "nope.json", "unitary-four-rotation"])
    assert rc == 3
    assert "does not exist" in capsys.readouterr().err


def test_check_bad_space_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"p\": 2}")
    rc = run_cli(["check", bad, "unitary-four-rotation"])
    assert rc == 3
    assert "invalid space file" in capsys.readouterr().err


def test_search_zero_restarts_inconclusive(space_dir, tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["search", space_dir / "linf3_e1.json", "unitary-t-gadget",
                  "--restarts", 0, "--format", "json", "--out", out])
    assert rc == 2
    assert load_report(out)["verdict"] == "INCONCLUSIVE"


def test_search_dumps_trace_and_finds_witness(space_dir, tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["search", space_dir / "linf3_e1.json", "unitary-t-gadget",
                  "--restarts", 32, "--format", "json", "--out", out])
    assert rc == 1
    report = load_report(out)
    assert report["witness"]["coeffs"] is not None
    assert report["trace"]
    assert all("restart_bests" in cell for cell in report["trace"])


def test_search_levels_flag_restricts(space_dir, tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["search", space_dir / "full_matrix_2.json", "coisometry",
                  "--levels", 1, "--restarts", 8, "--format", "json", "--out", out])
    assert rc == 0
    assert load_report(out)["levels_checked"] == [1]


def test_multiplier_requires_w_index(space_dir, tmp_path, capsys):
    rc = run_cli(["check", space_dir / "upper_triangular_2.json", "multiplier-left"])
    assert rc == 3
    assert "--w-index" in capsys.readouterr().err
    out = tmp_path / "r.json"
    rc = run_cli(["check", space_dir / "upper_triangular_2.json", "multiplier-left",
                  "--w-index", 0, "--format", "json", "--out", out])
    assert rc == 0


@pytest.mark.parametrize("argv", [["mult-closed", "--w-index", 99], ["positive", "--w-index", 3]])
def test_w_index_is_refused_by_a_criterion_that_takes_no_w(space_dir, capsys, argv):
    assert run_cli(["check", space_dir / "full_matrix_2.json", *argv]) == 3
    assert f"{argv[0]} takes no --w-index" in capsys.readouterr().err


@pytest.mark.parametrize("criterion", ["adjoint", "left-multiplier-map"])
def test_caller_only_criteria_are_refused_as_such(space_dir, capsys, criterion):
    assert run_cli(["check", space_dir / "full_matrix_2.json", criterion]) == 3
    err = capsys.readouterr().err
    assert "takes its inputs from the caller" in err and "unknown criterion" not in err


@pytest.mark.parametrize("criterion", criteria.SPACE_CRITERIA)
def test_every_space_criterion_holds_on_m2(space_dir, tmp_path, criterion):
    flags = ["--w-index", 0] if criteria.CRITERIA[criterion].takes_w else []
    assert run_cli(["check", space_dir / "full_matrix_2.json", criterion, *flags, "--out", tmp_path / "r"]) == 0


def test_positive_uses_unit(space_dir, tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["check", space_dir / "full_matrix_2.json", "positive",
                  "--format", "json", "--out", out])
    assert rc == 0  # the identity is positive


def test_verify_formulas_passes(tmp_path):
    out = tmp_path / "vf.json"
    rc = run_cli(["verify-formulas", "--trials", 50, "--format", "json", "--out", out])
    assert rc == 0
    report = load_report(out)
    assert report["all_passed"]
    by_name = {s["name"]: s for s in report["suites"]}
    assert by_name["sum-diff block identity"]["max_deviation"] <= 1e-9


def test_verify_formulas_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run_cli(["verify-formulas", "--trials", 60, "--seed", 7, "--format", "json", "--out", out])
        d = load_report(out)
        d.pop("generated_at")
        outs.append(json.dumps(d, sort_keys=True))
    assert outs[0] == outs[1]


#: A harness that runs ``opspace`` with every 2x2 block assembled with its upper-right block doubled,
#: which breaks every identity the suites test; the CI runs the same harness on the installed package.
BROKEN_IDENTITY = ("import sys; from opspace import cli, gadgets; block = gadgets.two_by_two_stack; "
                   "gadgets.two_by_two_stack = lambda A, B, C, D: block(A, 2 * B, C, D); "
                   "sys.exit(cli.main(sys.argv[1:]))")


def test_verify_formulas_catches_a_broken_identity_subprocess():
    # the child imports opspace from this checkout's src, whatever PYTHONPATH the suite runs under
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", BROKEN_IDENTITY, "verify-formulas", "--trials", "20"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.count("[FAIL]") == 5 and "[PASS]" not in proc.stdout


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_formulas_refuses_non_positive_trials(capsys, trials):
    assert run_cli(["verify-formulas", "--trials", trials]) == 3
    captured = capsys.readouterr()
    assert f"trials must be a positive integer, got {trials}" in captured.err
    assert "PASS" not in captured.out


def test_corpus_only_entry(tmp_path):
    out = tmp_path / "c.json"
    rc = run_cli(["corpus", "--only", "trace_class_2", "--format", "json", "--out", out])
    assert rc == 0
    report = load_report(out)
    assert report["all_match"]
    [row] = report["rows"]
    assert row["verdict"] == "VIOLATED"
    assert -row["margin"] >= 0.08


def test_seed_is_read_from_the_flag_only(space_dir, tmp_path, monkeypatch):
    # no environment variable sets the seed, so an exported one changes no report
    monkeypatch.setenv("OPSPACE_SEED", "abc")
    out = tmp_path / "r.json"
    assert run_cli(["check", space_dir / "full_matrix_2.json", "mult-closed", "--format", "json",
                    "--out", out]) == 0
    assert load_report(out)["config"]["seed"] == witness.DEFAULT_SEED


def test_corpus_seed_change_keeps_verdicts(tmp_path):
    rows = []
    for seed in (1, 99):
        out = tmp_path / f"c{seed}.json"
        rc = run_cli(["corpus", "--only", "column_H2", "--seed", seed,
                      "--format", "json", "--out", out])
        assert rc == 0
        rows.append([(r["criterion"], r["verdict"]) for r in load_report(out)["rows"]])
    assert rows[0] == rows[1]


def test_emit_spaces_writes_loadable_files(tmp_path):
    target = tmp_path / "emitted"
    rc = run_cli(["corpus", "--only", "non_algebra_span", "--emit-spaces", target,
                  "--format", "json", "--out", tmp_path / "c.json"])
    assert rc == 0
    assert (target / "linf3_ones.json").exists()


@pytest.mark.parametrize("only, emit, builds", [(None, True, 14), ("column_H2", True, 14),
                                                (None, False, 14), ("column_H2", False, 1)])
def test_corpus_builds_each_entry_once(tmp_path, monkeypatch, only, emit, builds):
    # 13 entries from 14 make_space calls (full_matrix_2_plus_half scales M_2's basis); --emit-spaces writes all 13
    calls = []
    make_space = spaces.make_space
    monkeypatch.setattr(spaces, "make_space", lambda *a, **k: calls.append(1) or make_space(*a, **k))
    target = tmp_path / "emitted"
    argv = ["corpus", "--format", "json", "--out", tmp_path / "c.json"]
    argv += ["--only", only] if only else []
    argv += ["--emit-spaces", target] if emit else []
    assert run_cli(argv) == 0
    assert len(calls) == builds
    written = sorted(p.stem for p in target.glob("*.json"))
    assert written == (sorted(corpus.ENTRIES) if emit else [])
    assert {r["entry"] for r in load_report(tmp_path / "c.json")["rows"]} == ({only} if only else set(corpus.ENTRIES))


def test_unknown_only_is_refused_before_emit_spaces_writes(tmp_path, capsys):
    target = tmp_path / "emitted"
    assert run_cli(["corpus", "--only", "nope", "--emit-spaces", target]) == 3
    assert "no corpus entry named 'nope'" in capsys.readouterr().err
    assert not target.exists() or not any(target.iterdir())


def test_corpus_refused_by_the_ambient_guard_writes_no_space_files(tmp_path, capsys):
    # the space files are written after the run, so a run the guard refuses leaves none behind
    target = tmp_path / "guarded"
    assert run_cli(["corpus", "--levels", 600, "--emit-spaces", target]) == 3
    assert "ambient guard: max_level=600 x max(p,q)=3 exceeds 512" in capsys.readouterr().err
    assert not list(target.glob("*.json"))


@pytest.mark.parametrize("crit", ["unitary-four-rotation", "unitary-t-gadget"])
def test_proved_row_runs_past_the_ambient_guard(space_dir, tmp_path, crit):
    # the guard bounds search memory alone: l1_2_model_64 (64 x 64) at level 9 is proved, not refused
    out = tmp_path / "r.json"
    rc = run_cli(["check", space_dir / "l1_2_model_64.json", crit, "--levels", 9, "--format", "json", "--out", out])
    assert rc == 0
    payload = load_report(out)
    assert payload["proof"] is not None and payload["samples"] == 0
    assert payload["levels_checked"] == list(range(1, 10))


def test_emit_spaces_naming_a_file_is_refused_before_the_corpus_runs(tmp_path, capsys):
    target = tmp_path / "x.json"
    target.write_text("keep", encoding="utf-8")
    out = tmp_path / "c.json"
    assert run_cli(["corpus", "--only", "non_algebra_span", "--emit-spaces", target, "--out", out]) == 3
    captured = capsys.readouterr()
    assert f"--emit-spaces {target}: cannot write the space files" in captured.err
    assert captured.out == ""
    assert target.read_text(encoding="utf-8") == "keep"
    assert not out.exists()


def test_text_format_mentions_inequality_numbers(space_dir, capsys):
    rc = run_cli(["check", space_dir / "trace_class_2.json", "unitary-four-rotation"])
    assert rc == 1
    text = capsys.readouterr().out
    assert "VIOLATED" in text
    assert "margin" in text


# the witness line of each searched criterion, numbers left out
AT_WITNESS = {
    "unitary-four-rotation": "max_k ||u_n + i^k x|| = {}  <  sqrt(1 + ||x||) = {}   (||x|| = {})",
    "unitary-t-gadget": "||[[v_n, x], [0, v_n]]|| = {}  <  sqrt(1 + ||x||) = {}   (||x|| = {})",
    "coisometry": "| ||[u_n  x]|| - sqrt(1 + ||x||^2) | = {}   (target {}, ||x|| = {})",
    "isometry": "| ||[u_n ; x]|| - sqrt(1 + ||x||^2) | = {}   (target {}, ||x|| = {})",
    "operator-system": "| ||[[v_n, x], [-x*, v_n]]|| - sqrt(1 + ||x||^2) | = {}   (target {}, ||x|| = {})",
}


@pytest.mark.parametrize("criterion", sorted(AT_WITNESS))
def test_text_witness_line_wording_and_numbers(space_dir, capsys, criterion):
    rc = run_cli(["check", space_dir / "linf3_e1.json", criterion])
    assert rc == 1
    text = capsys.readouterr().out
    margin = float(re.search(r"^margin    : (\S+)$", text, re.M).group(1))
    [line] = [ln for ln in text.splitlines() if ln.startswith("at witness: ")]
    template = AT_WITNESS[criterion]
    pattern = r"(\d+\.\d{6})".join(re.escape(part) for part in template.split("{}"))
    a, b, nx = (float(g) for g in re.fullmatch("at witness: " + pattern, line).groups())
    if criterion.startswith("unitary-"):
        # a = ||gadget||, b = sqrt(1 + ||x||), and the inequality a >= b fails
        assert a < b
        assert b == pytest.approx(math.sqrt(1.0 + nx), abs=2e-6)
        assert b - a == pytest.approx(-margin, abs=2e-6)
    else:
        # a = the deviation from the identity, b = sqrt(1 + ||x||^2)
        assert a > 0
        assert b == pytest.approx(math.sqrt(1.0 + nx**2), abs=2e-6)
        assert a == pytest.approx(-margin, abs=1e-6)


def write_diagonal_space(path, diagonals, unit=None):
    """A space file spanned by 2x2 diagonal matrices."""
    basis = [[[float(z), 0.0] for z in np.diag(d).reshape(-1)] for d in diagonals]
    doc = {"p": 2, "q": 2, "basis": basis}
    if unit is not None:
        doc["unit"] = [[float(z), 0.0] for z in unit]
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_must_be_positive(capsys, threads):
    rc = run_cli(["corpus", "--only", "non_algebra_span", "--threads", threads])
    assert rc == 3
    assert "threads must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("second", [[2, 0], [1, 1e-12]], ids=["dependent", "near-dependent"])
def test_rank_deficient_basis_exits_3(tmp_path, capsys, second):
    # the relative rank tolerance is spaces.RANK_TOL (1e-10) alone: no flag moves it
    path = write_diagonal_space(tmp_path / "basis.json", [[1, 0], second], unit=[1, 0])
    for extra in ([], ["--unit-index", 0]):
        assert run_cli(["check", path, "positive", *extra]) == 3
        assert "rank deficient" in capsys.readouterr().err


def test_level1_oracle_space_with_non_selfadjoint_unit_exits_3(tmp_path, capsys):
    path = tmp_path / "trace_swap.json"
    path.write_text(spaces.space_to_json(oracle_space_with_involution()))
    assert run_cli(["check", path, "operator-system"]) == 2  # the valid unit diag(0.6, 0.4)
    capsys.readouterr()
    assert run_cli(["check", path, "operator-system", "--unit-index", 1]) == 3  # E12
    assert "must be selfadjoint" in capsys.readouterr().err


EVERY_SUBCOMMAND = pytest.mark.parametrize("argv", [
    ["verify-formulas", "--trials", 5],
    ["corpus", "--only", "non_algebra_span"],
    ["check", "{space}", "mult-closed"],
    ["search", "{space}", "mult-closed"],
], ids=["verify-formulas", "corpus", "check", "search"])


@EVERY_SUBCOMMAND
def test_rank_tol_is_refused_by_every_subcommand(space_dir, capsys, argv):
    argv = [str(a).format(space=space_dir / "full_matrix_2.json") for a in argv]
    assert run_cli(argv + ["--rank-tol", -1]) == 3
    err = capsys.readouterr().err
    assert "--rank-tol" in err
    assert "invalid space file" not in err


@pytest.mark.parametrize("argv", [
    ["corpus", "--only", "non_algebra_span"],
    ["check", "{space}", "mult-closed"],
    ["search", "{space}", "mult-closed"],
], ids=["corpus", "check", "search"])
@pytest.mark.parametrize("flag, value", [("--tolerance", "nan")])
def test_non_finite_config_value_exits_3(space_dir, capsys, argv, flag, value):
    argv = [str(a).format(space=space_dir / "full_matrix_2.json") for a in argv]
    assert run_cli(argv + [flag, value]) == 3
    err = capsys.readouterr().err
    assert f"SearchConfig.{flag[2:]} must be a finite number" in err


@EVERY_SUBCOMMAND
def test_out_into_missing_directory_is_refused_up_front(space_dir, tmp_path, capsys, argv):
    argv = [str(a).format(space=space_dir / "full_matrix_2.json") for a in argv]
    out = tmp_path / "missing" / "r.json"
    assert run_cli(argv + ["--out", out]) == 3
    captured = capsys.readouterr()
    assert "--out" in captured.err and "output directory is missing or not writable" in captured.err
    assert captured.out == ""
    assert not out.parent.exists()


@EVERY_SUBCOMMAND
def test_out_naming_a_directory_is_refused_up_front(space_dir, tmp_path, capsys, argv):
    argv = [str(a).format(space=space_dir / "full_matrix_2.json") for a in argv]
    assert run_cli(argv + ["--out", tmp_path]) == 3
    captured = capsys.readouterr()
    assert f"--out {tmp_path}: names a directory, not a report file" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@EVERY_SUBCOMMAND
def test_failed_report_write_exits_3(space_dir, tmp_path, monkeypatch, capsys, argv):
    # the directory is writable, so only the write itself fails, as on a full disk
    def no_space(path, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(cli, "open", no_space, raising=False)
    argv = [str(a).format(space=space_dir / "full_matrix_2.json") for a in argv]
    out = tmp_path / "r.json"
    assert run_cli(argv + ["--out", out]) == 3
    err = capsys.readouterr().err
    assert f"error: --out {out}: cannot write the report ([Errno {errno.ENOSPC}]" in err
    assert "Traceback" not in err


def test_proved_report_prints_its_proof(space_dir, tmp_path, capsys):
    rc = run_cli(["check", space_dir / "full_matrix_2.json", "coisometry"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "samples   : 0\n" in text
    assert ("proof     : u u* B = B on every basis element B "
            "(largest residual 0.0e+00, tolerance 1e-12)\n") in text
    out = tmp_path / "r.json"
    rc = run_cli(["search", space_dir / "full_matrix_2.json", "unitary-four-rotation",
                  "--format", "json", "--out", out])
    assert rc == 0
    report = load_report(out)
    assert report["proof"] == {"identity": "u u* B = B = B u* u", "residual": 0.0, "tolerance": 1e-12}
    assert (report["samples"], report["trace"], report["levels_checked"]) == (0, [], [1, 2])


def test_searched_report_prints_no_proof(space_dir, tmp_path, capsys):
    rc = run_cli(["check", space_dir / "column_H2.json", "coisometry"])
    assert rc == 1
    assert "proof" not in capsys.readouterr().out
    out = tmp_path / "r.json"
    rc = run_cli(["check", space_dir / "column_H2.json", "coisometry", "--format", "json",
                  "--out", out])
    assert rc == 1
    assert "proof" not in load_report(out)


#: Space files that must be refused as format errors (exit 3), never read as a verdict.
MALFORMED_SPACES = {
    "boolean-p": {"p": True, "q": 1, "basis": [[[1, 0]]]},
    "boolean-pair": {"p": 1, "q": 1, "basis": [[[True, False]]]},
    "list-oracle": {"p": 1, "q": 1, "basis": [[[1, 0]]], "norm_mode": "level1-oracle",
                    "level1_oracle": ["trace_norm"]},
    "nan-involution": {"p": 1, "q": 1, "basis": [[[1, 0]]], "unit": [[1, 0]], "involution": [[[math.nan, 0]]]},
    "nan-unit": {"p": 1, "q": 1, "basis": [[[1, 0]]], "unit": [[math.nan, 0]]},
    # raw document bytes: not UTF-8, nested past the recursion limit, an int of more than 4,300 digits
    "not-utf8": b'{"p": 1, "q": 1, "basis": [[[1, 0]]], "norm_mode": "\xff"}',
    "deep-nesting": b"[" * 100_000,
    "long-int": b'{"p": 1, "q": 1, "basis": [[[1' + b"0" * 4400 + b', 0]]]}',
    # ints beyond the double range
    "huge-basis": {"p": 1, "q": 1, "basis": [[[10**400, 0]]]},
    "huge-unit": {"p": 1, "q": 1, "basis": [[[1, 0]]], "unit": [[0, -(10**400)]]},
    "huge-involution": {"p": 1, "q": 1, "basis": [[[1, 0]]], "involution": [[[10**400, 0]]]},
    # one entry of 200,000 numbers (a 1 MB file): its echo in the message is capped
    "long-entry": {"p": 1, "q": 1, "basis": [[[0.5] * 200_000]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SPACES))
def test_malformed_space_file_exits_3(tmp_path, capsys, name):
    doc = MALFORMED_SPACES[name]
    # nan is written as NaN, which the loader reads back
    data = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(SpaceFormatError):
        spaces.load_space_file(path)
    # operator-system: the NaN involution once loaded and was proved by the ternary identity
    assert run_cli(["check", path, "operator-system"]) == 3
    captured = capsys.readouterr()
    assert "invalid space file" in captured.err
    assert len(captured.err.encode()) < 1024
    assert captured.out == ""
