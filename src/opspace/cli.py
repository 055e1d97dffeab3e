"""Command-line front end: load spaces, run criteria, verify the norm identities, run the corpus.

``check`` (and ``search``, which is ``check`` with 256 restarts by default)
runs a named criterion through ``criteria.run_check``, the table lookup the
corpus uses too.  Each subcommand takes only the flags it reads: every one
takes ``--seed``, ``--format`` and ``--out``; ``check``, ``search`` and ``corpus``
add the search budget, and ``--threads`` is on ``corpus``.  A budget flag's
dest is the ``witness.SearchConfig`` field it sets; the budgets and tolerances
no flag sets are constants (README "Reports"), and ``corpus`` runs every entry
at the config its flags give.

Exit codes: 0 = HOLDS_WITHIN_BUDGET (or all suites/entries pass), 1 = VIOLATED
(or a suite/entry mismatch), 2 = INCONCLUSIVE or UNSUPPORTED_LEVEL, 3 = input
error, usage errors included.  ``main`` alone turns an input error
(``OpspaceError``) raised by any subcommand into its message on stderr and
exit 3, so a subcommand raises and never prints one.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys

import numpy as np

from . import __version__, corpus, criteria, formulas, spaces, witness
from .errors import InvalidInputError, OpspaceError

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


_VERDICT_EXIT = {
    criteria.HOLDS_WITHIN_BUDGET: EXIT_HOLDS,
    criteria.VIOLATED: EXIT_VIOLATED,
    criteria.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    criteria.UNSUPPORTED_LEVEL: EXIT_INCONCLUSIVE,
}


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default {witness.DEFAULT_SEED})")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--tolerance", type=float, default=None, help="decision tolerance (default 1e-6)")
    p.add_argument("--levels", type=int, default=None, dest="max_level", metavar="LEVELS",
                   help="largest amplification level searched")
    p.add_argument("--restarts", type=int, default=None, help="restart budget per criterion")


def _build_config(args) -> witness.SearchConfig:
    given = {f.name: v for f in dataclasses.fields(witness.SearchConfig)
             if (v := getattr(args, f.name, None)) is not None}
    if args.out:
        if os.path.isdir(args.out):
            raise InvalidInputError(f"--out {args.out}: names a directory, not a report file")
        outdir = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(outdir) or not os.access(outdir, os.W_OK):
            raise InvalidInputError(f"--out {args.out}: output directory is missing or not writable")
    return witness.SearchConfig(**given)


def _emit(payload: dict, text: str, args) -> None:
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n" if args.format == "json" else text
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise InvalidInputError(f"--out {args.out}: cannot write the report ({exc})") from exc
    else:
        sys.stdout.write(body)


def _envelope(payload: dict) -> dict:
    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return payload


def _fmt_margin(m: float) -> str:
    return f"{m:+.9f}"


def _inequality_line(report: criteria.CheckReport) -> str | None:
    """Render the violated inequality/equality with its evaluated sides."""
    aux = (report.witness or {}).get("aux", {})
    nx = aux.get("witness_norm")
    v = aux.get("violation")
    spec = criteria.SEARCH_CRITERIA.get(report.criterion)
    if nx is None or v is None or spec is None:
        return None
    target = spec.target(nx)
    if spec.signed:
        return (f"{spec.shows} = {target - v:.6f}  <  {spec.target_text} = {target:.6f}"
                f"   (||x|| = {nx:.6f})")
    return (f"| {spec.shows} - {spec.target_text} | = {v:.6f}   "
            f"(target {target:.6f}, ||x|| = {nx:.6f})")


def _report_text(report: criteria.CheckReport) -> str:
    lines = [f"criterion : {report.criterion}",
             f"verdict   : {report.verdict}",
             f"margin    : {_fmt_margin(report.margin)}",
             f"levels    : {report.levels_checked}",
             f"samples   : {report.samples}"]
    if report.proof is not None:
        lines.append(f"proof     : {report.proof['identity']} on every basis element B "
                     f"(largest residual {report.proof['residual']:.1e}, "
                     f"tolerance {report.proof['tolerance']:.0e})")
    for note in report.notes:
        lines.append(f"note      : {note}")
    w = report.witness or {}
    aux = w.get("aux", {})
    if report.verdict == criteria.VIOLATED:
        ineq = _inequality_line(report)
        if ineq:
            lines.append(f"at witness: {ineq}")
        if w.get("coeffs") is not None:
            lines.append(f"witness   : level-{w['level']} element, coefficients below")
            lines.append(json.dumps(w["coeffs"]))
        for key, val in aux.items():
            if key != "witness_norm":
                lines.append(f"aux {key}: {val}")
    return "\n".join(lines) + "\n"


def _load_space(path: str, args) -> spaces.SpaceRep:
    try:
        space = spaces.load_space_file(path)
    except OSError as exc:
        raise InvalidInputError(f"cannot load space file {path!r}: {exc}") from exc
    except OpspaceError as exc:
        raise InvalidInputError(f"invalid space file {path!r}: {exc}") from exc
    idx = args.unit_index
    if idx is not None:
        if not 0 <= idx < space.dim:
            raise InvalidInputError(f"--unit-index {idx} out of range (basis has {space.dim} elements)")
        unit = np.zeros(space.dim, dtype=np.complex128)
        unit[idx] = 1.0
        space = spaces.make_space(space.basis, unit=unit, involution=space.involution,
                                  norm_mode=space.norm_mode, level1_oracle=space.level1_oracle)
    return space


def cmd_check(args) -> int:
    cfg = _build_config(args)
    if not os.path.exists(args.space_file):
        raise InvalidInputError(f"input file does not exist: {args.space_file}")
    space = _load_space(args.space_file, args)
    report = criteria.run_check(space, args.criterion, cfg, args.w_index)
    _emit(_envelope(report.to_dict()), _report_text(report), args)
    return _VERDICT_EXIT[report.verdict]


def cmd_verify_formulas(args) -> int:
    cfg = _build_config(args)
    suites = formulas.run_all_suites(trials=args.trials, seed=cfg.seed)
    ok = all(s.passed for s in suites)
    payload = _envelope({
        "command": "verify-formulas",
        "trials": args.trials,
        "seed": cfg.seed,
        "suites": [s.to_dict() for s in suites],
        "all_passed": ok,
    })
    lines = []
    for s in suites:
        tag = "PASS" if s.passed else "FAIL"
        lines.append(f"[{tag}] {s.name:<32} trials={s.trials:<5} max deviation = {s.max_deviation:.3e}"
                     f" (tolerance {s.tolerance:.0e})")
    lines.append("all suites passed" if ok else "FAILURES present")
    _emit(payload, "\n".join(lines) + "\n", args)
    return EXIT_HOLDS if ok else EXIT_VIOLATED


def cmd_corpus(args) -> int:
    cfg = _build_config(args)
    built = corpus.build_corpus() if args.emit_spaces else None  # built once: --only runs one, all are written
    entries = corpus.select_entries(args.only) if built is None else corpus.pick_entries(built, args.only)
    result = corpus.run_entries(entries, cfg, cfg.threads)
    if args.emit_spaces:  # written after the run, so a refused run writes no file
        try:
            corpus.write_space_files(args.emit_spaces, built)
        except OSError as exc:
            raise InvalidInputError(f"--emit-spaces {args.emit_spaces}: cannot write the space files "
                                    f"({exc})") from exc
    payload = _envelope({
        "command": "corpus",
        "config": cfg.to_dict(),
        "rows": result["rows"],
        "all_match": result["all_match"],
    })
    width = max(len(r["entry"]) for r in result["rows"])
    lines = [f"{'entry':<{width}}  {'criterion':<24} {'expected':<20} {'verdict':<20} margin"]
    for r in result["rows"]:
        mark = "" if r["match"] else "   << MISMATCH"
        lines.append(f"{r['entry']:<{width}}  {r['criterion']:<24} {r['expected']:<20} "
                     f"{r['verdict']:<20} {_fmt_margin(r['margin'])}{mark}")
    lines.append("all entries match" if result["all_match"] else "MISMATCHES present")
    _emit(payload, "\n".join(lines) + "\n", args)
    return EXIT_HOLDS if result["all_match"] else EXIT_VIOLATED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="opspace",
                                 description="Decision procedures for concrete operator spaces")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, what, restarts in (("check", "run one criterion on a space file", None),
                                 ("search", "like check, with 256 restarts by default", 256)):
        p_run = sub.add_parser(name, help=what)
        p_run.add_argument("space_file")
        p_run.add_argument("criterion", help="one of: " + ", ".join(criteria.SPACE_CRITERIA))
        p_run.add_argument("--unit-index", type=int, default=None,
                           help="use basis element #i as the distinguished element")
        p_run.add_argument("--w-index", type=int, default=None,
                           help="basis element acting as the candidate multiplier w")
        _add_budget_flags(p_run)
        _add_output_flags(p_run)
        p_run.set_defaults(func=cmd_check, restarts=restarts)

    p_vf = sub.add_parser("verify-formulas", help="run the block-matrix norm identity suites")
    p_vf.add_argument("--trials", type=int, default=200)
    _add_output_flags(p_vf)
    p_vf.set_defaults(func=cmd_verify_formulas)

    p_corpus = sub.add_parser("corpus", help="run every reference space against expected verdicts")
    p_corpus.add_argument("--only", default=None, help="run a single named entry")
    p_corpus.add_argument("--emit-spaces", default=None,
                          help="after the run, write each entry's space-definition JSON into this directory")
    _add_budget_flags(p_corpus)
    p_corpus.add_argument("--threads", type=int, default=1, help="worker thread cap")
    _add_output_flags(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help or --version, 2 on a usage error
        return EXIT_INPUT_ERROR if exc.code else 0
    try:
        return args.func(args)
    except OpspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
