"""Dump the package corpus's reports at fixed seeds, or list what moved between two dumps.

    python3 scripts/payload_diff.py dump OUT.json [--seeds 7 1729 4242] [--src DIR]
    python3 scripts/payload_diff.py diff OLD.json NEW.json

``dump`` runs every corpus entry's expected criteria at each seed with the
default SearchConfig (each entry's own tolerance and max_level, as
``opspace corpus`` does).  On every entry with a square ambient it also runs,
with the same config, checks that no entry expects: through
``criteria.run_check``, ``positive`` on the unit (where the entry has one) and
the three multiplier checks with basis element 0 as w (the only checks
whose ``CRITERIA`` row takes a w); and ``adjoint`` on x =
basis element 0 scaled to norm one, against z = x* and against z = x (keys
``ADJOINT_CHECKS``).  On every entry it runs ``left-multiplier-map`` with T
the identity, and with T the involution's coefficient matrix where the entry
has one (keys ``LEFT_MULTIPLIER_CHECKS``).  It writes every report's
``to_dict()`` under the key "seed/entry/criterion", as canonical JSON: sorted
keys, and no ``generated_at`` (a report has none; only the CLI envelope adds
it).
``--src`` imports the package from that directory instead of this checkout's
``src``, so one copy of the script can dump another checkout.

``diff`` prints one line per payload that moved: its key, verdict, the margin
before and after with the relative change of its size (for a violation, the
size is the violation found), and the top-level fields that moved; a moved
dict field such as ``config`` also names the keys inside it that moved, were
added or were removed.  A last line counts the byte-identical payloads, the
moved ones by verdict, and the changed verdicts, names the largest relative
fall of a violation found (the size of a margin that is VIOLATED in both dumps)
with its key, gives the total ``samples`` of each dump, and counts the
witnesses that moved while their margin did not.  ``diff`` exits 1 when any payload moved or is in one dump only,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

DEFAULT_SEEDS = (7, 1729, 4242)
#: The checks dumped on every square entry besides its expected ones.
SQUARE_CHECKS = ("positive", "multiplier-left", "multiplier-right", "multiplier-quasi")
#: The keys of the two ``adjoint`` runs on every square entry: z = x* and z = x.
ADJOINT_CHECKS = ("adjoint-x*", "adjoint-x")
#: The keys of the ``left-multiplier-map`` runs: T the identity, and T the involution.
LEFT_MULTIPLIER_CHECKS = ("left-multiplier-map-id", "left-multiplier-map-involution")


def dump(out: Path, seeds, src: Path):
    sys.path.insert(0, str(src))
    from opspace import corpus, criteria, matcore, witness

    payloads = {}
    for seed in seeds:
        cfg = witness.SearchConfig(seed=seed)
        for entry in corpus.build_corpus():
            reports = corpus.run_entry(entry, cfg)
            space = entry.space
            local = corpus.entry_config(entry, cfg)
            if space.p == space.q:
                for crit in SQUARE_CHECKS:
                    if crit != "positive" or space.unit is not None:
                        w_index = 0 if criteria.CRITERIA[crit].takes_w else None
                        reports.append((crit, criteria.run_check(space, crit, local, w_index)))
                x = space.basis[0] / matcore.op_norm(space.basis[0])
                reports += [(crit, criteria.check_adjoint(x, z, local))
                            for crit, z in zip(ADJOINT_CHECKS, (matcore.dagger(x), x))]
            maps = (np.eye(space.dim), space.involution)
            reports += [(crit, criteria.check_left_multiplier_map(space, T, local))
                        for crit, T in zip(LEFT_MULTIPLIER_CHECKS, maps) if T is not None]
            for crit, report in reports:
                payloads[f"{seed}/{entry.name}/{crit}"] = report.to_dict()
    out.write_text(json.dumps(payloads, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"{len(payloads)} payloads at seeds {', '.join(map(str, seeds))} -> {out}")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _size_change(old: float, new: float) -> str:
    if old == new:
        return "unchanged"
    if old == 0:
        return "from 0"
    return f"|margin| {(abs(new) - abs(old)) / abs(old):+.3g}"


def _moved_field(name: str, a, b) -> str:
    """The field's name, and for two dicts the keys inside it that moved, were added or were removed."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return name
    changes = {"moved": sorted(k for k in a.keys() & b.keys() if _canonical(a[k]) != _canonical(b[k])),
               "added": sorted(b.keys() - a.keys()), "removed": sorted(a.keys() - b.keys())}
    inside = "; ".join(what + " " + ", ".join(keys) for what, keys in changes.items() if keys)
    return f"{name} ({inside})"


def diff(old_path: Path, new_path: Path) -> int:
    """Print what moved between two dumps; returns the number of payloads that moved or are in one only."""
    old = json.loads(old_path.read_text(encoding="utf-8"))
    new = json.loads(new_path.read_text(encoding="utf-8"))
    same = 0
    moved = {}
    verdicts = 0
    one_sided = 0
    witnesses = 0  # payloads whose witness moved while their margin did not
    fall = (0.0, None)  # the largest relative fall of a violation, and its key
    for key in sorted(old.keys() | new.keys()):
        if key not in new or key not in old:
            print(f"{key}: only in {old_path if key in old else new_path}")
            one_sided += 1
            continue
        a, b = old[key], new[key]
        if _canonical(a) == _canonical(b):
            same += 1
            continue
        fields = [_moved_field(f, a.get(f), b.get(f)) for f in sorted(a.keys() | b.keys())
                  if _canonical(a.get(f)) != _canonical(b.get(f))]
        verdict = a["verdict"] if a["verdict"] == b["verdict"] else f"{a['verdict']} -> {b['verdict']}"
        verdicts += a["verdict"] != b["verdict"]
        witnesses += a["margin"] == b["margin"] and _canonical(a.get("witness")) != _canonical(b.get("witness"))
        moved[a["verdict"]] = moved.get(a["verdict"], 0) + 1
        if a["verdict"] == b["verdict"] == "VIOLATED" and abs(b["margin"]) < abs(a["margin"]):
            rel = (abs(a["margin"]) - abs(b["margin"])) / abs(a["margin"])
            if rel > fall[0]:
                fall = (rel, key)
        print(f"{key}  {verdict}  margin {a['margin']!r} -> {b['margin']!r} "
              f"({_size_change(a['margin'], b['margin'])})  moved: {', '.join(fields)}")
    by_verdict = ", ".join(f"{n} {v}" for v, n in sorted(moved.items())) or "none"
    largest = f"largest VIOLATED fall {fall[0]:.3g} at {fall[1]}" if fall[1] else "no VIOLATED violation fell"
    samples = " -> ".join(f"{sum(p.get('samples', 0) for p in dump.values()):,}" for dump in (old, new))
    print(f"{same} of {len(old.keys() & new.keys())} payloads byte-identical; moved: {by_verdict}; "
          f"{verdicts} verdicts changed; {largest}; samples {samples}; "
          f"{witnesses} witnesses moved at an unchanged margin")
    return sum(moved.values()) + one_sided


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="write the corpus reports at the given seeds")
    p_dump.add_argument("out", type=Path)
    p_dump.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    p_dump.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory to import the opspace package from")
    p_diff = sub.add_parser("diff", help="list the payloads that moved between two dumps")
    p_diff.add_argument("old", type=Path)
    p_diff.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.seeds, args.src)
        return 0
    return 1 if diff(args.old, args.new) else 0


if __name__ == "__main__":
    sys.exit(main())
