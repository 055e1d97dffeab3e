"""Count the planted defects the search misses: linf3 with the unit (1, 1, 1 - eps).

    python3 scripts/detection_floor.py [--seeds FIRST LAST] [--src DIR]

On linf3 (the diagonal 3x3 matrices with the sup norm) the unit (1, 1, 1) is a
unitary, so every searched row holds there.  Moving its last entry to 1 - eps
breaks every row by a defect of size about eps: four-rotation, for one, is
violated by about eps/2 at x = eps e_3, and nowhere by much more.  No ternary
identity proves these rows, and u_eps satisfies neither half of
u u* B = B = B u* u, so no witness is constructed: each row is decided by its
search.

The script checks the five searched rows (``ROWS``) at each eps of ``EPSILONS``
and each seed of the range (default 1-40) with the default SearchConfig at that
seed, and prints one line per row with its misses (HOLDS_WITHIN_BUDGET
verdicts) at each eps, and the seeds of every miss.  It exits 1 when any check
misses and 0 otherwise.  ``--src`` imports the package from that directory
instead of this checkout's ``src``, so one copy of the script can measure
another checkout.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROWS = ("unitary-four-rotation", "unitary-t-gadget", "coisometry", "isometry", "operator-system")
EPSILONS = (1e-3, 1e-4, 1e-5, 4e-6)


def planted_unit(eps: float) -> np.ndarray:
    """The coefficients of u_eps = diag(1, 1, 1 - eps) in linf3's basis."""
    return np.array([1.0, 1.0, 1.0 - eps], dtype=np.complex128)


def check(row: str, eps: float, seed: int):
    """The report of one searched row of linf3 at u_eps, at the default SearchConfig with this seed."""
    from opspace import corpus, criteria, witness

    space = corpus.build_linf(3, "ones").space
    return criteria.SEARCH_CRITERIA[row].check(space, planted_unit(eps), witness.SearchConfig(seed=seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs=2, type=int, default=(1, 40), metavar=("FIRST", "LAST"))
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    from opspace import criteria

    seeds = range(args.seeds[0], args.seeds[1] + 1)
    start = time.perf_counter()
    misses = 0
    print(f"seeds {seeds.start}-{seeds.stop - 1}; misses per eps " + " ".join(f"{eps:g}" for eps in EPSILONS))
    for row in ROWS:
        missed = {eps: [s for s in seeds if check(row, eps, s).verdict == criteria.HOLDS_WITHIN_BUDGET]
                  for eps in EPSILONS}
        misses += sum(len(m) for m in missed.values())
        where = "; ".join(f"{eps:g}: seeds {', '.join(map(str, m))}" for eps, m in missed.items() if m)
        print(f"{row:24s} " + " ".join(f"{len(m):5d}" for m in missed.values()) + (f"  ({where})" if where else ""))
    checks = len(ROWS) * len(EPSILONS) * len(seeds)
    print(f"{misses} misses of {checks} checks in {time.perf_counter() - start:.1f} s")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
