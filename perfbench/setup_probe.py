"""Set-up cost in a fresh process: import opspace, then load and validate space files.

Usage: python3 setup_probe.py SRC_DIR SPACE_FILE...  (prints the elapsed seconds)
"""

import sys
import time


def main(argv):
    t0 = time.perf_counter()
    src, *files = argv
    sys.path.insert(0, src)
    from opspace import spaces

    for path in files:
        spaces.load_space_file(path)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
