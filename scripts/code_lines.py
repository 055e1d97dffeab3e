"""Count the code lines of Python modules: lines that hold a token other than a comment or a docstring.

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them (default: this
checkout's ``src``).  A docstring is any statement that is a string literal
alone, as a module, class or function docstring is; blank lines, comments and
the lines of such strings do not count, and a line that holds any other token
(a continuation of a multi-line string or bracket included) does.  The script
prints one line per module, ``<count>  <path>``, and a last line with the total.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

#: Tokens that hold no code: layout, and comments.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a comment or a docstring."""
    lines = set()
    statement = []  # the tokens of the current logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def modules(paths) -> list:
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[Path(__file__).resolve().parent.parent / "src"])
    args = parser.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
