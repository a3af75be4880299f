"""Compare two ``tools/oracle_dump.py`` directories, telling float drift from
changed behaviour.

    python3 tools/oracle_diff.py A B

``diff -r`` cannot tell a change that only moves floats (a reordered sum, a
different eigen-solver call) from one that changes what the program says.
This tool compares the two directories file by file and line by line:

* a line that parses as JSON is compared as a JSON value: the keys, the list
  lengths and every string, integer, bool and null must be equal (an integer
  against a float is a change), while floats may differ;
* any other line (``exit: N``, an escaped traceback, the ``verify`` text) is
  split into the numbers that stand as words and the text around them: the
  text and every integer must be equal, while floats may differ.

A file present on one side only, or with a different number of lines, is a
change.  For every file that differs the tool prints either
``CHANGED file: where`` or ``FLOATS file: max |diff| X``, then a summary
line.  The exit code is 1 when some file CHANGED, 0 when the directories are
identical or differ in floats only, and 2 on bad usage.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

# a number standing as a word: not part of a name such as "k2" or a hex digest
NUMBER = re.compile(r"(?<![\w.+-])([-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)(?![\w.])")


class Changed(Exception):
    """A difference that is more than float drift; the message says where."""


def _float_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b)


def _json_diff(a, b, where: str) -> float:
    """Largest float difference between two JSON values; Changed otherwise."""
    if type(a) is not type(b):
        raise Changed(f"{where}: {a!r} != {b!r}")
    if isinstance(a, float):
        return _float_diff(a, b)
    if isinstance(a, dict):
        if list(a) != list(b):
            raise Changed(f"{where}: keys {sorted(a)} != {sorted(b)}")
        return max((_json_diff(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            raise Changed(f"{where}: length {len(a)} != {len(b)}")
        return max((_json_diff(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    if a != b:
        raise Changed(f"{where}: {a!r} != {b!r}")
    return 0.0


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def _text_diff(a: str, b: str, where: str) -> float:
    """Largest float difference between two text lines; Changed otherwise."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb):
        raise Changed(f"{where}: {a!r} != {b!r}")
    worst = 0.0
    # split() alternates text (even positions) and numbers (odd positions)
    for i, (x, y) in enumerate(zip(pa, pb)):
        if i % 2 and _is_float(x) and _is_float(y):
            worst = max(worst, _float_diff(float(x), float(y)))
        elif x != y:
            raise Changed(f"{where}: {a!r} != {b!r}")
    return worst


def _line_diff(a: str, b: str, where: str) -> float:
    if a == b:
        return 0.0
    try:
        ja, jb = json.loads(a), json.loads(b)
    except ValueError:
        return _text_diff(a, b, where)
    return _json_diff(ja, jb, where)


def file_diff(a: Path, b: Path) -> float:
    """Largest float difference between two dump files; Changed otherwise."""
    la = a.read_text(encoding="utf-8").splitlines()
    lb = b.read_text(encoding="utf-8").splitlines()
    if len(la) != len(lb):
        raise Changed(f"{len(la)} lines != {len(lb)} lines")
    return max((_line_diff(x, y, f"line {i + 1}") for i, (x, y) in enumerate(zip(la, lb))),
               default=0.0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(p) for p in argv]
    if not all(r.is_dir() for r in roots):
        print("both arguments must be oracle_dump directories", file=sys.stderr)
        return 2
    names = sorted({p.relative_to(r).as_posix() for r in roots
                    for p in r.rglob("*") if p.is_file()})
    changed = floats = 0
    for name in names:
        a, b = (r / name for r in roots)
        try:
            if not (a.is_file() and b.is_file()):
                raise Changed(f"only in {a.parent if a.is_file() else b.parent}")
            worst = file_diff(a, b)
        except Changed as exc:
            changed += 1
            print(f"CHANGED {name}: {exc}")
            continue
        if worst > 0.0:
            floats += 1
            print(f"FLOATS {name}: max |diff| {worst:.3g}")
    print(f"{len(names)} files: {changed} changed, {floats} floats only, "
          f"{len(names) - changed - floats} identical")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
