#!/usr/bin/env python3
"""Audits a golden-CSV regeneration: how far did the rows move?

Usage:
    python3 tests/golden/drift.py <old.csv> <new.csv>
    python3 tests/golden/drift.py --selftest

Compares two sweep CSVs cell by cell. Discrete cells must not change at
all: text cells (status, app), integer-valued columns (core counts,
instances, `violation`) and ladder columns (names containing `level` or
`freq`). A continuous cell may move by at most 1e-12 relative. Prints
the count of moved cells per column and the largest move with its
column; exits 1 if the headers or row counts differ, a discrete cell
changed or a continuous cell moved by more than the bound.
"""
import csv
import math
import os
import re
import sys
import tempfile

REL_BOUND = 1e-12
LADDER_COLUMN = re.compile(r"level|freq")
INTEGER = re.compile(r"^[+-]?\d+$")


def as_float(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def is_continuous(name, cells):
    """A column whose cells are all numbers, not all integer literals,
    and which does not hold ladder values."""
    if LADDER_COLUMN.search(name):
        return False
    if any(as_float(c) is None for c in cells):
        return False
    return not all(INTEGER.match(c) for c in cells)


def relative_move(old, new):
    if old == new:
        return 0.0
    if old == 0.0:
        return math.inf
    return abs(new - old) / abs(old)


def compare(old_path, new_path, out=sys.stdout):
    """Prints the audit of old -> new; returns True when it passes."""
    with open(old_path, newline="") as f:
        old = list(csv.reader(f))
    with open(new_path, newline="") as f:
        new = list(csv.reader(f))
    print(f"drift: {old_path} -> {new_path}", file=out)
    if not old or not new or old[0] != new[0]:
        print("  FAIL: headers differ", file=out)
        return False
    if len(old) != len(new):
        print(f"  FAIL: {len(old) - 1} rows -> {len(new) - 1} rows", file=out)
        return False
    header = old[0]
    for r, (a, b) in enumerate(zip(old[1:], new[1:]), start=1):
        if len(a) != len(header) or len(b) != len(header):
            print(f"  FAIL: row {r} does not have {len(header)} cells",
                  file=out)
            return False
    continuous = [is_continuous(name, [row[c] for row in old[1:]])
                  for c, name in enumerate(header)]
    discrete_changes = []
    moved = {}  # column -> cells moved
    largest = (0.0, None, None, None, None)  # rel, column, row, old, new
    for r, (a, b) in enumerate(zip(old[1:], new[1:]), start=1):
        for c, name in enumerate(header):
            if a[c] == b[c]:
                continue
            x, y = as_float(a[c]), as_float(b[c])
            if not continuous[c] or x is None or y is None:
                discrete_changes.append((r, name, a[c], b[c]))
                continue
            rel = relative_move(x, y)
            moved[name] = moved.get(name, 0) + 1
            if rel > largest[0]:
                largest = (rel, name, r, a[c], b[c])
    print(f"  {len(header)} columns, {len(old) - 1} rows; "
          f"{sum(continuous)} continuous", file=out)
    total = sum(moved.values())
    by_column = ", ".join(f"{k} {v}" for k, v in moved.items())
    print(f"  continuous cells moved: {total}"
          + (f" ({by_column})" if total else ""), file=out)
    if largest[1] is not None:
        rel, name, r, x, y = largest
        print(f"  largest move: {rel:.3g} relative in {name}, row {r} "
              f"({x} -> {y})", file=out)
    print(f"  discrete cells changed: {len(discrete_changes)}", file=out)
    for r, name, x, y in discrete_changes[:10]:
        print(f"    row {r} {name}: {x} -> {y}", file=out)
    ok = not discrete_changes and largest[0] <= REL_BOUND
    print(f"  {'OK' if ok else 'FAIL'} (bound {REL_BOUND:g} relative)",
          file=out)
    return ok


def selftest():
    header = ["job", "status", "app", "level_freq_ghz", "active_cores",
              "peak_temp_c", "violation"]
    rows = [["0", "ok", "x264", "3.600000000000001", "47",
             "62.242045619432467", "0"],
            ["1", "ok", "ferret", "3.2000000000000002", "71",
             "70.771216795577942", "0"]]

    def variant(row, col, value):
        changed = [list(r) for r in rows]
        changed[row][col] = value
        return changed

    cases = [
        ("identical files pass", rows, True),
        ("a 1e-15 move passes", variant(0, 5, repr(62.242045619432467 *
                                                    (1 + 1e-15))), True),
        ("a 1e-9 move fails", variant(0, 5, repr(62.242045619432467 *
                                                  (1 + 1e-9))), False),
        ("a changed level fails", variant(1, 3, "3.0000000000000004"), False),
        ("a changed core count fails", variant(1, 4, "70"), False),
        ("a changed status fails", variant(0, 1, "error"), False),
        ("a changed violation fails", variant(0, 6, "1"), False),
        ("a dropped row fails", rows[:1], False),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        old_path = os.path.join(tmp, "old.csv")
        new_path = os.path.join(tmp, "new.csv")
        with open(old_path, "w", newline="") as f:
            csv.writer(f).writerows([header] + rows)
        for what, new_rows, expect in cases:
            with open(new_path, "w", newline="") as f:
                csv.writer(f).writerows([header] + new_rows)
            with open(os.devnull, "w") as sink:
                got = compare(old_path, new_path, out=sink)
            status = "ok" if got == expect else "WRONG"
            failures += got != expect
            print(f"selftest: {what}: {status}")
    print(f"selftest: {len(cases) - failures}/{len(cases)} cases hold")
    return failures == 0


def main(argv):
    if argv == ["--selftest"]:
        return 0 if selftest() else 1
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return 0 if compare(argv[0], argv[1]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
