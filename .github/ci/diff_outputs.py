"""Print how the analyze outputs under two directories differ.

    python .github/ci/diff_outputs.py BASE_DIR HEAD_DIR

For each file that differs: a CSV gets, per column, the largest
difference between the two sides relative to the column's largest
magnitude; a report.txt gets each changed key with both values; any
other file is named. Files on one side only are named too. Exits 0
whatever it finds: it reports and gates nothing.
"""

import csv
import os
import sys


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _csv_columns(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in col] for col in zip(*rows[1:])]


def _diff_csv(name, base, head):
    bh, bcols = _csv_columns(base)
    hh, hcols = _csv_columns(head)
    if bh != hh or [len(c) for c in bcols] != [len(c) for c in hcols]:
        print(f"{name}: header or row count differs")
        return
    for col, b, h in zip(bh, bcols, hcols):
        scale = max(max(map(abs, b), default=0.0), max(map(abs, h), default=0.0))
        diff = max((abs(x - y) for x, y in zip(b, h)), default=0.0)
        if diff:
            rel = diff / scale if scale else float("inf")
            print(f"{name}: {col} max |diff| {diff:.3g}, {rel:.3g} of the column's max")


def _report_keys(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").partition(" = ")[::2] for line in fh)


def _diff_report(name, base, head):
    b, h = _report_keys(base), _report_keys(head)
    for key in sorted(b.keys() | h.keys()):
        if b.get(key) != h.get(key):
            print(f"{name}: {key}: {b.get(key, '<absent>')} -> {h.get(key, '<absent>')}")


def main(base_root, head_root):
    base, head = _files(base_root), _files(head_root)
    for name in sorted(base ^ head):
        print(f"{name}: only in {'base' if name in base else 'head'}")
    for name in sorted(base & head):
        bp, hp = os.path.join(base_root, name), os.path.join(head_root, name)
        with open(bp, "rb") as fb, open(hp, "rb") as fh:
            if fb.read() == fh.read():
                continue
        if name.endswith(".csv"):
            _diff_csv(name, bp, hp)
        elif os.path.basename(name) == "report.txt":
            _diff_report(name, bp, hp)
        else:
            print(f"{name}: differs")


if __name__ == "__main__":
    main(*sys.argv[1:3])
