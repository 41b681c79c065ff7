"""Summarise a trace file written by ``run.py --trace 1``: per span name, the
calls, inclusive seconds, mean inclusive milliseconds per call and self
seconds, over every traced repeat in the file.

    python3 perfbench/spans.py .perfbench_out/trace-certify-transport.json
"""
import json
import sys
from collections import defaultdict


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[sid] = (end - start) - covered
    return out


def summarise(path) -> list[tuple]:
    with open(path) as fh:
        spans = [tuple(s) for s in json.load(fh)["spans"]]
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, *_ in spans:
        row = rows[name]
        row[0] += 1
        row[1] += end - start
        row[2] += selfs[sid]
    return sorted(((name, n, incl, 1000.0 * incl / n, self_s)
                   for name, (n, incl, self_s) in rows.items()),
                  key=lambda r: -r[4])


if __name__ == "__main__":
    print(f"{'span':34s} {'calls':>7s} {'incl_s':>9s} {'ms/call':>9s} {'self_s':>9s}")
    for name, n, incl, per_call, self_s in summarise(sys.argv[1]):
        print(f"{name:34s} {n:7d} {incl:9.4f} {per_call:9.3f} {self_s:9.4f}")
