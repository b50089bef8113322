"""Summarize one benchmark result set, or compare two.

    python3 perfbench/compare.py RESULTS_A                # one set
    python3 perfbench/compare.py RESULTS_A RESULTS_B      # B against A

A result set is a directory of the records that ``run.py --out`` writes, one
per run, usually one run per seed.  For every workload and metric the table
gives the median, the quartiles, the sample count and the spread, which is
the distance between the quartiles as a share of the median.  End-to-end
metrics carry the bound from ``BENCHMARK.json``: a metric whose spread
exceeds its bound in either set is marked unresolved, and one whose median
in B is worse than in A by more than its bound is marked as a breach.
Per-layer metrics, from traced runs, have no bound.  The exit status is 1
when there is a breach.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """{(workload, trace): {metric: [values]}} of one result set."""
    values = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            values[(record["workload"], record["trace"])][name].append(metric["value"])
    return values


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (IQR over the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in argv]
    breach = False
    for key in sorted(set().union(*sets)):
        workload, trace = key
        print(f"\n{workload} ({'traced, per-layer' if trace else 'end-to-end'})")
        names = sorted(set().union(*(s[key] for s in sets)))
        for name in names:
            bound = e2e[name]["bound"] if name in e2e and not trace else None
            cells, flags = [], []
            for s in sets:
                if not s[key].get(name):
                    cells.append("missing")
                    continue
                med, q1, q3, spread = stats(s[key][name])
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(s[key][name])} "
                             f"spread={spread:.3f}")
                if bound is not None and spread > bound and "UNRESOLVED" not in flags:
                    flags.append("UNRESOLVED")
            if bound is not None and len(sets) == 2 and all(s[key].get(name) for s in sets):
                med_a, med_b = (statistics.median(s[key][name]) for s in sets)
                worse = (med_b - med_a) / abs(med_a)
                if e2e[name]["better"] == "higher":
                    worse = -worse
                cells.append(f"worse by {worse:+.3f} (bound {bound:g})")
                if worse > bound:
                    flags.append("BREACH")
                    breach = True
            print(f"  {name:28s} " + " | ".join(cells) + "".join(f"  {f}" for f in flags))
    return 1 if breach else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
