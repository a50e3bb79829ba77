#!/usr/bin/env python3
"""Diff two sets of benchmark runs, or check the spread of one set.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl] [--trace 0|1]

Each file holds records appended by `run.py --out`. Records are grouped per
(workload, metric); each side is reported as its median and quartiles.

With one file, every end-to-end metric's spread (interquartile distance as a
share of the median) is checked against its bound in BENCHMARK.json; the
exit status is 1 if any spread is wider than the bound.

With two files, each (workload, metric) gets a verdict:

  better      every run of NEW reads better than every run of BASE; or the
              medians differ by more than BASE's own interquartile distance
              and NEW wins at least 9 of 10 same-seed pairs (ties count for
              neither side)
  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  either side's spread is wider than the bound, so a change
              within it cannot be told from noise
  unchanged   none of the above

Per-layer metrics (--trace 1) have no bound; they get medians and quartiles
only. With --trace 1, each workload whose seeds were also run with --trace 0
in BASE gets its tracing overhead: the median over those seeds of the traced
run's latency p50 minus the untraced run's. The exit status is 1 if any
verdict is `worse`.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

GAIN_PAIR_SHARE = 0.9


def correct_records(path):
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["result"]["correct"]:
                yield rec


def load_records(path, trace):
    runs = defaultdict(dict)  # (workload, metric) -> {seed: value}
    for rec in correct_records(path):
        if rec["trace"] == trace:
            for name, m in rec["result"]["metrics"].items():
                runs[(rec["workload"], name)][rec["seed"]] = m["value"]
    return runs


def tracing_overhead(path):
    """{workload: (median over seeds of traced minus untraced latency p50,
    number of seeds)} for the seeds run both ways."""
    p50 = defaultdict(dict)  # (workload, trace) -> {seed: latency p50}
    for rec in correct_records(path):
        p50[(rec["workload"], rec["trace"])][rec["seed"]] = rec["details"]["latency_p50_ms"]
    out = {}
    for (workload, trace), traced in p50.items():
        untraced = p50.get((workload, 0), {})
        seeds = sorted(set(traced) & set(untraced))
        if trace == 1 and seeds:
            out[workload] = (statistics.median(traced[s] - untraced[s] for s in seeds),
                             len(seeds))
    return out


def verdict(base, new, better, bound):
    """Verdict for two {seed: value} maps of one (workload, metric)."""
    b, n = list(base.values()), list(new.values())
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = stats.quartiles(b)
    n_med = statistics.median(n)
    if (max(n) < min(b)) if better == "lower" else (min(n) > max(b)):
        return "better"
    if max(stats.spread(b), stats.spread(n)) > bound:
        return "unresolved"
    worse_by = sign * (n_med - b_med)  # > 0: NEW is worse
    if worse_by > bound * abs(b_med):
        return "worse"
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    if seeds and -worse_by > (b_q3 - b_q1) and wins >= GAIN_PAIR_SHARE * len(seeds):
        return "better"
    return "unchanged"


def describe(values):
    q1, med, q3 = stats.quartiles(list(values))
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args(argv)

    bench = json.loads(Path(args.benchmark).read_text())
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    base = load_records(args.base, args.trace)
    new = load_records(args.new, args.trace) if args.new else None
    failing = False
    for key in sorted(base, key=lambda k: (k[0], list(declared).index(k[1]))):
        workload, name = key
        m = declared[name]
        bound = m.get("bound")
        row = f"{workload:13s} {name:34s} n={len(base[key]):<3d} {describe(base[key].values())}"
        if new is None:
            if bound is not None:
                spread = stats.spread(list(base[key].values()))
                wide = spread > bound
                failing |= wide
                row += f"  spread {spread:6.1%} bound {bound:.0%}{'  WIDE' if wide else ''}"
        elif key in new:
            row += f" -> {describe(new[key].values())}"
            if bound is not None:
                v = verdict(base[key], new[key], m["better"], bound)
                failing |= v == "worse"
                row += f"  {v}"
        print(row)
    if args.trace:
        for workload, (ms, n) in sorted(tracing_overhead(args.base).items()):
            print(f"{workload:13s} {'tracing overhead':34s} n={n:<3d} {ms:12.6g} ms "
                  "(traced minus untraced latency p50, same seeds)")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
