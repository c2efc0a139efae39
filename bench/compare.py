#!/usr/bin/env python3
"""Compare a parent and a change checkout with the benchmark.

    python3 bench/compare.py --parent DIR --change DIR [--workload W ...]
        [--out FILE]

Runs `python3 bench/run.py` with tracing off in each checkout for
run_seconds of BENCHMARK.json, PAIRS pairs per workload, alternating which
side runs first; pair k runs seed k on both sides.  For every workload and
end-to-end metric of BENCHMARK.json it gives one verdict:

  better      the change wins at least 9 in 10 pairs (ties count for
              neither), its median beats the parent's by more than the
              parent's interquartile range, and no more requests failed
  unresolved  not better, and the run-to-run spread (interquartile range
              over median, on either side) exceeds the metric's bound,
              unless every change run beats every parent run
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  same        otherwise

It prints one row per workload and, with --out, saves every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def run_one(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _beats(metric: dict):
    if metric["better"] == "lower":
        return lambda a, b: a < b
    return lambda a, b: a > b


def wins_of(parent: list[float], change: list[float], metric: dict) -> int:
    """Pairs the change wins; ties count for neither side."""
    beats = _beats(metric)
    return sum(beats(c, p) for p, c in zip(parent, change))


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], metric: dict, more_failed: bool) -> str:
    beats = _beats(metric)
    mp, mc = statistics.median(parent), statistics.median(change)
    wins = wins_of(parent, change, metric)
    if (wins >= 0.9 * len(parent) and beats(mc, mp) and abs(mc - mp) > iqr(parent)
            and not more_failed):
        return "better"
    spread = max(iqr(parent) / mp if mp else 0.0, iqr(change) / mc if mc else 0.0)
    if spread > metric["bound"] and not all(beats(c, p) for c in change for p in parent):
        return "unresolved"
    worse_by = (mc - mp) / mp if metric["better"] == "lower" else (mp - mc) / mp
    return "worse" if worse_by > metric["bound"] else "same"


def report(pairs: list[dict], metrics: list[dict]) -> list[str]:
    rows = []
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        failed = {side: sum(p[side]["failed"] for p in mine) for side in ("parent", "change")}
        wrong = sum(not p[side]["correct"] for p in mine for side in ("parent", "change"))
        cells = []
        for m in metrics:
            par = [p["parent"]["metrics"][m["name"]]["value"] for p in mine]
            chg = [p["change"]["metrics"][m["name"]]["value"] for p in mine]
            wins = wins_of(par, chg, m)
            v = verdict(par, chg, m, failed["change"] > failed["parent"])
            cells.append(
                f"{m['name']} {v} {statistics.median(par):.4g}->{statistics.median(chg):.4g} "
                f"{m['unit']} (iqr {iqr(par):.3g}|{iqr(chg):.3g}, wins {wins}/{len(mine)})"
            )
        rows.append(f"{workload}: pairs {len(mine)}, failed {failed['parent']}|{failed['change']}, "
                    f"incorrect runs {wrong}; " + "; ".join(cells))
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out")
    args = p.parse_args(argv)

    pairs = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            entry = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                entry[side] = run_one(checkout, workload, seed, spec["run_seconds"])
            pairs.append(entry)
            print(f"# {workload} pair {seed}/{PAIRS} done", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps({"pairs": pairs}, indent=1), encoding="utf-8")
    for row in report(pairs, spec["end_to_end"]):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
