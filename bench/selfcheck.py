#!/usr/bin/env python3
"""Check that the benchmark's output has the form BENCHMARK.json promises.

    python3 bench/selfcheck.py [--workload W ...]

For each workload, runs bench/run.py at the default seed for SECONDS with
tracing off and on, and checks the last line of its output: exactly the
keys correct, attempted, failed and metrics; every output correct; exactly
the metrics BENCHMARK.json names for that mode, with their units;
end-to-end values above zero; and verify.flagged_ratio 1.0.  Then it checks that the
benchmark, copied into a directory without qk, exits non-zero and prints
no result.  Takes about eight minutes with all workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED  # noqa: E402

SECONDS = 1  # the shortest run: one pass of every workload


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(DEFAULT_SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def problems(proc: subprocess.CompletedProcess, metrics: list[dict], trace: int) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        out.append(f"correct {result.get('correct')}, failed {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        out.append(f"attempted {result.get('attempted')}")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in metrics}
    if set(got) != set(want):
        out.append(f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        v = m.get("value")
        if m.get("unit") != unit or isinstance(v, bool) or not isinstance(v, (int, float)):
            out.append(f"{name}: {m}")
        elif not trace and v <= 0:
            out.append(f"{name}: {v} is not above zero")
    ratio = got.get("verify.flagged_ratio", {}).get("value", 1.0)
    if ratio != 1.0:
        out.append(f"verify.flagged_ratio {ratio}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    args = p.parse_args(argv)

    bad = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = problems(run(ROOT, workload, trace), metrics, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else '; '.join(found)}")
            bad += bool(found)

    bare = ROOT / ".bench_run" / f"selfcheck-bare-{os.getpid()}"
    try:
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, spec["workloads"][0]["name"], 0)
        refused = proc.returncode != 0 and not proc.stdout.strip()
        print(f"without qk: {'refused' if refused else 'NOT refused'} (exit {proc.returncode})")
        bad += not refused
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
