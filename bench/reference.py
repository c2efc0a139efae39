#!/usr/bin/env python3
"""Record bench/reference.json: for every request of every workload, the
digest of its output and exit code at the default seed, and the shape
(exit code and counts) that must hold at any seed.

    python3 bench/reference.py

Record only at a commit whose outputs are known to be right.  A change
meant to keep outputs identical must not re-record: the benchmark then
counts every differing output as a failed request.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH, ROOT, fresh_import, run_pass
from workloads import DEFAULT_SEED, WORKLOADS, digest, header, shape


def problem(req, rc, text: str) -> str | None:
    """What is wrong with an output, judged without any reference."""
    if rc is None:
        return f"raised {text}"
    head = header(text)
    if req.command in ("verify", "run_suite"):
        if req.mutant:
            return None if rc == 1 and int(head["failed"]) > 0 else "mutant not flagged"
        return None if rc == 0 and head["failed"] == "0" else "law failed on a lawful carrier"
    if req.command == "check" and head.get("status") != "pass":
        return "axioms failed"
    return None if rc == 0 else f"exit code {rc}"


def main() -> int:
    workloads = {}
    for wl in WORKLOADS.values():
        workdir = ROOT / ".bench_run" / f"reference-{wl.name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            fresh_import()
            wl.write_inputs(workdir, DEFAULT_SEED)
            _, results = run_pass(wl.requests(workdir, DEFAULT_SEED), DEFAULT_SEED)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        entries = {}
        for req, rc, text, _ in results:
            why = problem(req, rc, text)
            if why is not None:
                print(f"reference: {wl.name} {req.key}: {why}", file=sys.stderr)
                return 1
            entries[req.key] = {"digest": digest(rc, text), "shape": shape(req, rc, text)}
        workloads[wl.name] = dict(sorted(entries.items()))
        print(f"{wl.name}: {len(entries)} requests")
    out = {"seed": DEFAULT_SEED, "workloads": workloads}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
