#!/usr/bin/env python3
"""The qk benchmark: one workload in one process, a single client in a
closed loop (the next request is sent when the previous one returns).

    python3 bench/run.py --workload verify-large --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout: qk is imported from that checkout's
src/ and nothing is installed.  Inputs are made from --seed and written
under .bench_run/, which the run removes again.  Each run sets up
SETUP_REPS times (a fresh `import qk` plus writing the input files), then
makes a fixed number of passes over the workload's requests: enough to fill
at least --seconds at the seed commit's speed, and at least one whole pass,
so a workload whose pass is longer than --seconds runs one pass.  Every
output is checked against reference.json.

The host's speed swings by up to 2x within a run, so set-ups and passes run
under speed.py's SpeedProbe, and the end-to-end times are reported at its
reference speed: each request's time, net of probing, scaled by the speed
the probe read while it ran (speed.py says how).  The detail line gives them as measured too.

With --trace 1 the run also traces one set-up and one extra pass with the
wrappers of tracer.py (the pass's requests are built before they are
installed), writes the spans to .bench_run/traces/, and reports
the per-layer metrics instead of the end-to-end ones.

Earlier lines of stdout, each starting with '#', give the machine, sample
counts, the tail latency and its percentile, and any mismatches.  The last
line is one JSON object with the keys correct, attempted, failed and
metrics; the metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Request, digest, law_counts, shape  # noqa: E402

SETUP_REPS = 15
TAIL_BEYOND = 10  # the tail percentile leaves this many requests beyond it
TAIL_MIN_REQUESTS = 20


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def fresh_import():
    """Import qk and its CLI from this checkout's src/, dropping any
    earlier import."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "qk" or n.startswith("qk.")]:
        del sys.modules[name]
    importlib.import_module("qk.cli")
    qk = sys.modules["qk"]
    if Path(qk.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"qk was imported from {qk.__file__}, not from {src}")
    return qk


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": gc.get_threshold(),
    }


@dataclass
class Timing:
    start: float  # perf_counter
    end: float
    net_s: float  # end - start, net of the speed probe's samples

    def ref_s(self, probe: SpeedProbe) -> float:
        """The time at the probe's reference speed.  Ask once the probe has
        stopped, so that the samples after the interval are in."""
        return self.net_s * probe.factor(self.start, self.end)


@dataclass
class Outcome:
    req: Request
    rc: int | None  # None if the request raised
    text: str
    timing: Timing


@dataclass
class Pass:
    timing: Timing
    outcomes: list[Outcome]

    def ref_s(self, probe: SpeedProbe) -> float:
        """The sum of the requests' times at the reference speed."""
        return sum(o.timing.ref_s(probe) for o in self.outcomes)


def plain_clock() -> tuple[float, float]:
    """A clock for runs without a speed probe, shaped like SpeedProbe.clock."""
    now = perf_counter()
    return now, now


def timed(clock, fn) -> tuple[object, Timing]:
    a, a_net = clock()
    value = fn()
    b, b_net = clock()
    return value, Timing(a, b, b_net - a_net)


def execute(req: Request, seed: int, tracer: Tracer | None = None,
            clock=plain_clock) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    span = f"cli.{req.command}" if req.argv is not None else "request"

    def call():
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    return _call(req, seed), None
                with tracer.span(span, request=True):
                    return _call(req, seed), None
        except Exception as exc:  # a request that raises is a failed request
            return (None, None), exc

    ((rc, rep), exc), timing = timed(clock, call)
    if exc is None:
        try:
            if rep is not None:
                rc, text = (0 if rep.ok else 1), rep.format()
            else:
                text = out.getvalue()
            if req.output_file is not None:
                text += "\n" + req.output_file.read_text(encoding="utf-8")
            return Outcome(req, rc, text, timing)
        except Exception as e:  # so is one whose output cannot be read
            exc = e
    return Outcome(req, None, f"{type(exc).__name__}: {exc}", timing)


def _call(req: Request, seed: int):
    """(CLI exit code, None) or (None, run_suite's report)."""
    if req.argv is not None:
        return sys.modules["qk.cli"].main(req.argv), None
    return None, sys.modules["qk"].run_suite(req.carrier, "all", seed=seed)


def run_pass(reqs: list[Request], seed: int, tracer: Tracer | None = None,
             clock=plain_clock) -> Pass:
    outcomes, timing = timed(clock, lambda: [execute(r, seed, tracer, clock) for r in reqs])
    return Pass(timing, outcomes)


def mismatches(wl, seed: int, outcomes: list[Outcome], reference: dict) -> list[str]:
    """One line per failed request.  At the reference seed every output must
    match byte for byte; at any other seed its exit code and counts must."""
    ref = reference["workloads"].get(wl.name, {})
    bad = []
    for o in outcomes:
        req, rc, text = o.req, o.rc, o.text
        want = ref.get(req.key)
        if want is None:
            bad.append(f"{req.key}: no reference")
        elif seed == reference["seed"]:
            if digest(rc, text) != want["digest"]:
                bad.append(f"{req.key}: output differs from the reference")
        else:
            got = shape(req, rc, text)
            if got != want["shape"]:
                bad.append(f"{req.key}: {got} != {want['shape']}")
    return bad


def end_to_end(setups: list[Timing], passes: list[Pass], probe: SpeedProbe) -> tuple[dict, dict]:
    """(values, detail).  Times are at the speed probe's reference speed;
    the detail line also has them as measured (net of probing).  The tail
    latency goes to the detail line, and only when there are at least
    TAIL_MIN_REQUESTS requests."""
    lat = sorted(o.timing.ref_s(probe) for p in passes for o in p.outcomes)
    n = len(lat)
    values = {
        "setup_s": statistics.median(t.ref_s(probe) for t in setups),
        "total_s": statistics.median(p.ref_s(probe) for p in passes),
        "req_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail: dict = {
        "samples": {"setup_s": len(setups), "total_s": len(passes), "req_p50_ms": n,
                    "peak_rss_mb": 1},
        "measured": {
            "setup_s": statistics.median(t.net_s for t in setups),
            "total_s": statistics.median(p.timing.net_s for p in passes),
            "req_p50_ms": statistics.median(o.timing.net_s for p in passes
                                            for o in p.outcomes) * 1e3,
        },
    }
    if n >= TAIL_MIN_REQUESTS:
        detail["req_tail_ms"] = lat[n - 1 - TAIL_BEYOND] * 1e3
        detail["req_tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
    return values, detail


def per_layer(names, tracer: Tracer, passes: list[Pass], traced: Pass, probe: SpeedProbe) -> dict:
    by_command: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            by_command.setdefault(o.req.command, []).append(o.timing.ref_s(probe))
    laws = cases = sampled = mutants = flagged = 0
    for o in traced.outcomes:
        if o.req.command in ("verify", "run_suite"):
            counts = law_counts(o.text)
            laws, cases, sampled = laws + counts[0], cases + counts[1], sampled + counts[2]
        if o.req.mutant:
            mutants += 1
            flagged += o.rc == 1
    special = {
        "verify.laws": laws,
        "verify.cases": cases,
        "verify.sampled_laws": sampled,
        # vacuously 1.0 on a workload without mutants
        "verify.flagged_ratio": flagged / mutants if mutants else 1.0,
        "cli.overhead_s": sum((tracer.stat(n)[2] for n in tracer.names if n.startswith("cli.")), 0.0),
        # both as measured: the traced pass runs without the speed probe
        "trace.overhead_ratio": (traced.timing.net_s
                                 / statistics.median(p.timing.net_s for p in passes)),
    }
    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif field == "calls":
            out[name] = tracer.stat(span)[0]
        elif field == "self_s":
            out[name] = tracer.stat(span)[2]
        elif field == "p50_ms" and span.startswith("cli."):
            lat = by_command.get(span[4:])
            out[name] = statistics.median(lat) * 1e3 if lat else 0.0
        else:
            raise KeyError(f"no rule computes the per-layer metric {name!r}")
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    spec = load_spec()
    reference = load_reference()
    wl = WORKLOADS[workload]
    group = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in group]
    detail: dict = {"workload": workload, "seed": seed, "machine": machine(),
                    "load_before": os.getloadavg()}
    workdir = ROOT / ".bench_run" / f"{workload}-{os.getpid()}"

    def set_up():
        fresh_import()
        workdir.mkdir(parents=True)
        wl.write_inputs(workdir, seed)

    try:
        setups, passes = [], []
        with SpeedProbe() as probe:
            for _ in range(1 if trace else SETUP_REPS):
                shutil.rmtree(workdir, ignore_errors=True)
                setups.append(timed(probe.clock, set_up)[1])
            per_pass = len(wl.requests(workdir, seed))
            for _ in range(max(1, math.ceil(seconds / wl.nominal_pass_s))):
                passes.append(run_pass(wl.requests(workdir, seed), seed, clock=probe.clock))
        detail["speed"] = {"probe_samples": len(probe.speeds),
                           "mean": sum(probe.speeds) / len(probe.speeds),
                           "min": min(probe.speeds), "max": max(probe.speeds)}
        checked = [o for p in passes for o in p.outcomes]

        if trace:
            reqs = wl.requests(workdir, seed)  # loading carriers is not a request
            tracer = Tracer()
            install(tracer)
            with tracer.span("setup", request=True):
                wl.write_inputs(workdir, seed)
            traced = run_pass(reqs, seed, tracer)
            checked += traced.outcomes
            values = per_layer(names, tracer, passes, traced, probe)
            out_dir = ROOT / ".bench_run" / "traces"
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_file = out_dir / f"{workload}-seed{seed}-{os.getpid()}.json"
            trace_file.write_text(json.dumps({**detail, **tracer.dump()}), encoding="utf-8")
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            values, more = end_to_end(setups, passes, probe)
            detail.update(more)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = mismatches(wl, seed, checked, reference)  # one line per failed request
    failed = len(bad)
    detail.update(pass_s=[p.timing.net_s for p in passes],
                  pass_ref_s=[p.ref_s(probe) for p in passes],
                  requests_per_pass=per_pass, attempted=len(checked),
                  fail_ratio=failed / len(checked), load_after=os.getloadavg())
    result = {
        "correct": not bad,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group},
    }
    return result, ["# " + json.dumps(detail)] + [f"# mismatch {m}" for m in bad[:20]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        result, lines = measure(args.workload, args.seed, seconds, bool(args.trace))
    except (ImportError, OSError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
