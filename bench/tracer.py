"""Timing wrappers installed from outside qk, and the spans they record.

install() rebinds each traced function at every name through which qk's
modules reach it (module attributes and `from ... import` bindings alike,
so calls inside the defining module are traced too), plus the Ideal.apex
property.  Every call updates exact per-name counts, total time and self
time (duration minus the time covered by traced children).  A call lasting
at least KEEP_S is kept as a span with its parent's id and its request's
id; shorter calls are folded into per-name rollups on their nearest
ancestor, so a pass of a few million calls stays small in memory.

Not traced:
  core.bits            about 33M calls a pass; a wrapper would cost more
                       than everything it measures
  generator functions  a wrapper would time only the generator's creation
  ideals.apex()        a one-line alias; the Ideal.apex property is traced
  quantfile helpers    parse_quant_source and source_to_quantale are steps
                       of quantfile.parse (parse_quant) and count as its
                       self time
  generators families  powerset_quantale and the like count as the self
                       time of generators.generate
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

KEEP_S = 1e-3

# module -> None (every public function) or {function: span name}
TARGETS = {
    "core": None,
    "ideals": None,
    "classify": None,
    "decompose": None,
    "quantfile": {
        "load_quant": "load_quant",
        "parse_quant": "parse",
        "write_quant": "write",
        "save_quant": "save_quant",
        "load_hom": "load_hom",
        "parse_hom": "parse_hom",
    },
    "generators": {"generate": "generate", "generate_from_spec": "generate_from_spec"},
}
SKIP = {"ideals.apex"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_s: list[float] = []
        self.spans: list[tuple] = []  # (id, parent, request, name id, start, end)
        self.rollups: list[tuple] = []  # (ancestor id, name id, calls, total, self)
        self._next = 1
        self._request = 0
        # frame: [span id, name id, start, time in children, rollups or None]
        self._stack: list[list] = [[0, -1, 0.0, 0.0, None]]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_s.append(0.0)
        return nid

    def _enter(self, nid: int) -> list:
        frame = [self._next, nid, 0.0, 0.0, None]
        self._next += 1
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, nid, start, child, roll = frame
        dur = end - start
        own = dur - child
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_s[nid] += own
        parent = self._stack[-1]
        parent[3] += dur
        if dur >= KEEP_S:
            self.spans.append((sid, parent[0], self._request, nid, start, end))
            if roll:
                self.rollups.extend((sid, k, *v) for k, v in roll.items())
            return
        into = parent[4]
        if into is None:
            into = parent[4] = {}
        agg = into.get(nid)
        if agg is None:
            into[nid] = [1, dur, own]
        else:
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
        if roll:
            for k, v in roll.items():
                agg = into.get(k)
                if agg is None:
                    into[k] = list(v)
                else:
                    agg[0] += v[0]
                    agg[1] += v[1]
                    agg[2] += v[2]

    @contextmanager
    def span(self, name: str, request: bool = False):
        """A span around the benchmark's own call; request=True starts a new
        request id shared by every span below it."""
        frame = self._enter(self.name_id(name))
        if request:
            self._request = frame[0]
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return traced

    def stat(self, name: str) -> tuple[int, float, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_s[nid]

    def dump(self) -> dict:
        root = self._stack[0][4] or {}
        rollups = self.rollups + [(0, k, *v) for k, v in root.items()]
        return {
            "names": self.names,
            "spans": self.spans,
            "rollups": rollups,
            "stats": {
                n: [self.calls[i], self.total[i], self.self_s[i]] for i, n in enumerate(self.names)
            },
        }


def _suite_name(suffix: str, suites) -> str:
    """verify's suite functions are _suite_<suffix>, e.g. _suite_bpi for
    proposition_bpi."""
    for s in suites:
        if s == suffix or s.endswith("_" + suffix):
            return s
    return suffix


def install(tracer: Tracer) -> None:
    """Wrap the traced functions for the rest of the process."""
    qk_modules = [m for n, m in sys.modules.items() if n == "qk" or n.startswith("qk.")]
    wrapped: dict[int, tuple] = {}

    def add(fn, name: str) -> None:
        if inspect.isgeneratorfunction(fn) or name in SKIP:
            return
        wrapped[id(fn)] = (fn, tracer.wrap(name, fn))

    for short, chosen in TARGETS.items():
        mod = sys.modules.get(f"qk.{short}")
        if mod is None:
            continue
        for attr, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if chosen is None and not attr.startswith("_"):
                add(fn, f"{short}.{attr}")
            elif chosen is not None and attr in chosen:
                add(fn, f"{short}.{chosen[attr]}")
    verify = sys.modules.get("qk.verify")
    if verify is not None:
        suites = getattr(verify, "SUITE_ORDER", ())
        for attr, fn in vars(verify).items():
            if not inspect.isfunction(fn) or fn.__module__ != verify.__name__:
                continue
            if attr == "run_suite":
                add(fn, "verify.run_suite")
            elif attr.startswith("_suite_"):
                add(fn, f"verify.suite.{_suite_name(attr[7:], suites)}")

    for mod in qk_modules:
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    ideals = sys.modules.get("qk.ideals")
    prop = getattr(getattr(ideals, "Ideal", None), "apex", None)
    if isinstance(prop, property):
        ideals.Ideal.apex = property(tracer.wrap("ideals.apex", prop.fget), doc=prop.__doc__)
