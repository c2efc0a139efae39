"""The benchmark's workloads: their input files, their requests, and how a
request's output is reduced to a digest and a seed-independent shape.

Each workload builds its inputs from the seed alone.  The seed reaches qk
only through the generated files and as a sampling seed argument.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# The seed whose outputs are pinned byte for byte in reference.json.
DEFAULT_SEED = 0


@dataclass
class Request:
    """One call into qk: a CLI argv, or run_suite on an in-memory carrier."""

    key: str  # seed-independent name, the reference.json lookup key
    command: str  # CLI subcommand, or "run_suite"
    argv: list[str] | None = None
    carrier: object = None
    output_file: Path | None = None  # written by `gen -o`; digested with stdout
    mutant: bool = False


def _stem(spec: str) -> str:
    return spec.replace(":", "_")


def _write_generated(workdir: Path, specs) -> None:
    from qk.generators import generate_from_spec
    from qk.quantfile import write_quant

    for spec in specs:
        text = write_quant(generate_from_spec(spec))
        (workdir / f"{_stem(spec)}.quant").write_text(text, encoding="utf-8")


class VerifyLarge:
    """`qk verify FILE --seed N` on the two carriers of the 3x target: the
    sampled path (n > 8) through all 16 suites."""

    name = "verify-large"
    nominal_pass_s = 40.0
    specs = ("lukasiewicz:12", "powerset:4")

    def write_inputs(self, workdir: Path, seed: int) -> None:
        _write_generated(workdir, self.specs)

    def requests(self, workdir: Path, seed: int) -> list[Request]:
        return [
            Request(spec, "verify", ["verify", str(workdir / f"{_stem(spec)}.quant"), "--seed", str(seed)])
            for spec in self.specs
        ]


class Mutation:
    """run_suite on six small lawful carriers and on every single-cell mutant
    of each: fresh carriers used once, exhaustive quantifiers (n <= 8), and
    most requests rejected at once as noncommutative."""

    name = "mutation"
    nominal_pass_s = 22.0
    bundled = ("q4", "l3")
    specs = ("m3", "lukasiewicz:6", "lowersets:chain4", "powerset:3")

    def write_inputs(self, workdir: Path, seed: int) -> None:
        for b in self.bundled:
            shutil.copyfile(DATA / f"{b}.quant", workdir / f"{b}.quant")
        _write_generated(workdir, self.specs)

    def requests(self, workdir: Path, seed: int) -> list[Request]:
        from qk.quantfile import load_quant
        from qk.verify import single_cell_mutants

        out = []
        for key in self.bundled + self.specs:
            q = load_quant(workdir / f"{_stem(key)}.quant")
            out.append(Request(key, "run_suite", carrier=q))
            for i, j, m in single_cell_mutants(q):
                out.append(Request(f"{key}~{i},{j}", "run_suite", carrier=m, mutant=True))
        random.Random(seed).shuffle(out)
        return out


class Certify:
    """gen, check, ideals, spectrum, then the ideal carrier's gen and check,
    on three large carriers: the O(n^3) table layers (core, quantfile,
    ideal_quantale).  The seed relabels the points of the matching poset."""

    name = "certify"
    nominal_pass_s = 5.5

    def specs(self, seed: int) -> list[tuple[str, str]]:
        points = list(range(8))
        if seed != DEFAULT_SEED:
            random.Random(seed).shuffle(points)
        matching = ",".join(f"{points[k]}<{points[k + 1]}" for k in range(0, 8, 2))
        return [
            ("lukasiewicz:128", "lukasiewicz:128"),
            ("lowersets:antichain7", "lowersets:antichain7"),
            ("lowersets:8:matching", f"lowersets:8:{matching}"),
        ]

    def write_inputs(self, workdir: Path, seed: int) -> None:
        """Nothing to write: the gen requests make the files."""

    def requests(self, workdir: Path, seed: int) -> list[Request]:
        out = []
        for k, (slot, spec) in enumerate(self.specs(seed)):
            f = workdir / f"c{k}.quant"
            g = workdir / f"c{k}_ideals.quant"
            out += [
                Request(f"{slot} gen", "gen", ["gen", spec, "-o", str(f)], output_file=f),
                Request(f"{slot} check", "check", ["check", str(f)]),
                Request(f"{slot} ideals", "ideals", ["ideals", str(f)]),
                Request(f"{slot} spectrum", "spectrum", ["spectrum", str(f)]),
                Request(
                    f"{slot} gen-ideals", "gen", ["gen", f"ideal_quantale:{f}", "-o", str(g)],
                    output_file=g,
                ),
                Request(f"{slot} check-ideals", "check", ["check", str(g)]),
            ]
        return out


WORKLOADS = {w.name: w for w in (VerifyLarge(), Mutation(), Certify())}


# --- outputs -----------------------------------------------------------

_SHAPE_KEYS = {
    "verify": ("laws", "failed", "skipped"),
    "run_suite": ("laws", "failed", "skipped"),
    "check": ("elements", "status"),
    "ideals": ("count",),
    "spectrum": ("count",),
}


def digest(rc, text: str) -> str:
    return hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()[:16]


def header(text: str) -> dict[str, str]:
    """key/value pairs of the first record of a records-format output."""
    out = {}
    for line in text.splitlines():
        if not line:
            break
        key, _, value = line.partition("\t")
        out[key] = value
    return out


def shape(req: Request, rc, text: str) -> dict:
    """What must hold at every seed: the exit code and the counts."""
    head = header(text)
    out = {"rc": rc}
    for key in _SHAPE_KEYS.get(req.command, ()):
        out[key] = head.get(key)
    if req.command == "gen":
        elements = [ln for ln in text.splitlines() if ln.startswith("elements:")]
        out["elements"] = len(elements[0].split()) - 1 if elements else None
    return out


def law_counts(text: str) -> tuple[int, int, int]:
    """(laws, cases checked, sampled laws) of a verify report."""
    laws = int(header(text).get("laws", 0))
    cases = sampled = 0
    for line in text.splitlines():
        if line.startswith("checked\t"):
            cases += int(line[8:])
        elif line.startswith("note\t") and "sampled" in line:
            sampled += 1
    return laws, cases, sampled
