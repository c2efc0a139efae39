"""Definitional oracles, generator specs and mutant carriers shared by the
tests.

Each carrier oracle loops over the elements one at a time, straight from
the definition, with no table or memo of the carrier's.  The witness
oracles are the unfiltered pair scans that classify's scans must match,
first witness included: prime and primary over every pair of elements,
irreducible and strongly irreducible over every pair of enumerate_ideals
by Ideal comparison.  flat_run runs a law case by case, evaluating every
repeated draw again.  MUTANTS holds the commutative single-cell mutants
of q4, l3 and m3, and MUTATION_MUTANTS those of the benchmark's mutation
carriers, MUTATION_BASES: broken tables are where a shortcut would drift
from the definition."""

from pathlib import Path

from qk.generators import generate_from_spec, m3_quantale
from qk.ideals import enumerate_ideals
from qk.quantfile import load_quant
from qk.verify import single_cell_mutants

DATA = Path(__file__).parent / "data"

# generator specs with n on both sides of each byte boundary, up to n=17
SPECS = [
    "lukasiewicz:1",
    "lukasiewicz:2",
    "opens:sierpinski",
    "powerset:2",
    "lukasiewicz:5",
    "lukasiewicz:7",
    "powerset:3",
    "lowersets:4:0<1,2<3",
    "lukasiewicz:15",
    "powerset:4",
    "lukasiewicz:17",
]


def members(q, m):
    return [x for x in range(q.n) if m >> x & 1]


def annihilator_scan(q, s):
    return sum(
        1 << x for x in range(q.n) if all(q.mul[x][t] == q.bottom for t in members(q, s))
    )


def generated_scan(q, s):
    prods = 0
    for t in members(q, s):
        for l in range(q.n):
            prods |= 1 << q.mul[l][t]
    return q.down[q.join_of(members(q, prods))]


def residual_scan(i, j):
    """The member mask of (i : j): every x whose product with each member
    of j lands in i."""
    q = i.carrier
    return sum(
        1 << x
        for x in range(q.n)
        if all(i.members >> q.mul[x][y] & 1 for y in members(q, j.members))
    )


def prime_witness_scan(i):
    q, m = i.carrier, i.members
    for x in range(q.n):
        if m >> x & 1:
            continue
        for y in range(x, q.n):
            if not m >> y & 1 and m >> q.mul[x][y] & 1:
                return (x, y)
    return None


def primary_witness_scan(i):
    q, m = i.carrier, i.members
    for x in range(q.n):
        if m >> x & 1:
            continue
        for y in range(q.n):
            if m >> q.mul[x][y] & 1 and not q.powers[y] & m:
                return (x, y)
    return None


def irreducible_witness_scan(i):
    ideals = enumerate_ideals(i.carrier)
    for a in ideals:
        if not i < a:
            continue
        for b in ideals:
            if i < b and a.members & b.members == i.members:
                return (a.apex, b.apex)
    return None


def strongly_irreducible_witness_scan(i):
    ideals = enumerate_ideals(i.carrier)
    for a in ideals:
        if a <= i:
            continue
        for b in ideals:
            if not b <= i and (a.members & b.members) & ~i.members == 0:
                return (a.apex, b.apex)
    return None


def flat_run(law):
    """verify._run without replay: every case of domain.cases() in turn."""
    checked = 0
    try:
        for case in law.domain.cases():
            ok = law.holds(*case)
            if ok is None:
                continue
            if not ok:
                wit = (law.witness or law.domain.witness)(*case)
                return "fail", checked + 1, tuple(str(w) for w in wit), ""
            checked += 1
    except Exception as exc:
        return "fail", checked, (), f"error: {type(exc).__name__}: {exc}"
    return "pass", checked, None, ""


MUTANTS = [
    m
    for q in (load_quant(DATA / "q4.quant"), load_quant(DATA / "l3.quant"), m3_quantale())
    for _, _, m in single_cell_mutants(q)
    if m.commutative
]

MUTATION_BASES = [
    load_quant(DATA / "q4.quant"),
    load_quant(DATA / "l3.quant"),
    *map(generate_from_spec, ("m3", "lukasiewicz:6", "lowersets:chain4", "powerset:3")),
]

MUTATION_MUTANTS = [
    m for q in MUTATION_BASES for _, _, m in single_cell_mutants(q) if m.commutative
]
