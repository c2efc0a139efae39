"""Definitional oracles, generator specs and mutant carriers shared by the
tests.

Each carrier oracle loops over the elements one at a time, straight from
the definition, with no table or memo of the carrier's.  The witness
oracles are the unfiltered pair scans that classify's scans must match,
first witness included: prime and primary over every pair of elements,
irreducible and strongly irreducible over every pair of enumerate_ideals
by Ideal comparison.  is_ideal_scan, is_mc_scan, saturation_scan,
zero_divisors_scan, isolated_component_scan and
strongly_irreducible_elementwise_scan are the definitions of the routines
that read core's colon and closure scans and classify._outside_pair.
mc_radical_scan is the radical by its mc-set form, over every mc set.  minimal_decompositions_picks is the product of
picks that the search of decompose._all_minimal_decompositions replaced,
and merge_and_prune the merge-and-prune route that primary_decomposition
replaced by the search's first result.
all_posets and all_topologies enumerate the small posets and topologies
that the generator tests build carriers from.  flat_run runs a law case by case, evaluating every
repeated draw again.  MUTANTS holds the commutative single-cell mutants
of q4, l3 and m3, and MUTATION_MUTANTS those of the benchmark's mutation
carriers, MUTATION_BASES: broken tables are where a shortcut would drift
from the definition."""

import itertools
from pathlib import Path

from qk.classify import all_mc_sets, is_primary, radical
from qk.errors import NotDecomposable
from qk.generators import generate_from_spec, m3_quantale
from qk.ideals import enumerate_ideals, meet_all
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


def is_ideal_scan(q, m):
    """Nonempty, down-closed and closed under binary join."""
    xs = members(q, m)
    return (
        bool(xs)
        and all(m >> y & 1 for x in xs for y in range(q.n) if q.leq(y, x))
        and all(m >> q.join[x][y] & 1 for x in xs for y in xs)
    )


def is_mc_scan(q, m):
    """Contains top and is closed under &."""
    xs = members(q, m)
    return bool(m >> q.top & 1) and all(m >> q.mul[x][y] & 1 for x in xs for y in xs)


def saturation_scan(s):
    """The member mask of the saturation of the mc set s: every x whose
    product with some element lands in s."""
    q = s.carrier
    return sum(
        1 << x for x in range(q.n) if any(s.members >> q.mul[x][y] & 1 for y in range(q.n))
    )


def zero_divisors_scan(q):
    """The nonzero x with x & y == bottom for some nonzero y."""
    nonzero = [x for x in range(q.n) if x != q.bottom]
    return tuple(x for x in nonzero if any(q.mul[x][y] == q.bottom for y in nonzero))


def isolated_component_scan(i, p):
    """The member mask of every a with a & b in i for some b outside p."""
    q = i.carrier
    outside = [b for b in range(q.n) if not p.members >> b & 1]
    return sum(
        1 << a for a in range(q.n) if any(i.members >> q.mul[a][b] & 1 for b in outside)
    )


def strongly_irreducible_elementwise_scan(i):
    """No a, b outside i, in either order, meet inside i."""
    q = i.carrier
    outside = [x for x in range(q.n) if not i.members >> x & 1]
    return not any(i.members >> q.meet[a][b] & 1 for a in outside for b in outside)


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


def mc_radical_scan(i):
    """The member mask of the radical of i by its mc-set form: every x such
    that each multiplicatively closed set containing x meets i."""
    q, sets = i.carrier, all_mc_sets(i.carrier)
    return sum(
        1 << x
        for x in range(q.n)
        if all(s.members & i.members for s in sets if s.members >> x & 1)
    )


def minimal_decompositions_picks(i, cands):
    """decompose._all_minimal_decompositions by its product of picks: every
    choice of at most one candidate per radical group, in ascending pick
    order, kept when it meets to i with no redundant member."""
    q = i.carrier
    groups = {}
    for k, c in enumerate(cands):
        groups.setdefault(radical(c).members, []).append(1 << k)
    picks = [0]
    for group in groups.values():
        picks = [pick | b for pick in picks for b in (0, *group)]
    out = []
    for pick in sorted(picks)[1:]:
        comps = [c for k, c in enumerate(cands) if pick >> k & 1]
        if meet_all(q, comps) != i:
            continue
        if len(comps) > 1 and any(
            meet_all(q, comps[:k] + comps[k + 1 :]) == i for k in range(len(comps))
        ):
            continue
        out.append(tuple(comps))
    return out


def merge_and_prune(i):
    """decompose.primary_decomposition's components and radicals by merging
    the primary ideals over i that share a radical, then dropping redundant
    components in ascending size.  Raises NotDecomposable, with the meet as
    the gap, where those ideals do not meet to i."""
    q = i.carrier
    cands = [c for c in enumerate_ideals(q) if i <= c and is_primary(c)]
    reach = meet_all(q, cands)
    if reach != i:
        raise NotDecomposable(
            f"primary ideals over {i.name} intersect to {reach.name}, not {i.name}", gap=reach
        )
    groups = {}
    for c in cands:
        groups.setdefault(radical(c).members, []).append(c)
    merged = [meet_all(q, group) for _, group in sorted(groups.items())]
    assert all(is_primary(m) and radical(m).members == r for m, r in zip(merged, sorted(groups)))
    sel = sorted(merged, key=lambda c: (c.size, c.apex))
    k = 0
    while k < len(sel):
        rest = sel[:k] + sel[k + 1 :]
        if rest and meet_all(q, rest) == i:
            sel = rest
        else:
            k += 1
    return tuple(sel), tuple(map(radical, sel))


def all_posets(max_points: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """All posets on 1..max_points points, one representative per isomorphism
    class.  Brute force; intended for max_points <= 4."""
    out: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    for n in range(1, max_points + 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        seen: set[frozenset[tuple[int, int]]] = set()
        for choice in range(1 << len(pairs)):
            rel = frozenset(pairs[k] for k in range(len(pairs)) if choice >> k & 1)
            if any((b, a) in rel for a, b in rel):
                continue
            if any(
                (a, c) not in rel
                for a, b in rel
                for b2, c in rel
                if b == b2 and a != c
            ):
                continue
            if rel in seen:
                continue
            out.append((n, tuple(sorted(rel))))
            for perm in itertools.permutations(range(n)):
                seen.add(frozenset((perm[a], perm[b]) for a, b in rel))
    return out


def all_topologies(max_points: int) -> list[tuple[int, tuple[int, ...]]]:
    """All labeled topologies on 1..max_points points; max_points <= 3."""
    out: list[tuple[int, tuple[int, ...]]] = []
    for n in range(1, max_points + 1):
        full = (1 << n) - 1
        middles = [s for s in range(1, full)]
        for choice in range(1 << len(middles)):
            fam = {0, full} | {middles[k] for k in range(len(middles)) if choice >> k & 1}
            if all(a | b in fam and a & b in fam for a in fam for b in fam):
                out.append((n, tuple(sorted(fam))))
    return out



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
