"""Irreducible and primary decomposition, uniqueness analysis, and the
distributivity (arithmetic) check on the ideal lattice.

A decomposition presents an ideal as the intersection of components.  A
primary decomposition is minimal when the component radicals are pairwise
distinct and no component contains the intersection of the others.
all_minimal_decompositions finds every minimal one by a depth-first search
over the primary ideals containing the target, and primary_decomposition
returns the first that search finds.

"Arithmetic" means the ideal lattice is distributive.  The irreducible and
strongly irreducible ideals coincide exactly then, and the equivalence
check verifies both directions on the given instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import count
from operator import and_

from .core import FiniteQuantale, _colons, _cones_match, _right_adjoints, bits
from .errors import NotDecomposable, NotProper, QuantaleError, TooLarge
from .ideals import (
    Ideal,
    _mismatch,
    enumerate_ideals,
    join_ideals,
    meet_all,
    meet_ideals,
    principal,
    residual,
)
from .classify import (
    _extremal,
    _outside_pair,
    is_irreducible,
    is_primary,
    is_prime,
    is_strongly_irreducible,
    minimal_primes_over,
    radical,
)

# search nodes all_minimal_decompositions may visit; the zero ideal of lukasiewicz:n
# takes n (544 at the cap), the most of any bundled, golden, test or benchmark carrier
MINIMAL_PICKS_MAX = 1 << 16


def strongly_irreducible_elementwise(i: Ideal) -> bool:
    """Same test over elements: no a, b outside i meet inside it, the outside
    pair scan on q.meet.  Exact for a down-closed i on genuine lattice tables
    (down[meet[a][b]] is down[a] & down[b]); the verification suites check
    it against the ideal-wise form."""
    return _outside_pair(i, i.carrier.meet) is None


@dataclass(frozen=True)
class Decomposition:
    """target presented as the intersection of components.

    kind is "primary" or "irreducible"; radicals[k] is the radical of
    components[k] (empty tuple for irreducible decompositions).
    """

    target: Ideal
    kind: str
    components: tuple[Ideal, ...]
    radicals: tuple[Ideal, ...]

    def __repr__(self) -> str:
        parts = ", ".join(c.name for c in self.components)
        return f"<Decomposition {self.target.name} = {parts} ({self.kind})>"


def _irredundant(q: FiniteQuantale, target: Ideal, components: list[Ideal]) -> list[Ideal]:
    """Drop components whose removal keeps the intersection, scanning in
    ascending size order."""
    sel = sorted(components, key=lambda c: (c.size, c.apex))
    k = 0
    while k < len(sel):
        rest = sel[:k] + sel[k + 1 :]
        if rest and meet_all(q, rest) == target:
            sel = rest
        else:
            k += 1
    return sel


def primary_candidates(i: Ideal) -> list[Ideal]:
    """Primary ideals containing i, ascending by size."""
    return sorted(
        (c for c in enumerate_ideals(i.carrier) if i <= c and is_primary(c)),
        key=lambda c: (c.size, c.apex),
    )


def primary_decomposition(i: Ideal) -> Decomposition:
    """The first minimal primary decomposition of all_minimal_decompositions,
    or NotDecomposable carrying the meet of the primary ideals over i as
    the gap."""
    cands = primary_candidates(i)
    return _first_decomposition(i, cands, _all_minimal_decompositions(i, cands))


def _first_decomposition(i: Ideal, cands: list[Ideal], minimal) -> Decomposition:
    """primary_decomposition of i from its primary_candidates and their minimal ones."""
    if not i.proper:
        raise NotProper(f"{i.name} is the whole carrier")
    if not minimal:
        reach = meet_all(i.carrier, cands)
        raise NotDecomposable(
            f"primary ideals over {i.name} intersect to {reach.name}, not {i.name}",
            gap=reach,
        )
    return Decomposition(
        target=i,
        kind="primary",
        components=minimal[0],
        radicals=tuple(map(radical, minimal[0])),
    )


def irreducible_decomposition(i: Ideal) -> Decomposition:
    """An irredundant intersection of irreducible ideals containing i."""
    if not i.proper:
        raise NotProper(f"{i.name} is the whole carrier")
    q = i.carrier
    cands = [c for c in enumerate_ideals(q) if i <= c and is_irreducible(c)]
    reach = meet_all(q, cands)
    if reach != i:
        raise NotDecomposable(
            f"irreducible ideals over {i.name} intersect to {reach.name}", gap=reach
        )
    sel = _irredundant(q, i, cands)
    return Decomposition(
        target=i,
        kind="irreducible",
        components=tuple(sel),
        radicals=(),
    )


def all_minimal_decompositions(i: Ideal) -> list[tuple[Ideal, ...]]:
    """Every minimal primary decomposition of i, as component tuples.

    A depth-first search takes at most one primary ideal over i per radical
    group, in group order.  A branch ends when its meet is i, stops before
    a group when the meet of its components and of every candidate from
    that group on is not i, and skips a candidate that makes a chosen
    component redundant (redundancy only grows as components are added; a
    candidate that does not shrink the meet is itself redundant, so its
    node opens no child).  Above MINIMAL_PICKS_MAX search nodes it raises
    TooLarge.  Results come in ascending order of their pick, the bitmask
    of their positions among the candidates (ascending by size).
    """
    return _all_minimal_decompositions(i, primary_candidates(i))


def _all_minimal_decompositions(i: Ideal, cands: list[Ideal]) -> list[tuple[Ideal, ...]]:
    """all_minimal_decompositions of i from its primary_candidates."""
    groups: dict[int, list[int]] = {}
    for k, c in enumerate(cands):
        groups.setdefault(radical(c).members, []).append(k)
    order = list(groups.values())
    reach = [i.carrier.full]  # reach[g]: the meet of every candidate in groups g on
    for group in reversed(order):
        reach.insert(0, reduce(and_, (cands[k].members for k in group), reach[0]))
    picks, nodes = [], count(1)

    def search(g: int, pick: int, meet: int) -> None:
        if next(nodes) > MINIMAL_PICKS_MAX:
            raise TooLarge(f"all_minimal_decompositions of {i.name} needs more than"
                           f" {MINIMAL_PICKS_MAX} search nodes")
        if meet == i.members:
            picks.append(pick)
            return
        chosen = [cands[k].members for k in bits(pick)]
        # the meet of the chosen components but one, for each one
        others = [reduce(and_, chosen[:j] + chosen[j + 1 :], -1) for j in range(len(chosen))]
        for h in range(g, len(order)):
            if meet & reach[h] != i.members:
                return
            for k in order[h]:
                m = meet & cands[k].members
                if all(o & cands[k].members != m for o in others):
                    search(h + 1, pick | 1 << k, m)

    search(0, 0, i.carrier.full)  # on the whole carrier it ends at once, with pick 0
    return [tuple(cands[k] for k in bits(pick)) for pick in sorted(picks) if pick]


@dataclass(frozen=True)
class UniquenessReport:
    """First-uniqueness analysis of a decomposable proper ideal.

    associated_primes are the radicals of decomposition, the first minimal one;
    colon_primes are the prime radicals of residuals (target : principal);
    isolated are the inclusion-minimal associated primes and embedded the
    rest; isolated_components_match records that every minimal
    decomposition assigns the same component to each isolated prime.
    """

    target: Ideal
    decomposition: Decomposition
    associated_primes: tuple[Ideal, ...]
    colon_primes: tuple[Ideal, ...]
    isolated: tuple[Ideal, ...]
    embedded: tuple[Ideal, ...]
    isolated_components_match: bool


def isolated_component_formula(i: Ideal, p: Ideal) -> Ideal:
    """The unique component at an isolated prime p: all a with a & b in i
    for some b outside p."""
    q = i.carrier
    if p.carrier is not q:
        raise _mismatch(i, p)
    return q.interned[_colons(q, i.members, q.full & ~p.members)]


def colon_primes(i: Ideal) -> tuple[Ideal, ...]:
    """The proper prime radicals of the residuals (i : principal x), each
    once, ascending by (size, apex)."""
    q = i.carrier
    residuals = dict.fromkeys(residual(i, principal(q, x)) for x in range(q.n))
    rads = dict.fromkeys(radical(r) for r in residuals)
    found = [r for r in rads if r.proper and is_prime(r)]
    return tuple(sorted(found, key=lambda p: (p.size, p.apex)))


def isolated_primes(radicals) -> tuple[Ideal, ...]:
    """The inclusion-minimal members of radicals, in their given order."""
    return tuple(_extremal(radicals, smallest=True))


def isolated_components_agree(i: Ideal, isolated, decompositions) -> bool:
    """Whether every decomposition (a tuple of components) has, at each
    isolated prime p, the component isolated_component_formula(i, p)."""
    expected = {p: isolated_component_formula(i, p) for p in isolated}
    return all(
        {radical(c): c for c in comps}.get(p) == want
        for comps in decompositions
        for p, want in expected.items()
    )


def uniqueness_report(i: Ideal) -> UniquenessReport:
    """Build the report and check the uniqueness statements on the way.

    Raises QuantaleError if, for any minimal decomposition, the associated
    and colon primes disagree or the isolated primes are not the minimal
    primes over i, which would falsify the construction, not the input.
    Whether the minimal decompositions share their isolated components is
    recorded in isolated_components_match.
    """
    cands = primary_candidates(i)
    minimal = _all_minimal_decompositions(i, cands)  # refuses before any prime scan
    d = _first_decomposition(i, cands, minimal)
    by_size = lambda p: (p.size, p.apex)
    associated = [tuple(sorted(map(radical, comps), key=by_size)) for comps in minimal]
    colon, lowest = colon_primes(i), set(minimal_primes_over(i))
    for primes in associated:
        if set(colon) != set(primes):
            raise QuantaleError(
                f"associated primes {[p.name for p in primes]} differ from "
                f"colon primes {[p.name for p in colon]} at {i.name}"
            )
        if set(isolated_primes(primes)) != lowest:
            raise QuantaleError(
                f"isolated primes at {i.name} are not the minimal primes over it"
            )
    isolated = isolated_primes(associated[0])
    return UniquenessReport(
        target=i,
        decomposition=d,
        associated_primes=associated[0],
        colon_primes=colon,
        isolated=isolated,
        embedded=tuple(p for p in associated[0] if p not in isolated),
        isolated_components_match=isolated_components_agree(i, isolated, minimal),
    )


def is_arithmetic(q: FiniteQuantale) -> bool:
    """Whether the ideal lattice is distributive."""
    return _distributivity_witness(q) is None


def _distributivity_witness(q: FiniteQuantale):
    """The first triple (a, b, c) of ideals with a ∧ (b ∨ c) != (a ∧ b) ∨
    (a ∧ c), or None, from the loop over the triples.  Where every join and
    meet cell is a lub and a glb (core._cones_match) on a partial order, the
    ideals are the principal ones, a lattice isomorphic to the elements',
    and the loop skips each a = ↓x whose meet row y -> x ∧ y has a right
    adjoint (core._right_adjoints): that row preserves every join (Davey and
    Priestley, Introduction to Lattices and Order, 2002, ch. 7), so no
    triple starting at a fails, and the first failing triple is unchanged.
    On a distributive lattice, a Heyting algebra, no a is left."""
    ideals = enumerate_ideals(q)
    adjoints = _right_adjoints(q, q.meet) if _cones_match(q) else None
    for a in ideals if adjoints is None else [a for a in ideals if adjoints[a.apex] is None]:
        for b in ideals:
            for c in ideals:
                lhs = meet_ideals(a, join_ideals(b, c))
                rhs = join_ideals(meet_ideals(a, b), meet_ideals(a, c))
                if lhs != rhs:
                    return (a, b, c)
    return None


@dataclass(frozen=True)
class ArithmeticReport:
    """Both directions of the irreducible/strongly-irreducible equivalence
    on one instance, under the distributive-ideal-lattice reading of
    "arithmetic"."""

    arithmetic: bool
    distributivity_witness: tuple[Ideal, Ideal, Ideal] | None
    irreducibles: tuple[Ideal, ...]
    strongly_irreducibles: tuple[Ideal, ...]
    sets_equal: bool
    representation_ok: bool
    representation_witness: Ideal | None


def arithmetic_equivalence_check(q: FiniteQuantale) -> ArithmeticReport:
    ideals = enumerate_ideals(q)
    wit = _distributivity_witness(q)
    irr = tuple(i for i in ideals if is_irreducible(i))
    sirr = tuple(i for i in ideals if is_strongly_irreducible(i))
    sets_equal = set(irr) == set(sirr)
    rep_ok = True
    rep_wit = None
    if wit is None:
        for i in ideals:
            if meet_all(q, [s for s in sirr if i <= s]) != i:
                rep_ok = False
                rep_wit = i
                break
    return ArithmeticReport(
        arithmetic=wit is None,
        distributivity_witness=wit,
        irreducibles=irr,
        strongly_irreducibles=sirr,
        sets_equal=sets_equal,
        representation_ok=rep_ok,
        representation_witness=rep_wit,
    )


def minimal_strongly_irreducible_over(i: Ideal) -> Ideal:
    """An inclusion-minimal strongly irreducible ideal containing i;
    ties break toward the lowest apex index."""
    if not i.proper:
        raise NotProper(f"{i.name} is the whole carrier")
    over = [s for s in enumerate_ideals(i.carrier) if i <= s and is_strongly_irreducible(s)]
    return min(_extremal(over, smallest=True), key=lambda s: s.apex)


def totally_ordered_ideals(q: FiniteQuantale) -> bool:
    """Whether the ideals form a chain (equivalently, every ideal is
    strongly irreducible; the suites check the equivalence)."""
    ideals = enumerate_ideals(q)
    return all(a <= b or b <= a for a in ideals for b in ideals)
