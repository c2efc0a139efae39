"""Classification of ideals: prime, semiprime, primary, radicals, spectra,
multiplicatively closed sets and saturation.

The radical of an ideal is computed by two independent routes that the
verification suites require to agree:

  powers   x belongs iff one of x, x^2, ... does; q.powers holds each
           element's powers as a mask (they repeat within n steps on an
           n-element carrier)
  primes   intersection of the prime ideals containing the target (the
           empty intersection is the whole carrier)

The mc-set form (x belongs iff every multiplicatively closed set holding x
meets the target) is the verify law saturation.mc_radical_decider, not a
route: its least set, mc_generated(x), adds only top to the powers of x.

Primality requires properness throughout; being semiprime deliberately
does not (the whole carrier vacuously satisfies the square condition and
the three-way radical equivalence then holds for every ideal).

Each ideal property has one witness scan, which returns its first
counterexample or None.  Semiprime scans elements; the other four filter
their candidates once from the ideal's mask (the elements outside it, the
elements no power of which lies in it, the strictly larger ideals, the
ideals not below it), then test pairs of candidates by masks in the full
pair scan's order, so the first witness is the same (for ideals, their
apexes).  The predicates (is_primary through q.residuals where it can) and
classification read the scans; decompose, the predicates and _outside_pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, itemgetter

from .core import FiniteQuantale, _closed, _colons, _require_element, _subset_mask, bits
from .errors import (
    CarrierMismatch,
    Degenerate,
    HypothesisViolated,
    NoAvoidingIdeal,
    NotMc,
    NotProper,
    QuantaleError,
    TooLarge,
)
from .ideals import (
    Ideal,
    enumerate_ideals,
    join_ideals,
    meet_all,
    product_ideals,
    require_commutative,
    zero_ideal,
)

# all_mc_sets scans 2^(n-1) subsets: about 1 s at n=18 and 4 s at n=20
MC_SETS_MAX_N = 20


def is_prime(i: Ideal) -> bool:
    """Proper, and x & y inside forces x or y inside.  A scan: reading
    q.residuals would make qk spectrum, which loads files unchecked, build
    it, which on lukasiewicz:128 costs more than the whole spectrum."""
    return i.proper and _outside_pair(i, i.carrier.mul) is None


def _outside_pair(i: Ideal, table) -> tuple[int, int] | None:
    """The first pair x <= y outside i, by index, with table[x][y] inside i,
    or None: the full square's verdict on a symmetric table, as q.mul where &
    commutes and q.meet always are (build_quantale; mutants replace only mul)."""
    m = i.members
    outside = [x for x in range(i.carrier.n) if not m >> x & 1]
    for k, x in enumerate(outside):
        row = table[x]
        for y in outside[k:]:
            if m >> row[y] & 1:
                return (x, y)
    return None


def is_prime_idealwise(i: Ideal) -> bool:
    """Proper, and a product of ideals inside forces one of them inside."""
    if not i.proper:
        return False
    ideals = enumerate_ideals(i.carrier)
    for a in ideals:
        if a <= i:
            continue
        for b in ideals:
            if b <= i:
                continue
            if product_ideals(a, b) <= i:
                return False
    return True


def is_semiprime(i: Ideal) -> bool:
    """x^2 inside forces x inside; properness not required."""
    return _semiprime_witness(i) is None


def _semiprime_witness(i: Ideal) -> tuple[int] | None:
    q = i.carrier
    for x in range(q.n):
        if i.members >> q.mul[x][x] & 1 and not i.members >> x & 1:
            return (x,)
    return None


def is_semiprime_idealwise(i: Ideal) -> bool:
    """j & j inside forces j inside, over all ideals j."""
    for j in enumerate_ideals(i.carrier):
        if product_ideals(j, j) <= i and not j <= i:
            return False
    return True


def is_primary(i: Ideal) -> bool:
    """Proper, and x & y inside forces x inside or some power of y inside.
    Where q.residuals exists and i = ↓b, the x with x & y <= b are
    ↓residuals[y][b], which must lie in i for each y no power of which does."""
    q, m, b = i.carrier, i.members, i.apex
    if q.residuals is None or not i.is_principal:
        return i.proper and _primary_witness(i) is None
    return i.proper and all(m >> r[b] & 1 for r, p in zip(q.residuals, q.powers) if not p & m)


def _primary_witness(i: Ideal) -> tuple[int, int] | None:
    q, m = i.carrier, i.members
    unreached = [y for y, p in enumerate(q.powers) if not p & m]
    for x in range(q.n):
        if m >> x & 1:
            continue
        row = q.mul[x]
        for y in unreached:
            if m >> row[y] & 1:
                return (x, y)
    return None


def is_irreducible(i: Ideal) -> bool:
    """No two strictly larger ideals intersect exactly to i."""
    return _irreducible_witness(i) is None


def _irreducible_witness(i: Ideal) -> tuple[int, int] | None:
    """The apexes of two strictly larger ideals meeting exactly to i (whose
    parts outside i are disjoint), if any."""
    m = i.members
    larger = [o for o in i.carrier.principals if o is not i and m & ~o.members == 0]
    return _disjoint_pair([(o.members & ~m, o.apex) for o in larger])


def is_strongly_irreducible(i: Ideal) -> bool:
    """Any intersection landing inside i has a factor inside i."""
    return _strongly_irreducible_witness(i) is None


def _strongly_irreducible_witness(i: Ideal) -> tuple[int, int] | None:
    """The apexes of two ideals not below i whose meet lies inside i (whose
    parts outside i are disjoint), if any."""
    m = i.members
    return _disjoint_pair(
        [(o.members & ~m, o.apex) for o in i.carrier.principals if o.members & ~m]
    )


def _disjoint_pair(parts: list[tuple[int, int]]) -> tuple[int, int] | None:
    """The apexes of the first two (mask, apex) parts whose nonzero masks
    are disjoint.  A mask meets itself, and disjointness is symmetric, so
    the first part with a partner has none before it.  Where every mask
    shares an element (as on every ideal of a chain) no two are disjoint."""
    if reduce(and_, map(itemgetter(0), parts), -1):
        return None
    for k, (a, x) in enumerate(parts):
        for b, y in parts[k + 1 :]:
            if not a & b:
                return (x, y)
    return None


def _radical_powers(i: Ideal) -> Ideal:
    q, m = i.carrier, i.members
    return q.interned[sum(1 << x for x, p in enumerate(q.powers) if p & m)]


def _radical_primes(i: Ideal) -> Ideal:
    return meet_all(i.carrier, primes_over(i))


# the radical routes by name, in the order the collapse suite compares them
RADICAL_ROUTES = {"powers": _radical_powers, "primes": _radical_primes}


def radical(i: Ideal, algorithm: str = next(iter(RADICAL_ROUTES))) -> Ideal:
    """Elements some power of which lands in the ideal, by the route named
    algorithm, a key of RADICAL_ROUTES (the first by default)."""
    if algorithm not in RADICAL_ROUTES:
        raise ValueError(f"unknown radical algorithm {algorithm!r}")
    return RADICAL_ROUTES[algorithm](i)


def _extremal(family: list[Ideal], smallest: bool = False) -> list[Ideal]:
    """The inclusion-maximal members of a family of ideals of one carrier
    (the minimal ones if smallest), in the family's order.  The masks are
    walked largest first, each kept unless it lies inside one kept before:
    a member that is not maximal lies strictly inside a maximal one, which
    is larger and so was kept first (k·M mask tests for M maxima, not k^2).
    The minimal ones are the maximal complements."""
    flip = family[0].carrier.full if smallest and family else 0
    kept: list[int] = []
    for m in sorted({i.members ^ flip for i in family}, key=int.bit_count, reverse=True):
        if all(m & ~k for k in kept):
            kept.append(m)
    keep = {m ^ flip for m in kept}
    return [i for i in family if i.members in keep]


def spectrum(q: FiniteQuantale) -> list[Ideal]:
    """All prime ideals, in element index order of their apexes."""
    return [i for i in enumerate_ideals(q) if is_prime(i)]


def primes_over(i: Ideal) -> list[Ideal]:
    """The prime ideals containing i, in element index order of their apexes."""
    return [p for p in enumerate_ideals(i.carrier) if i <= p and is_prime(p)]


def minimal_primes_over(i: Ideal) -> list[Ideal]:
    """Inclusion-minimal primes containing i; i must be proper."""
    if not i.proper:
        raise NotProper(f"{i.name} is the whole carrier")
    return _extremal(primes_over(i), smallest=True)


def maximal_ideals(q: FiniteQuantale) -> list[Ideal]:
    """Inclusion-maximal proper ideals; needs bottom != top."""
    require_commutative(q)
    if q.bottom == q.top:
        raise Degenerate(f"{q.name} has bottom == top")
    return _extremal([i for i in enumerate_ideals(q) if i.proper])


def is_local(q: FiniteQuantale) -> tuple[bool, Ideal | None]:
    """(True, the maximal ideal) when there is exactly one."""
    ms = maximal_ideals(q)
    if len(ms) == 1:
        return True, ms[0]
    return False, None


def jacobson(q: FiniteQuantale) -> Ideal:
    """Intersection of all maximal ideals."""
    return meet_all(q, maximal_ideals(q))


def nilradical(q: FiniteQuantale) -> Ideal:
    """Radical of the zero ideal."""
    return radical(zero_ideal(q))


def zero_divisors(q: FiniteQuantale) -> tuple[int, ...]:
    """Nonzero x with x & y == bottom for some nonzero y."""
    require_commutative(q)
    zero = 1 << q.bottom
    return tuple(bits(_colons(q, zero, q.full & ~zero) & ~zero))


def is_qd(q: FiniteQuantale) -> bool:
    """No zero divisors and bottom != top; equivalently the zero ideal is prime."""
    require_commutative(q)
    return q.bottom != q.top and not zero_divisors(q)


@dataclass(frozen=True)
class McSet:
    """A multiplicatively closed subset: contains top, closed under &."""

    carrier: FiniteQuantale
    members: int

    @property
    def complement(self) -> int:
        return self.carrier.full & ~self.members

    def __contains__(self, x: int) -> bool:
        return bool(self.members >> x & 1)

    def __repr__(self) -> str:
        return f"<McSet {{{self.carrier.labels(self.members)}}} of {self.carrier.name}>"


def is_mc(q: FiniteQuantale, subset) -> bool:
    """Contains top and is closed under &; False for anything that is not a
    subset of q."""
    try:
        m = _subset_mask(q, subset)
    except QuantaleError:
        return False
    return bool(m >> q.top & 1) and _closed(m, q.mul)


def mc_set(q: FiniteQuantale, subset) -> McSet:
    require_commutative(q)
    m = _subset_mask(q, subset)
    if not is_mc(q, m):
        raise NotMc(f"{{{q.labels(m)}}} is not multiplicatively closed")
    return McSet(q, m)


def mc_generated(q: FiniteQuantale, x: int) -> McSet:
    """Least mc set containing x: the unit together with all powers of x."""
    require_commutative(q)
    _require_element(q, x)
    return McSet(q, q.powers[x] | 1 << q.top)


def all_mc_sets(q: FiniteQuantale) -> list[McSet]:
    """Every mc subset; the scan doubles with each element, so carriers
    above MC_SETS_MAX_N elements raise TooLarge."""
    require_commutative(q)
    if q.n > MC_SETS_MAX_N:
        raise TooLarge(f"all_mc_sets supports up to {MC_SETS_MAX_N} elements, got {q.n}")
    rest = q.full & ~(1 << q.top)
    out = []
    sub = rest
    while True:
        m = sub | 1 << q.top
        if is_mc(q, m):
            out.append(McSet(q, m))
        if sub == 0:
            break
        sub = (sub - 1) & rest
    out.sort(key=lambda s: (s.members.bit_count(), s.members))
    return out


def saturation(s: McSet) -> McSet:
    """Smallest saturated mc superset: everything whose product with
    something lands in s."""
    return McSet(s.carrier, _colons(s.carrier, s.members, s.carrier.full))


def is_saturated(s: McSet) -> bool:
    """x & y in s forces both x and y in s."""
    q = s.carrier
    m = s.members
    for x in range(q.n):
        row = q.mul[x]
        for y in range(x, q.n):
            if m >> row[y] & 1 and not (m >> x & 1 and m >> y & 1):
                return False
    return True


def maximal_avoiding(s: McSet) -> Ideal:
    """An ideal maximal among those disjoint from s; ties break toward the
    lowest apex index.  Such an ideal is prime (checked by the suites)."""
    q = s.carrier
    if s.members >> q.bottom & 1:
        raise NoAvoidingIdeal("the set contains bottom, which every ideal contains")
    disjoint = [i for i in enumerate_ideals(q) if not i.members & s.members]
    return min(_extremal(disjoint), key=lambda i: i.apex)


def _instability(q: FiniteQuantale, m: int) -> tuple[str, int, int] | None:
    """The first way the set m fails to be closed under join and &, as the
    hypothesis of prime_avoidance and the two members x, y whose join or
    product leaves the set, or None."""
    xs = list(bits(m))
    for x in xs:
        jr, mr = q.join[x], q.mul[x]
        for y in xs:
            if not m >> jr[y] & 1:
                return "stable_under_join", x, y
            if not m >> mr[y] & 1:
                return "stable_under_mul", x, y
    return None


def prime_avoidance(q: FiniteQuantale, stable, ps: list[Ideal]) -> int:
    """A member of the stable set outside the union of the given ideals:
    the lowest one.

    Hypotheses (violations raise HypothesisViolated naming the failure):
    the set is closed under join and &; every ideal from the third on is
    prime; the set is contained in none of the ideals.  The first two hold
    of the input as a whole and are checked here; _avoiding checks the
    third and finds the witness.  ps, ideals of q, is only read.
    """
    require_commutative(q)
    m = _subset_mask(q, stable)
    for p in ps:
        if p.carrier is not q:
            raise CarrierMismatch(f"{p.name} is not an ideal of {q.name}")
    violation = _instability(q, m)
    if violation is not None:
        hypothesis, x, y = violation
        op = "v" if hypothesis == "stable_under_join" else "&"
        raise HypothesisViolated(hypothesis, f"{q.label(x)} {op} {q.label(y)} leaves the set")
    for k, p in enumerate(ps[2:], 2):
        if not is_prime(p):
            raise HypothesisViolated("prime_tail", f"ideal {k + 1} ({p.name}) is not prime")
    x = _avoiding(m, ps)
    if x is None:
        k = next(k for k, p in enumerate(ps) if m & ~p.members == 0)
        raise HypothesisViolated(
            "not_contained", f"the stable set lies inside ideal {k + 1} ({ps[k].name})"
        )
    return x


def _avoiding(m: int, ps: list[Ideal]) -> int | None:
    """prime_avoidance once the closure and the prime tail are checked, or
    None where the set lies inside one of the ideals: no exception is made
    for a case the avoidance suite then leaves out."""
    union = 0
    for p in ps:
        if m & ~p.members == 0:
            return None
        union |= p.members
    rest = m & ~union
    if rest:
        return (rest & -rest).bit_length() - 1
    raise QuantaleError("avoidance witness missing despite satisfied hypotheses")


def are_coprime(i: Ideal, j: Ideal) -> bool:
    """Join is the whole carrier."""
    return join_ideals(i, j).is_whole


@dataclass(frozen=True)
class Classification:
    """One-stop summary of an ideal; witnesses explain each False flag
    where a finite witness exists (element or apex index tuples)."""

    ideal: Ideal
    proper: bool
    maximal: bool
    minimal_ideal: bool
    prime: bool
    semiprime: bool
    primary: bool
    radical_ideal: bool
    irreducible: bool
    strongly_irreducible: bool
    radical: Ideal
    witnesses: dict = field(default_factory=dict)


def classification(i: Ideal) -> Classification:
    """Compute every flag for one ideal from one table: each property maps
    to its witness, or to None where it holds."""
    q = i.carrier
    ideals = enumerate_ideals(q)
    rad = radical(i)
    larger = [o.apex for o in ideals if i < o and o.proper]
    smaller = [o.apex for o in ideals if not o.is_zero and o < i]
    proper = None if i.proper else ()
    table = {
        "proper": proper,
        "maximal": tuple(larger[:1]) if larger else proper,
        "minimal_ideal": tuple(smaller[:1]) if smaller or i.is_zero else None,
        "prime": _outside_pair(i, q.mul) if i.proper else (),
        "semiprime": _semiprime_witness(i),
        "primary": _primary_witness(i) if i.proper else (),
        "radical_ideal": None if rad == i else tuple(bits(rad.members & ~i.members))[:1],
        "irreducible": _irreducible_witness(i),
        "strongly_irreducible": _strongly_irreducible_witness(i),
    }
    return Classification(
        ideal=i,
        radical=rad,
        witnesses={k: w for k, w in table.items() if w is not None},
        **{k: w is None for k, w in table.items()},
    )
