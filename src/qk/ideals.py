"""The ideal calculus over a finite carrier.

An ideal is a nonempty, down-closed, join-closed subset.  On a finite
carrier every ideal contains the join of its members and is therefore the
down-set of that join (its apex); ideals are nevertheless stored as
explicit member masks so the principal collapse stays a checked fact
rather than a baked-in assumption.  The fast paths here go through the
apex; the definitional closure routes live alongside them and the
verification suites insist the two agree.

Carriers are immutable and meant to be reused.  Ideals are interned in
the carrier's memo q.interned (see Ideal), which every route here reads
directly.  Annihilators and generated ideals fold their columns through
the byte-slice tables q.zero_folds and q.image_folds (see
core.FiniteQuantale), one lookup per byte of the mask, and the residual
of two principal ideals is one lookup in q.residuals where that table
exists; elsewhere the residual scans.  Since a memo or table holds the
definition's own result, it is exact, on broken tables too.

No ideal exists on a noncommutative carrier: q.interned, through which
every Ideal is made, raises NotCommutative there; annihilator takes
q.interned before it builds q.zero_folds.  The routines that take a
carrier and could answer before making an ideal check for themselves:
generated here; maximal_ideals, zero_divisors, is_qd, mc_set,
mc_generated, all_mc_sets and prime_avoidance in classify.  is_ideal,
is_mc and saturation answer on any table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    ELEMENT_CAP,
    FiniteQuantale,
    QuantaleHom,
    _closed,
    _colons,
    _require_element,
    _subset_mask,
    bits,
    build_quantale,
    check_hom,
)
from .errors import (
    CarrierMismatch,
    EmptyGeneratorSet,
    HomInvalid,
    NotCommutative,
    QuantaleError,
    TooLarge,
)


def require_commutative(q: FiniteQuantale) -> None:
    if not q.commutative:
        raise NotCommutative(f"{q.name} has a noncommutative multiplication")


class Ideal:
    """A subset of a carrier, trusted to satisfy the ideal conditions.

    Build via principal/generated/as_ideal rather than directly.  Ideals are
    interned: Ideal(q, m) is q.interned[m], the one object of carrier q for
    member mask m, so equality is identity.  Its apex, the join of the
    members (the ideal is its down-set), is computed once, when the memo
    makes that object.
    """

    __slots__ = ("carrier", "members", "apex")

    def __new__(cls, carrier: FiniteQuantale, members: int):
        return carrier.interned[members]

    @property
    def name(self) -> str:
        """↓a for a principal mask, else its member labels in braces."""
        if self.is_principal:
            return "↓" + self.carrier.elements[self.apex]
        return "{" + ",".join(map(self.carrier.elements.__getitem__, bits(self.members))) + "}"

    @property
    def is_principal(self) -> bool:
        """Whether the members are the down-set of the apex."""
        return self.members == self.carrier.down[self.apex]

    @property
    def size(self) -> int:
        return self.members.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.members == 1 << self.carrier.bottom

    @property
    def is_whole(self) -> bool:
        return self.members == self.carrier.full

    @property
    def proper(self) -> bool:
        return self.members != self.carrier.full

    def indices(self) -> tuple[int, ...]:
        return tuple(bits(self.members))

    def labels(self) -> str:
        return self.carrier.labels(self.members)

    def __contains__(self, x: int) -> bool:
        return bool(self.members >> x & 1)

    def __le__(self, other: "Ideal") -> bool:
        if other.carrier is not self.carrier:
            raise _mismatch(self, other)
        return self.members & ~other.members == 0

    def __lt__(self, other: "Ideal") -> bool:
        return self <= other and self is not other

    def __repr__(self) -> str:
        return f"<Ideal {self.name} of {self.carrier.name}>"


class _Interned(dict):
    """The memo q.interned: member mask -> the one Ideal of q with it.  A
    lookup of a new mask makes that object, so a hit is one dict lookup.
    """

    __slots__ = ("carrier",)

    def __init__(self, carrier: FiniteQuantale):
        self.carrier = carrier

    def __missing__(self, members: int) -> Ideal:
        i = object.__new__(Ideal)
        i.carrier = self.carrier
        i.members = members
        i.apex = self.carrier.join_of(bits(members))
        self[members] = i
        return i


def _mismatch(i: Ideal, j: Ideal) -> CarrierMismatch:
    return CarrierMismatch(
        f"ideals live over different carriers ({i.carrier.name}, {j.carrier.name})"
    )


def is_ideal(q: FiniteQuantale, subset: Iterable[int] | int) -> bool:
    """Nonempty, down-closed, closed under binary join; False for anything
    that is not a subset of q."""
    try:
        m = _subset_mask(q, subset)
    except QuantaleError:
        return False
    if m == 0:
        return False
    for x in bits(m):
        if q.down[x] & ~m:
            return False
    return _closed(m, q.join)


def as_ideal(q: FiniteQuantale, subset: Iterable[int] | int) -> Ideal:
    """Validate and wrap an explicit member set."""
    m = _subset_mask(q, subset)
    if not is_ideal(q, m):
        raise QuantaleError(f"{q.labels(m) or '(empty)'} is not an ideal of {q.name}")
    return q.interned[m]


def principal(q: FiniteQuantale, a: int) -> Ideal:
    """The down-set of a single element."""
    _require_element(q, a)
    return q.principals[a]


def zero_ideal(q: FiniteQuantale) -> Ideal:
    return q.interned[1 << q.bottom]


def whole_ideal(q: FiniteQuantale) -> Ideal:
    return q.interned[q.full]


def ideal_from_closure(q: FiniteQuantale, seed: Iterable[int] | int) -> Ideal:
    """Close a nonempty seed under down-sets and binary joins.

    This is the definitional route used to cross-check the apex shortcuts;
    it never multiplies, so it tolerates broken algebra tables.
    """
    m = _subset_mask(q, seed)
    if m == 0:
        raise EmptyGeneratorSet("cannot close an empty set into an ideal")
    while True:
        prev = m
        for x in bits(prev):
            m |= q.down[x]
        for x in bits(prev):
            row = q.join[x]
            for y in bits(prev):
                m |= 1 << row[y]
        if m == prev:
            return q.interned[m]


def generated(q: FiniteQuantale, s: Iterable[int] | int) -> Ideal:
    """Least ideal containing s: everything below a finite join of products
    l & t with t in s.  On a sound carrier this equals the down-set of the
    join of s (top is the unit); the verification suites compare the two."""
    require_commutative(q)
    m = s if type(s) is int and 0 < s <= q.full else _subset_mask(q, s)
    if m == 0:
        raise EmptyGeneratorSet("generated ideal needs at least one generator")
    prods = 0
    for table in q.image_folds:
        prods |= table[m & 255]
        m >>= 8
    # interned for its apex alone: prods need not be an ideal
    return q.principals[q.interned[prods].apex]


def enumerate_ideals(q: FiniteQuantale) -> list[Ideal]:
    """All ideals, one per carrier element (the principal down-sets), in
    element index order.  The brute-force subset filter that justifies
    this lives in the collapse verification suite."""
    return list(q.principals)


def meet_ideals(i: Ideal, j: Ideal) -> Ideal:
    if j.carrier is not i.carrier:
        raise _mismatch(i, j)
    return i.carrier.interned[i.members & j.members]


def meet_all(q: FiniteQuantale, ideals: Iterable[Ideal]) -> Ideal:
    """Meet of a family of ideals of q; the whole carrier for an empty one."""
    m = q.full
    for i in ideals:
        if i.carrier is not q:
            raise CarrierMismatch(f"{i.name} is not an ideal of {q.name}")
        m &= i.members
    return q.interned[m]


def join_all(q: FiniteQuantale, ideals: Iterable[Ideal]) -> Ideal:
    """Join of a family of ideals of q; the zero ideal for an empty one.

    Each step is join_ideals, the principal ideal at the join of two
    apexes, so the result is the fold of join_ideals from the zero ideal,
    on any table.
    """
    out = q.interned[1 << q.bottom]
    join = q.join
    for i in ideals:
        if i.carrier is not q:
            raise CarrierMismatch(f"{i.name} is not an ideal of {q.name}")
        out = q.principals[join[out.apex][i.apex]]
    return out


def join_ideals(i: Ideal, j: Ideal) -> Ideal:
    """Least ideal containing both: the down-set of the join of apexes."""
    q = i.carrier
    if j.carrier is not q:
        raise _mismatch(i, j)
    return q.principals[q.join[i.apex][j.apex]]


def product_ideals(i: Ideal, j: Ideal) -> Ideal:
    """Everything below a finite join of pairwise products, computed via
    the apex shortcut; the definitional closure lives in product_closure."""
    q = i.carrier
    if j.carrier is not q:
        raise _mismatch(i, j)
    return q.principals[q.mul[i.apex][j.apex]]


def product_closure(i: Ideal, j: Ideal) -> Ideal:
    """Definitional product: close the set of pairwise products."""
    q = i.carrier
    if j.carrier is not q:
        raise _mismatch(i, j)
    prods = 0
    for x in bits(i.members):
        row = q.mul[x]
        for y in bits(j.members):
            prods |= 1 << row[y]
    return ideal_from_closure(q, prods)


def residual(i: Ideal, j: Ideal) -> Ideal:
    """(i : j) = all x whose product with every member of j lands in i: the
    complement of core._colons(q, full & ~i, j); or, where q.residuals exists
    and both are principal, (↓b : ↓a) = ↓residuals[a][b] (every row is then
    monotone, so y = a decides)."""
    q = i.carrier
    if j.carrier is not q:
        raise _mismatch(i, j)
    table = q.residuals
    if table is not None and i.is_principal and j.is_principal:
        return q.principals[table[j.apex][i.apex]]
    return q.interned[q.full & ~_colons(q, q.full & ~i.members, j.members)]


def annihilator(q: FiniteQuantale, s: Iterable[int] | int) -> Ideal:
    """All x with x & t == bottom for every t in s."""
    m = s if type(s) is int and 0 < s <= q.full else _subset_mask(q, s)
    if m == 0:
        raise EmptyGeneratorSet("annihilator of the empty set is not defined")
    interned = q.interned  # refuses a noncommutative carrier before the fold is built
    out = q.full
    for table in q.zero_folds:
        out &= table[m & 255]
        m >>= 8
    return interned[out]


@dataclass(frozen=True, eq=False)
class IdealQuantale:
    """The carrier whose elements are the ideals of a base carrier.

    ideals[k] is the ideal behind element k of quantale; iso maps a base
    element a to the element standing for its principal ideal.
    """

    quantale: FiniteQuantale
    base: FiniteQuantale
    ideals: tuple[Ideal, ...]
    iso: tuple[int, ...]

    def hom_from_base(self) -> QuantaleHom:
        return QuantaleHom(
            source=self.base, target=self.quantale, mapping=self.iso, name="principal"
        )


def ideal_quantale(q: FiniteQuantale) -> IdealQuantale:
    """Build the ideal carrier (inclusion order, product_ideals table) with
    build_quantale and certify the principal-embedding isomorphism
    a |-> down-set of a."""
    ideals = tuple(sorted(enumerate_ideals(q), key=lambda i: (i.size, i.members)))
    if len(ideals) > ELEMENT_CAP:
        raise TooLarge(f"{len(ideals)} ideals exceeds the cap of {ELEMENT_CAP}")
    pos = {i: k for k, i in enumerate(ideals)}
    labels = tuple(i.name for i in ideals)
    iso = tuple(pos[i] for i in q.principals)
    if sorted(iso) != list(range(len(ideals))):
        raise QuantaleError("principal map is not a bijection onto the ideals")
    # row k: the ideals whose members include those of ideals[k], which
    # come at or after k in size order, and the labels of
    # product_ideals(ideals[k], j), the principal ideal of the product of
    # the apexes, found through iso
    n = len(ideals)
    masks = [i.members for i in ideals]
    apexes = [i.apex for i in ideals]
    product_label = [labels[k] for k in iso].__getitem__
    pairs: list[tuple[str, str]] = []
    mul = []
    for k, (m, a) in enumerate(zip(masks, apexes)):
        pairs += [(labels[k], labels[l]) for l in range(k, n) if m & ~masks[l] == 0]
        mul.append(list(map(product_label, map(q.mul[a].__getitem__, apexes))))
    carrier = build_quantale(labels, pairs, mul, name=f"{q.name}_ideals")
    rep = check_hom(iso, q, carrier)
    if not rep.ok:
        raise QuantaleError(f"principal map breaks {rep.condition} at {rep.witness}")
    # iso reflects the order: carrier.down[iso[b]] holds iso[a] iff down[a]
    # is inside down[b], which is a <= b exactly when down is reflexive and
    # transitive.  A transitivity fault has already failed check_hom's order
    # test, and an antisymmetry fault, two equal rows once down is
    # reflexive and transitive, the bijection test.
    if q._order_fault is not None:
        raise QuantaleError("principal map does not reflect the order")
    return IdealQuantale(quantale=carrier, base=q, ideals=ideals, iso=iso)


def contraction(h: QuantaleHom, j: Ideal) -> Ideal:
    """Preimage of an ideal of the target."""
    rep = h.check()
    if not rep.ok:
        raise HomInvalid(f"map breaks {rep.condition} at {rep.witness}")
    if j.carrier is not h.target:
        raise CarrierMismatch("contraction needs an ideal of the hom's target")
    out = 0
    for x in range(h.source.n):
        if j.members >> h.mapping[x] & 1:
            out |= 1 << x
    return h.source.interned[out]


def extension(h: QuantaleHom, i: Ideal) -> Ideal:
    """Ideal of the target generated by the image."""
    rep = h.check()
    if not rep.ok:
        raise HomInvalid(f"map breaks {rep.condition} at {rep.witness}")
    if i.carrier is not h.source:
        raise CarrierMismatch("extension needs an ideal of the hom's source")
    image = 0
    for x in bits(i.members):
        image |= 1 << h.mapping[x]
    return generated(h.target, image)
