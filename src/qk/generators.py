"""Bundled carrier generators.

Four families plus one fixed reference instance:

  powerset k      all subsets of a k-point set, multiplication = intersection:
                  the lower sets of a k-point antichain
  lowersets       down-closed subsets of a finite poset, mul = intersection
  opens           open sets of a finite topology, mul = intersection
  lukasiewicz n   chain 0..n-1 with a & b = max(0, a + b - (n - 1))
  m3              a five-element diamond with a unit adjoined; every product
                  of non-unit elements is bottom

The diamond alone admits no valid multiplication: distribution forces
p & (q v r) = p while p & q and p & r both sit below the diamond's bottom,
so a separate unit on top is the smallest repair.  The instance exists to
witness a non-distributive ideal lattice.

Each generator returns a carrier that has already passed check_axioms.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    ELEMENT_CAP,
    FiniteQuantale,
    _closure_up,
    _mutual_pair,
    _transpose,
    bits,
    build_quantale,
    check_axioms,
)
from .errors import NotAPartialOrder, QuantaleError, TooLarge
from .ideals import ideal_quantale
from .quantfile import load_quant


def _checked(q: FiniteQuantale) -> FiniteQuantale:
    """q itself once check_axioms passes it, or QuantaleError naming q and
    its first failed axiom."""
    faults = check_axioms(q).counterexamples
    if faults:
        tag, witness = faults[0]
        at = " ".join(q.elements[i] for i in witness)
        raise QuantaleError(f"{q.name} is not a quantale: {tag} fails at {at}")
    return q


def _subset_labels(family: list[int], points: int) -> list[str]:
    """The label of each set of family: bot for the empty set, top for the
    full set (of 2 or more points), else its points' names (1-based) run
    together below 10 points.  From 10 points on, a set is named by its
    maximal points, comma separated, as it is the union of the least sets
    holding them; points that no set separates count as one, the lowest.
    family is sorted by size and closed under union and intersection."""
    least, seen = {}, 0
    for s in family:
        for p in bits(s & ~seen):
            least[p] = s
        seen |= s
    same: dict[int, int] = {}  # a least set -> the points it is least for
    for p, s in least.items():
        same[s] = same.get(s, 0) | 1 << p
    members = set(family)

    def label(s: int) -> str:
        if s == 0:
            return "bot"
        if s == (1 << points) - 1 and points > 1:
            return "top"
        if points < 10:
            return "".join(str(p + 1) for p in bits(s))
        # p's class is maximal in s iff s without it is still a member
        return ",".join(
            str(p + 1) for p in bits(s)
            if (c := same[least[p]]) & -c == 1 << p and s & ~c in members
        )

    return [label(s) for s in family]


def _set_quantale(points: int, sets: Iterable[int], name: str) -> FiniteQuantale:
    """Common path for powerset/lowersets/opens: a family of subsets ordered
    by inclusion, multiplied by intersection.  The family must be closed
    under union and intersection and contain the empty and full set."""
    family = sorted(set(sets), key=lambda s: (bin(s).count("1"), s))
    labels = _subset_labels(family, points)
    label_of = dict(zip(family, labels)).__getitem__
    pairs: list[tuple[str, str]] = []
    mul = []
    for i, a in enumerate(family):  # a's supersets come at or after it in size order
        meets = list(map(a.__and__, family))
        pairs += [(labels[i], labels[j]) for j in range(i, len(family)) if meets[j] == a]
        mul.append(list(map(label_of, meets)))
    return _checked(build_quantale(labels, pairs, mul, name=name))


def powerset_quantale(k: int, *, name: str | None = None) -> FiniteQuantale:
    """The full powerset of a k-point set: the lower sets of a k-point
    antichain, under the same cap."""
    return lowersets_quantale(k, (), name=name or f"powerset{k}")


def lukasiewicz_quantale(n: int, *, name: str | None = None) -> FiniteQuantale:
    """The n-element chain 0 < 1 < ... < n-1 with truncated addition."""
    if n < 1:
        raise ValueError(f"lukasiewicz needs at least one element, got {n}")
    if n > ELEMENT_CAP:
        raise TooLarge(f"{n} elements exceeds the cap of {ELEMENT_CAP}")
    labels = [str(i) for i in range(n)]
    pairs = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    mul = [[labels[max(0, a + b - (n - 1))] for b in range(n)] for a in range(n)]
    return _checked(build_quantale(labels, pairs, mul, name=name or f"lukasiewicz{n}"))


def lowersets_quantale(
    points: int,
    relations: Iterable[tuple[int, int]],
    *,
    name: str | None = None,
) -> FiniteQuantale:
    """Down-closed subsets of the poset generated by (lo, hi) pairs on 0..points-1."""
    points = _lowerset_points(points)
    pairs = [(hi, lo) for lo, hi in relations]
    if stray := sorted({p for pair in pairs for p in pair if not 0 <= p < points}):
        raise ValueError(f"points {stray} are not among 0..{points - 1}")
    below = _closure_up(points, pairs)
    if mutual := _mutual_pair(below, _transpose(below)):
        p, s = mutual
        raise NotAPartialOrder(f"points {s} and {p} are below each other")
    # Add the points along a linear extension (fewer points below first): a
    # lower set holding p is one holding all points strictly below p, plus p.
    # The family only grows, so it is refused as soon as it passes the cap.
    lower = [0]
    for p in sorted(range(points), key=lambda p: below[p].bit_count()):
        strict = below[p] & ~(1 << p)
        lower += [s | 1 << p for s in lower if s & strict == strict]
        if len(lower) > ELEMENT_CAP:
            raise TooLarge(f"the lower sets exceed the cap of {ELEMENT_CAP}")
    return _set_quantale(points, lower, name or f"lowersets{points}")


def _lowerset_points(points: int) -> int:
    """points, or TooLarge if they are too many: a poset on p points has at
    least p + 1 lower sets."""
    if points < 0:
        raise ValueError(f"a poset has 0 or more points, got {points}")
    if points >= ELEMENT_CAP:
        raise TooLarge(f"{points} points have more lower sets than the cap of {ELEMENT_CAP}")
    return points


def opens_quantale(
    points: int,
    opens: Iterable[int | frozenset[int]],
    *,
    name: str | None = None,
) -> FiniteQuantale:
    """Open sets of a finite topology, given as bitmasks or frozensets."""
    if points < 0:
        raise ValueError(f"a space has 0 or more points, got {points}")
    fam = {s if isinstance(s, int) else sum(1 << p for p in s) for s in opens}
    if any(s < 0 for s in fam):
        raise ValueError("open sets are masks of 0 or more")
    if stray := sorted({points + p for s in fam for p in bits(s >> points)}):
        raise ValueError(f"points {stray} are not among 0..{points - 1}")
    if len(fam) > ELEMENT_CAP:
        raise TooLarge(f"{len(fam)} open sets exceed the cap of {ELEMENT_CAP}")
    # every set lies inside the full one, so it is there iff the largest is full
    if 0 not in fam or max(fam).bit_count() != points:
        raise ValueError("a topology contains the empty and the full set")
    for a in fam:
        for b in fam:
            if a | b not in fam or a & b not in fam:
                raise ValueError("opens must be closed under union and intersection")
    return _set_quantale(points, fam, name or f"opens{points}")


def m3_quantale(*, name: str = "m3") -> FiniteQuantale:
    """Diamond p, q, r over bot, joined at m, with a separate unit on top."""
    labels = ["bot", "p", "q", "r", "m", "top"]
    pairs = [("bot", "p"), ("bot", "q"), ("bot", "r"), ("p", "m"), ("q", "m"), ("r", "m"), ("m", "top")]
    unit = len(labels) - 1

    def prod(a: int, b: int) -> int:
        if a == unit:
            return b
        if b == unit:
            return a
        return 0

    mul = [[labels[prod(a, b)] for b in range(len(labels))] for a in range(len(labels))]
    return _checked(build_quantale(labels, pairs, mul, name=name))


def chain_poset(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [(i, i + 1) for i in range(n - 1)]


def antichain_poset(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, []


_NAMED_TOPOLOGIES = {
    "sierpinski": (2, (0b00, 0b01, 0b11)),
    "discrete1": (1, (0b0, 0b1)),
    "discrete2": (2, (0b00, 0b01, 0b10, 0b11)),
    "discrete3": (3, tuple(range(8))),
    "indiscrete2": (2, (0b00, 0b11)),
    "indiscrete3": (3, (0b000, 0b111)),
    "point3": (3, (0b000, 0b001, 0b011, 0b101, 0b111)),
}


def _parse_poset_arg(text: str) -> tuple[int, list[tuple[int, int]]]:
    if text.startswith("chain"):
        return chain_poset(_lowerset_points(int(text[5:])))
    if text.startswith("antichain"):
        return antichain_poset(_lowerset_points(int(text[9:])))
    # explicit form: "N:a<b,c<d"
    head, _, rest = text.partition(":")
    points = int(head)
    relations = []
    if rest:
        for part in rest.split(","):
            lo, _, hi = part.partition("<")
            relations.append((int(lo), int(hi)))
    return points, relations


def _parse_opens_arg(text: str) -> tuple[int, tuple[int, ...]]:
    if text in _NAMED_TOPOLOGIES:
        return _NAMED_TOPOLOGIES[text]
    # explicit form: "N:-,0,01,012" with - for the empty set
    head, _, rest = text.partition(":")
    points = int(head)
    fam = []
    for part in rest.split(","):
        fam.append(0 if part == "-" else sum(1 << int(c) for c in part))
    return points, tuple(fam)


# kind -> (reads the argument of a KIND:ARG spec, builds from the argument)
_KINDS = {
    "powerset": (str, lambda k: powerset_quantale(int(k))),
    "lukasiewicz": (str, lambda n: lukasiewicz_quantale(int(n))),
    "lowersets": (_parse_poset_arg, lambda a: lowersets_quantale(*a)),
    "opens": (_parse_opens_arg, lambda a: opens_quantale(*a)),
    "m3": (str, lambda _: m3_quantale()),
    "ideal_quantale": (load_quant, lambda q: _checked(ideal_quantale(q).quantale)),
}


def _kind(kind: str):
    if kind not in _KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    return _KINDS[kind]


def generate(kind: str, arg=None) -> FiniteQuantale:
    """Dispatch on kind; every result has passed check_axioms.

    kinds: powerset (arg k), lukasiewicz (arg n), lowersets (arg (points,
    relations)), opens (arg (points, open sets)), m3, ideal_quantale
    (arg a carrier).  A count may also be given as its decimal text.
    """
    return _kind(kind)[1](arg)


def generate_from_spec(spec: str) -> FiniteQuantale:
    """CLI form KIND[:ARG], e.g. powerset:2, lowersets:chain3, opens:sierpinski,
    lukasiewicz:5, m3, ideal_quantale:FILE (FILE is read by load_quant).

    Only the argument is read here; generate builds the carrier."""
    kind, _, arg = spec.partition(":")
    return generate(kind, _kind(kind)[0](arg))
