"""Exhaustive re-verification of the ideal-theoretic laws on an instance.

run_suite replays a fixed catalogue of laws, organised into named suites,
against one carrier.  Each suite but "axioms" is a table of laws: a name, a
domain to quantify over and a predicate.  A suite only builds its table and
reads no scan (the spectrum, the mc sets and the default homs included):
each is made on its first read by a law.  run_suite runs every table through
one function (_check): it counts the cases, records the first witness and
turns a crash, a scan's included, into a finding of the laws that read it.
Quantifiers over elements and ideals are always exhausted; the exponential
ones (subsets, pairs of subsets, families of ideals, mc sets) are sampled
or narrowed on larger carriers, by the rules stated once with the domains
(_Ctx), and such laws say so in their note.  Six kinds of domain carry a
decide, which passes a law at once with its case count: avoidance's masks,
each distinct mask decided once from its parts outside the ideals and
counted for each draw; the five family laws, passed by transport (the
three of proposition_bpi) or decided from the empty family and the
families of one or two ideals (_Ctx.family_law); p_primary_meet_closed,
decided from the one- and two-member subfamilies of each radical group
(_Ctx.subfamilies); the six proposition_bpi laws over triples of ideals,
passed by transport (_Ctx.transported), since each is a theorem of the
axioms where check_axioms passes and the library's product, join, meet and
residual of every pair of ideals are the principal ideals of the element
tables (_Ctx.transport, 4 n^2 calls once per run); the four annihilator
laws and generated_meet_lower over nonempty masks, passed by mask
transport where no cover decides them (_Ctx.mask_transported), since
there generated and annihilator of every mask are the principal ideals of
its join and of that join's residual into bottom (_Ctx.mask_transport,
2 (2^n - 1) calls once per run, n <= 13); and four monotonicity laws,
each decided along the covers of its order (_monotone):
annihilator.antitone and generated_meet_lower on the nonempty masks under
inclusion, mul_monotone and mul_monotone_pairs on the carrier's Hasse
diagram.  A law whose decide does not pass runs case by case from its
first case, so case counts and witnesses are those of checking every
case.  Sampled masks are drawn from C iterators over the seeded Random.
Every other law runs case by case, and outside collapse (which compares
the library with brute force, one call per case) its repeated library
calls reach the run's memos (_Ctx.routes): generated and annihilator once
per mask where subsets repeat (n <= 13; the mask transport gate fills
them), and at every size each residual, radical, extension, contraction
and idealness test.
A run also runs check_axioms once, and builds and checks the ideal
carrier once.  A drawn family is the list of ideals at the bits of its
draw, folded once where it is drawn by the library's join_all and
meet_all; a family law folds its members' products, residuals or radicals
the same way.  Each law reports its exact case count and, on failure, the
first witness found; later laws still run.

Suites other than "axioms" skip on a noncommutative carrier: that is a
precondition, not a failure.  The "cep" suite needs homomorphisms; inside
"all" it falls back to the identity and the principal embedding into the
ideal carrier, while an explicit cep request without a hom is an error.

A law case that raises is recorded as a failure with the exception in the
note.  Broken multiplication tables routinely crash theorem code mid-way;
turning that into a detection keeps the mutation coverage honest.

Reports are deterministic byte-for-byte: fixed iteration order, seeded
sampling (env QK_SEED overrides), and no timestamps unless asked.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache, partial, reduce
from operator import and_, attrgetter, itemgetter, or_
from typing import Callable, Iterable, NamedTuple

from .core import (
    AxiomReport,
    FiniteQuantale,
    QuantaleHom,
    _lower_covers,
    bits,
    check_axioms,
    is_unit,
    power,
    power_of_join,
)
from .errors import HomRequired
from .records import Records
from . import classify as cl
from . import decompose as dc
from . import ideals as il

DEFAULT_SEED = 1105
SAMPLE_COUNT = 10_000
EXHAUST_MAX_N = 8
CROSS_ORACLE_MAX_N = 12
# the largest group whose nonempty subfamilies are all checked: 2^12 - 1 cases
_SUBFAMILY_EXHAUST_MAX = 12

# The suites in report order; _suite_<s> builds the table of suite s (the
# rows of axioms), which run_suite runs.  run_suite looks the function up by
# name when it runs, so a wrapper later bound to the module attribute (a
# tracing profiler, say) sees the call.
SUITE_ORDER = (
    "axioms",
    "lemma_bip",
    "proposition_bpi",
    "annihilator",
    "cep",
    "lpsp",
    "avoidance",
    "radical_lemma",
    "spkr",
    "saturation",
    "primary",
    "pqx",
    "uniqueness",
    "irreducible",
    "arithmetic",
    "collapse",
)


@dataclass(frozen=True)
class LawResult:
    suite: str
    law: str
    status: str  # "pass" | "fail" | "skipped"
    checked: int
    witness: tuple[str, ...] | None = None
    note: str = ""


@dataclass
class VerificationReport:
    instance: str
    suite: str
    seed: int
    results: tuple[LawResult, ...]
    elapsed: dict

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == "fail")

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.results if r.status == "skipped")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self) -> list[LawResult]:
        return [r for r in self.results if r.status == "fail"]

    def format(self, fmt: str = "records", timing: bool = False) -> str:
        """The header record, then one record per law; in the table style,
        the header record then the aligned law table."""
        out = Records()
        out.put("instance", self.instance)
        out.put("suite", self.suite)
        out.put("seed", self.seed)
        out.put("laws", len(self.results))
        out.put("passed", self.passed)
        out.put("failed", self.failed)
        out.put("skipped", self.skipped)
        if timing:
            for s, dt in self.elapsed.items():
                out.put(f"elapsed.{s}", f"{dt:.3f}")
        if fmt == "table":
            return out.render() + "\n" + self._law_table()
        for r in self.results:
            out.sep()
            out.put("law", f"{r.suite}.{r.law}")
            out.put("status", r.status)
            out.put("checked", r.checked)
            if r.witness is not None:
                out.put("witness", r.witness)
            if r.note:
                out.put("note", r.note)
        return out.render()

    def _law_table(self) -> str:
        out = Records()
        out.put("law", f"{'status':<9}{'checked':<9}detail")
        for r in self.results:
            detail = " ".join(r.witness) if r.witness else r.note
            out.put(f"{r.suite}.{r.law}", f"{r.status:<9}{r.checked:<9}{detail}".rstrip())
        return out.render("table")


# --- domains and the law runner ----------------------------------------


class _Axis(NamedTuple):
    """One quantified variable: a thunk giving its values, how a value
    prints in a witness, the note a sampled axis adds to its laws, and the
    count of its values where it is known without making them."""

    values: Callable[[], Iterable]
    label: Callable[[object], str]
    note: str = ""
    size: int | None = None


class _Domain(NamedTuple):
    """What a law ranges over: a thunk yielding the cases (argument tuples
    of the predicate), the witness of a case, and the domain's note (a
    string, or a thunk read after the cases ran).

    decide(holds), where the cases can be decided at once, is the count of
    the cases where holds is not None if every such case holds, else None.
    Only avoidance's masks, the five family laws (_Ctx.family_law),
    p_primary_meet_closed's subfamilies (_Ctx.subfamilies), the six
    proposition_bpi laws over triples of ideals passed by transport
    (_Ctx.transported: product_assoc, product_meet_below, product_join_mix,
    coprime_product, coprime_meet and residual_iterated), the four
    monotonicity laws decided along covers (_monotone:
    annihilator.antitone's exhaustive pairs, generated_meet_lower's pairs
    up to 10 elements, mul_monotone and mul_monotone_pairs) and the mask
    laws passed by mask transport where no cover decides them
    (_Ctx.mask_transported: the four annihilator laws and
    generated_meet_lower) have one: elsewhere a repeated case costs less
    than a decide, as its library calls are the run's memos.  A thunk note
    reads state that cases() fills, so a decide on such a domain fills it
    too (subfamilies' group sizes)."""

    cases: Callable[[], Iterable[tuple]]
    witness: Callable[..., tuple]
    note: str | Callable[[], str] = ""
    decide: Callable[[Callable], int | None] | None = None


def _over(*axes: _Axis) -> _Domain:
    """The product of some axes, last axis fastest; nothing is built before
    the law runs, and only the axes' value lists are ever held."""
    witness = lambda *case: tuple(a.label(v) for a, v in zip(axes, case))
    note = "; ".join(a.note for a in axes if a.note)
    return _Domain(lambda: itertools.product(*(a.values() for a in axes)), witness, note)


def _monotone(flat: _Domain, covers: Callable[[], Iterable[tuple] | None], count: int) -> _Domain:
    """flat, decided along covers: it passes with count, flat's case
    count, if holds is exactly True on each case of covers(), cases of
    flat; else, or where covers() is None, it runs case by case.

    Sound only for a law that compares f(s) with f(t), for s <= t in a
    finite partial order, by a reflexive and transitive relation R:
    annihilator.antitone (ann(t) <= ann(s)) and generated_meet_lower on the
    nonempty masks under inclusion, and lemma_bip.mul_monotone and
    mul_monotone_pairs on the carrier's order where q._order_fault is None.
    The covers c < d (d covers c) generate such an order: s <= t iff s = t
    or s = c0 < c1 < ... < ck = t, each c(i+1) covering c(i) (Davey and
    Priestley, Introduction to Lattices and Order, 2002, ch. 1).  By
    induction on k, R holding on every cover gives f(s) R f(t) through the
    chain, by transitivity, and s = t holds by reflexivity.  The cases read:

      (t & ~b, t)              for each nonempty mask t and bit b of t with
                               t & ~b nonempty: the covers of the nonempty
                               masks.  For generated_meet_lower the case
                               (s, t), s inside t, reads gen(s) inside gen(s)
                               & gen(t), so gen is monotone, and for any
                               overlapping s, t, gen(s & t) lies in gen(s)
                               and in gen(t)
      ((c, d), z)              mul_monotone: c & z <= d & z
      ((c, d), (z, z)) and     mul_monotone_pairs: x & u <= y & u <= y & v
      ((w, w), (c, d))         for x <= y and u <= v, through the left
                               chain from x to y, then the right one from u
                               to v

    From n = 2 on, every nonempty mask is an end of a cover, so f is
    evaluated on each, and a crash in it makes decide raise and _run meet it
    again in the flat loop; the mask laws are decided only where the
    n 2^(n-1) covers are fewer than count, which leaves out n = 1.  On the
    carrier f reads q.mul, whose entries are elements, so leq is reflexive
    on them."""

    def decide(holds):
        found = covers()
        if found is None or not all(holds(*case) is True for case in found):
            return None
        return count

    return flat._replace(decide=decide)


class _Law(NamedTuple):
    """A row of a suite's table.

    holds(*case) is true or false, or None where the case lies outside the
    law's hypothesis and is not counted.  note is a string, put after the
    domain's note; witness(*case) replaces the domain's witness.  A law
    without a domain is skipped, with note as the reason.
    """

    name: str
    domain: _Domain | None
    holds: Callable[..., bool | None] | None = None
    note: str = ""
    witness: Callable[..., tuple] | None = None


def _run(law: _Law) -> tuple[str, int, tuple[str, ...] | None, str]:
    """Status, case count, witness and error of a law with a domain: its
    cases counted up to the first failure, a crash a failure.

    A domain's decide, where it has one, is called once, and a count passes
    the law with that count.  Where it gives None or raises, the cases run
    one by one from the first, which gives the count of the cases before
    the first failure and its witness: the result is always the one the
    flat loop over cases() gives."""
    holds, domain = law.holds, law.domain
    if domain.decide is not None:
        try:
            count = domain.decide(holds)
        except Exception:  # the flat loop meets the crash again
            count = None
        if count is not None:
            return "pass", count, None, ""
    checked = 0
    try:
        for case in domain.cases():
            ok = holds(*case)
            if ok is None:
                continue
            if not ok:  # the witness is built before the case counts, as a crash is
                wit = (law.witness or domain.witness)(*case)
                return "fail", checked + 1, tuple(str(w) for w in wit), ""
            checked += 1
    except Exception as exc:  # a crash on this instance is a finding
        return "fail", checked, (), f"error: {type(exc).__name__}: {exc}"
    return "pass", checked, None, ""


def _check(suite: str, laws: list[_Law]) -> list[LawResult]:
    """Run a suite's table, one law at a time (see _run).  A row's note
    joins the domain's note, the law's and the error, in that order."""
    rows = []
    for law in laws:
        if law.domain is None:
            rows.append(LawResult(suite, law.name, "skipped", 0, None, law.note))
            continue
        status, checked, witness, error = _run(law)
        domain_note = law.domain.note() if callable(law.domain.note) else law.domain.note
        note = "; ".join(p for p in (domain_note, law.note, error) if p)
        rows.append(LawResult(suite, law.name, status, checked, witness, note))
    return rows


_name = attrgetter("name")


class _Family(NamedTuple):
    """A drawn family of ideals: its members, their join and their meet;
    it prints as its size."""

    members: list[il.Ideal]
    join: il.Ideal
    meet: il.Ideal

    def __str__(self) -> str:
        return str(len(self.members))


def _pick(q: FiniteQuantale, items: list[il.Ideal], pick: int) -> _Family:
    """The subfamily of items at the bits of pick, folded once by join_all
    and meet_all: the one place a drawn family is joined and met."""
    members = list(map(items.__getitem__, bits(pick)))
    return _Family(members, il.join_all(q, members), il.meet_all(q, members))


def _draws(rng: random.Random, width: int) -> Iterable[int]:
    """The endless stream of masks of width bits drawn from rng."""
    return iter(partial(rng.getrandbits, width), None)


@cache
def _subset_covers(n: int) -> tuple[tuple[int, int], ...]:
    """(t & ~b, t) for each nonempty mask t of n bits and each bit b of t
    with t & ~b nonempty: the covers of the nonempty masks under
    inclusion, n 2^(n-1) - n of them.  Kept for the process: built only
    where the mask laws decide along covers, n <= 10."""
    return tuple((s, t) for t in range(1, 1 << n) for b in bits(t) if (s := t & ~(1 << b)))


def _nonempty_draws(rng: random.Random, width: int, count: int) -> list[int]:
    """The first count nonzero masks of width bits drawn from rng."""
    return list(itertools.islice(filter(None, _draws(rng, width)), count))


def _overlapping(pairs: Iterable[tuple[int, int]]) -> Iterable[tuple[int, int]]:
    """The pairs of masks s, t with s & t nonzero, in order."""
    pairs, tested = itertools.tee(pairs)
    return itertools.compress(pairs, itertools.starmap(and_, tested))


class _Routes(NamedTuple):
    """The library calls the suites read by name through _Ctx.routes."""

    gen: Callable[[int], il.Ideal]
    ann: Callable[[int], il.Ideal]
    res: Callable[[il.Ideal, il.Ideal], il.Ideal]
    ext: Callable[[QuantaleHom, il.Ideal], il.Ideal]
    con: Callable[[QuantaleHom, il.Ideal], il.Ideal]
    rad: Callable[[il.Ideal], il.Ideal]
    is_ideal: Callable[[FiniteQuantale, int], bool]
    ann_of: Callable[[il.Ideal], il.Ideal]


class _Ctx:
    """Per-instance precomputations, and the axes the suites quantify over.

    Exhausted or sampled is decided here and nowhere else.  Elements,
    ideals, proper ideals, primes, primaries and homs are always exhausted.
    A sampled domain draws from Random(f"{seed}:{tag}"), one tag per law,
    and its laws say "sampled" in their note.

    Sampled values repeat where there are fewer of them than draws (subsets
    at n <= 13, families of 9 ideals); a law over them that no decide passes
    runs case by case and reaches the memos in routes.  Of these domains
    family_law has a decide; the pairs of masks are decided along the
    covers of the nonempty masks (_monotone) where they are fewer than the
    pairs, subset_pairs up to EXHAUST_MAX_N elements and overlapping_pairs
    up to 10; and the laws over subsets and pairs of masks that no cover
    decides pass by mask transport (mask_transported) up to n = 13.  Every
    sampled stream of masks is drawn by _draws, a C iterator over
    rng.getrandbits.

      subsets            all nonempty subsets up to EXHAUST_MAX_N (8)
                         elements, else SAMPLE_COUNT (10^4) nonempty draws
      subset_pairs       pairs s <= t: up to EXHAUST_MAX_N elements, for
                         each nonempty t, (m & t, t) for every m in 1..t
                         with m & t nonempty, so a pair repeats once per m
                         giving it (95 cases for 65 pairs at n=4, 29,615
                         for 6,305 at n=8); else t from subsets and one
                         draw of m (tag + ".sub") per t
      overlapping_pairs  pairs s, t with s & t nonempty: all of them where
                         they are at most SAMPLE_COUNT (n <= 6: 3,367 at
                         n=6, 14,197 at n=7), else SAMPLE_COUNT drawn pairs
      covers             the covers (c, d) of the carrier's order, from
                         core._lower_covers, where q._order_fault is None:
                         mul_monotone and mul_monotone_pairs, over the
                         comparable pairs, are decided along them
                         (_monotone), E n cases and 2 E n for E covers
      families           all families of ideals, the empty one included, up
                         to EXHAUST_MAX_N ideals, else SAMPLE_COUNT // 10
                         (10^3) draws, each a _Family with its members,
                         join and meet, folded by join_all and meet_all;
                         the family laws (family_law) are passed by
                         transport for the three of proposition_bpi, else
                         decided from the run's small_families, the empty
                         family and those of one or two ideals, where they
                         are fewer
      subfamilies        (key, f) for each group (key, items) a law supplies
                         and each nonempty subfamily f of items, a _Family
                         folded as the families are: all of them
                         for groups of up to _SUBFAMILY_EXHAUST_MAX (12)
                         members, else SAMPLE_COUNT // 10 (10^3) nonempty
                         draws for each larger group; decided from the one-
                         and two-member subfamilies of the groups, under
                         lattice_ok, where they are fewer
      mcsets             all mc sets up to EXHAUST_MAX_N elements, else the
                         sets generated by one element, plus {top} (note
                         "mc sets limited to generated ones")
      routes             library calls memoized for the run, shared by
                         every suite: gen(m), ann(m) (ideals.generated,
                         annihilator of q at a mask; at most q.full
                         entries, every one where mask_transport is
                         checked) where subsets repeat, else the plain
                         calls; at every size res(i, j) (ideals.residual;
                         n^2 pairs of ideals), ext(h, i), con(h, j)
                         (ideals.extension, contraction; n per hom),
                         rad(i) (classify.radical; n), is_ideal(q, m)
                         (ideals.is_ideal; one per carrier and mask
                         tested) and ann_of(i) (ann(i.members) for an
                         ideal i; n)

    routes, homs where run_suite names none, the check_axioms report of q
    (axioms: the axioms suite's rows, and the lattice_ok gate of family_law
    and subfamilies), the transport gate (transport: the laws that
    transported decides), the mask transport gate (mask_transport: the laws
    that mask_transported decides) and the ideal carrier with its
    check_axioms verdict are built once per run, on first use.
    """

    def __init__(self, q: FiniteQuantale, seed: int, homs: list[QuantaleHom] | None = None):
        self.q = q
        self.seed = seed
        if homs is not None:  # else the cached default below
            self.homs = homs
        self.exhaustive = q.n <= EXHAUST_MAX_N

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}:{tag}")

    @cached_property
    def ideals(self) -> list[il.Ideal]:
        return il.enumerate_ideals(self.q)

    @cached_property
    def axioms(self) -> AxiomReport:
        return check_axioms(self.q)

    @cached_property
    def transport(self) -> bool:
        """Whether the ideal operations are the element tables carried over
        by the principal map x -> q.principals[x]: check_axioms passes,
        q.residuals exists, the ideals are the principal ideals in element
        order, and for every pair of ideals (a, b) = (↓x, ↓y) the library's
        product_ideals, join_ideals and meet_ideals and routes.res give ↓ of
        mul[x][y], join[x][y], meet[x][y] and residuals[y][x].  These are
        the calls the laws make, so a fast path that drifts from its table
        turns the gate off: 4 n^2 calls, once per run."""
        q, ideals = self.q, self.ideals
        if not self.axioms.ok or q.residuals is None or ideals != list(q.principals):
            return False
        image = lambda row: list(map(q.principals.__getitem__, row))
        prod, join, meet, res = il.product_ideals, il.join_ideals, il.meet_ideals, self.routes.res
        columns = list(zip(*q.residuals))  # columns[x][y] = residuals[y][x]
        for x, a in enumerate(ideals):
            rows = (prod, q.mul[x]), (join, q.join[x]), (meet, q.meet[x]), (res, columns[x])
            if any(list(map(op, itertools.repeat(a), ideals)) != image(row) for op, row in rows):
                return False
        return True

    @cached_property
    def mask_transport(self) -> bool:
        """Whether generated and annihilator are the element tables carried
        over too: transport holds, routes memoizes gen and ann (q.full <
        SAMPLE_COUNT, so n <= 13), and for every nonempty mask m, routes.gen(m)
        is ↓J(m) and routes.ann(m) is ↓residuals[J(m)][bottom], J(m) the join
        of m's elements (J(m | 2^b) = join[b][J(m)] for m below 2^b).  These
        are the calls the subset laws make: 2 (2^n - 1) calls, once per run,
        which the memos keep for a law that runs case by case."""
        q = self.q
        if q.full >= SAMPLE_COUNT or not self.transport:
            return False
        joins = [q.bottom]
        for b in range(q.n):
            joins += list(map(q.join[b].__getitem__, joins))
        ideal, zero = q.principals.__getitem__, [row[q.bottom] for row in q.residuals]
        masks, joins = range(1, q.full + 1), joins[1:]
        if list(map(self.routes.gen, masks)) != list(map(ideal, joins)):
            return False
        return list(map(self.routes.ann, masks)) == [ideal(zero[j]) for j in joins]

    @cached_property
    def proper(self) -> list[il.Ideal]:
        return [i for i in self.ideals if i.proper]

    @cached_property
    def primes(self) -> list[il.Ideal]:
        return cl.spectrum(self.q)

    @cached_property
    def primaries(self) -> list[il.Ideal]:
        return [i for i in self.ideals if cl.is_primary(i)]

    @cached_property
    def homs(self) -> list[QuantaleHom]:
        """Identity plus the principal embedding into the ideal carrier; an
        embedding that cannot be built fails the laws that read homs."""
        return [QuantaleHom.identity(self.q), self.ideal_carrier.hom_from_base()]

    @cached_property
    def ideal_carrier(self) -> il.IdealQuantale:
        """ideals.ideal_quantale(q); a build that raises is not stored."""
        return il.ideal_quantale(self.q)

    @cached_property
    def ideal_carrier_lawful(self) -> bool:
        return check_axioms(self.ideal_carrier.quantale).ok

    @cached_property
    def mcsets(self) -> list[cl.McSet]:
        if self.exhaustive:
            return cl.all_mc_sets(self.q)
        out = {cl.mc_generated(self.q, x).members for x in range(self.q.n)}
        out.add(1 << self.q.top)
        return [cl.McSet(self.q, m) for m in sorted(out)]

    def axis(self, name: str) -> _Axis:
        """elements, or one of the lists above."""
        q = self.q
        if name == "elements":
            return _Axis(lambda: range(q.n), q.elements.__getitem__)
        if name == "mcsets":
            note = "" if self.exhaustive else "mc sets limited to generated ones"
            return _Axis(lambda: self.mcsets, lambda s: q.labels(s.members), note)
        return _Axis(lambda: getattr(self, name), _name)

    @property
    def once(self) -> _Domain:
        """A single case, for a law about the carrier as a whole."""
        return _Domain(lambda: [()], lambda: (self.q.name,))

    def subsets(self, tag: str) -> _Axis:
        if self.exhaustive:
            return _Axis(lambda: range(1, self.q.full + 1), self.q.labels)
        draws = lambda: _nonempty_draws(self.rng(tag), self.q.n, SAMPLE_COUNT)
        return _Axis(draws, self.q.labels, "sampled")

    @cached_property
    def routes(self) -> _Routes:
        """One set of routes per run, shared by every suite; a memo holds the
        library's own result, and a call that raises is not stored."""
        q, memo = self.q, lru_cache(None)
        gen, ann = partial(il.generated, q), partial(il.annihilator, q)
        if q.full < SAMPLE_COUNT:  # fewer subsets than draws: n <= 13
            gen, ann = memo(gen), memo(ann)
        calls = il.residual, il.extension, il.contraction, cl.radical, il.is_ideal
        res, ext, con, rad, is_ideal = map(memo, calls)
        return _Routes(gen, ann, res, ext, con, rad, is_ideal, ann_of=memo(lambda i: ann(i.members)))

    def _pair_witness(self, s: int, t: int) -> tuple[str, ...]:
        return self.q.labels(s), "/", self.q.labels(t)

    def _along_masks(self, flat: _Domain, count: int) -> _Domain:
        """flat, of count cases, decided along the covers of the nonempty
        masks (_monotone) where they are fewer: n <= 10 at most."""
        n = self.q.n
        if (n << n) // 2 >= count:
            return flat
        return _monotone(flat, partial(_subset_covers, n), count)

    @cached_property
    def covers(self) -> list[tuple[int, int]] | None:
        """The covers (c, d) of the carrier's order, d covering c, from
        core._lower_covers; None unless down is a partial order."""
        if self.q._order_fault is not None:
            return None
        return [(c, d) for d, below in enumerate(_lower_covers(self.q.down)) for c in below]

    def subset_pairs(self, tag: str) -> _Domain:
        n, ts = self.q.n, self.subsets(tag)
        if self.exhaustive:
            masks = lambda t: filter(None, map(t.__and__, range(1, t + 1)))
            pairs = lambda t: zip(masks(t), itertools.repeat(t))
            cases = lambda: itertools.chain.from_iterable(map(pairs, ts.values()))
            # the m in 0..t with m & t == 0 are the masks below t's top bit
            # that miss its other bits: 2^(bit_length - bit_count) of them
            count = sum(t + 1 - (1 << t.bit_length() - t.bit_count()) for t in range(1, 1 << n))
            return self._along_masks(_Domain(cases, self._pair_witness), count)

        def cases():
            t = ts.values()
            m = _draws(self.rng(tag + ".sub"), n)
            return filter(itemgetter(0), zip(map(and_, m, t), t))

        return _Domain(cases, self._pair_witness, ts.note)

    def overlapping_pairs(self, tag: str) -> _Domain:
        n = self.q.n

        def draws():
            drawn = _draws(self.rng(tag), n)
            return itertools.islice(_overlapping(zip(drawn, drawn)), SAMPLE_COUNT)

        # the pairs of nonempty masks but the disjoint ones: 3^n pairs of
        # disjoint masks, 2^(n+1) - 1 of them with an empty side
        count = (2**n - 1) ** 2 - 3**n + 2 ** (n + 1) - 1
        if count <= SAMPLE_COUNT:
            masks = range(1, self.q.full + 1)
            pairs = lambda: _overlapping(itertools.product(masks, masks))
            return self._along_masks(_Domain(pairs, self._pair_witness), count)
        return self._along_masks(_Domain(draws, self._pair_witness, "sampled"), SAMPLE_COUNT)

    def families(self, tag: str) -> _Axis:
        k = len(self.ideals)
        fold = lambda picks: list(map(partial(_pick, self.q, self.ideals), picks))
        if k <= EXHAUST_MAX_N:
            return _Axis(lambda: fold(range(1 << k)), str, size=1 << k)
        draws = lambda: fold(itertools.islice(_draws(self.rng(tag), k), SAMPLE_COUNT // 10))
        return _Axis(draws, str, "sampled", SAMPLE_COUNT // 10)

    @cached_property
    def small_families(self) -> list[_Family]:
        """The empty family and those of one or two ideals, folded once for
        the run: k(k+1)/2 + 1 of them for k ideals."""
        k = len(self.ideals)
        picks = (1 << i | 1 << j for i in range(k) for j in range(i, k))
        return [_pick(self.q, self.ideals, p) for p in itertools.chain((0,), picks)]

    def transported(self, flat: _Domain, count: Callable[[], int]) -> _Domain:
        """flat, passed with count(), flat's case count, where the run's
        transport holds; else it runs case by case.
        family_law(transported=True) reads the same gate.

        Sound only for a law over ideals whose element form is a theorem of
        the axioms check_axioms decides.  Under transport, x -> ↓x is a
        bijection from the elements onto the ideals that takes mul, join,
        meet and residuals to product_ideals, join_ideals, meet_ideals and
        routes.res, and since down is a partial order with top, ↓x <= ↓y iff
        x <= y, ↓x == ↓y iff x == y, and ↓x is whole iff x is top.  So the
        law holds on every case iff its element form does, in an integral
        commutative quantale, & for mul and (a : b) = b -> a, the greatest z
        with b & z <= a (Rosenthal, Quantales and their Applications, 1990;
        Galatos, Jipsen, Kowalski and Ono, Residuated Lattices, 2007):

          product_assoc         (a & b) & c = a & (b & c): associativity
          product_meet_below    a & (b ∧ c) <= (a & b) ∧ (a & c): & keeps
                                binary joins, so it is monotone, and b ∧ c
                                lies below b and c
          product_join_mix      (a ∨ c) & (b ∨ c) = (a & b) ∨ (a & c) ∨
                                (c & b) ∨ (c & c) <= (a & b) ∨ c, as x & c
                                <= top & c = c (top is the unit)
          coprime_product       a ∨ c = b ∨ c = top gives top = top & top =
                                (a ∨ c) & (b ∨ c) <= (a & b) ∨ c
          coprime_meet          a ∨ c = top gives b = b & (a ∨ c) = (b & a)
                                ∨ (b & c) <= (a ∧ b) ∨ c, so b ∨ c <= (a ∧
                                b) ∨ c <= b ∨ c
          residual_iterated     z <= c -> (b -> a) iff c & z <= b -> a iff
                                b & (c & z) <= a iff (b & c) & z <= a iff
                                z <= (b & c) -> a; b and c commute
          product_join_distrib  a & (f1 ∨ ... ∨ fk) = (a & f1) ∨ ... ∨ (a &
                                fk), by induction from the binary join, and
                                a & bottom = bottom for the empty family
          residual_meet_family  b -> (f1 ∧ ... ∧ fk) = (b -> f1) ∧ ... ∧ (b
                                -> fk): b -> (-) is right adjoint to b & (-)
                                and keeps every meet, b -> top = top the
                                empty one
          residual_join_family  z <= fi -> a for each i iff fi & z <= a for
                                each i iff (f1 ∨ ... ∨ fk) & z <= a iff z
                                <= (f1 ∨ ... ∨ fk) -> a, so the meet of the
                                fi -> a lies below

        A family's join and meet are join_all and meet_all: under lattice_ok
        the join is the lub of the apexes, and the meet, an AND of down-sets,
        is ↓ of the meet of the apexes by transport's binary meets.  The
        counts are the flat loop's: k^3 on k ideals for the cube laws,
        sum_c k_c^2 and k sum_c k_c for coprime_product and coprime_meet,
        k_c = #{a : a ∨ c = top}, and F.size times the other axis for the
        family laws."""
        return flat._replace(decide=lambda holds: count() if self.transport else None)

    def mask_transported(self, flat: _Domain) -> _Domain:
        """flat, passed with its case count where the run's mask_transport
        holds; else it runs case by case.  A domain that already has a decide
        (the covers of _along_masks) keeps it.

        Sound only for a law over nonempty masks, never outside its
        hypothesis, whose element form is a theorem of the axioms: a drawn or
        listed mask, m & t where it is nonempty, and the members of an ideal
        (ann_of) are nonempty masks.  Under transport and mask_transport,
        gen(s) = ↓J(s) and ann(s) = ↓¬J(s), J(s) the join of s and ¬a = a ->
        bottom, the greatest z with a & z = bottom; ann_of(↓a) = ↓¬a, as the
        members of ↓a join to a; and s lies inside ↓a iff J(s) <= a.  So the
        law holds on every case iff its element form does (see transported):

          antitone                    s inside t gives J(s) <= J(t), so
                                      J(s) & ¬J(t) <= J(t) & ¬J(t) = bottom
                                      and ¬J(t) <= ¬J(s)
          double_contains             J(s) & ¬J(s) = bottom gives J(s) <= ¬¬J(s)
          triple_stable               ¬a <= ¬¬¬a by the line above at ¬a, and
                                      a <= ¬¬a gives ¬¬¬a <= ¬a by antitone
          matches_residual_into_zero  res(↓bottom, ↓J(s)) = ↓residuals[J(s)]
                                      [bottom], the gate's own ann(s)
          generated_meet_lower        s & t inside s and t gives J(s & t) <=
                                      J(s) ∧ J(t)

        The count is the flat loop's, its cases counted without a law call."""
        if flat.decide is not None:
            return flat
        decide = lambda holds: sum(1 for _ in flat.cases()) if self.mask_transport else None
        return flat._replace(decide=decide)

    def family_law(
        self, tag: str, before: _Axis | None = None, after: _Axis | None = None,
        transported: bool = False,
    ) -> _Domain:
        """_over(before, F, after), F the families axis of tag and an absent
        axis left out.  Where transported and the run's transport holds, it
        passes at once (see transported); else where the run has lattice_ok
        and small_families are fewer than F's values, it passes if the law
        holds with F's values replaced by small_families; else it runs case
        by case.

        Sound only for a law that a map of ideals takes a family's join
        (meet) to the join (meet) of its images, or below or above it.  Under
        lattice_ok the join or meet of listed ideals is a listed principal
        ideal, and join_all and meet_all give the lub or glb in any order.  By
        induction on a family F of three or more, i in F, G the rest and j
        the listed join (meet) of G: F's join (meet) is that of {j, i}, a
        small family, and G's images fold to j's image (or below or above
        it, ideal join and mask AND being monotone), so F's images fold as
        those of {j, i}, where the law holds (Davey and Priestley,
        Introduction to Lattices and Order, 2002, ch. 2 and 7)."""
        F = self.families(tag)
        axes = [a for a in (before, F, after) if a is not None]
        small = F._replace(values=lambda: self.small_families)

        def decide(holds):
            count = F.size * math.prod(len(a.values()) for a in axes if a is not F)
            if transported and self.transport:
                return count
            k = len(self.ideals)  # small_families' count, without building them
            if not self.axioms.lattice_ok or k * (k + 1) // 2 + 1 >= F.size:
                return None
            cases = _over(*(small if a is F else a for a in axes)).cases()
            return count if all(itertools.starmap(holds, cases)) else None

        return _over(*axes)._replace(decide=decide)

    def subfamilies(self, tag: str, groups: Callable[[], Iterable[tuple]]) -> _Domain:
        """groups() yields (key, items) pairs; a witness is the key's name
        and the subfamily's size.  Where the run has lattice_ok and the one-
        and two-member subfamilies are fewer than the cases, it passes if the
        law holds on each of them; else it runs case by case.  The decide
        and the cases fill the same group sizes, which the note reads.

        Sound only for a law that reads a subfamily's meet alone, over
        groups that each list every ideal c where the law holds on {c}:
        primary.p_primary_meet_closed, whose group of p lists every primary
        ideal with radical p.  Under lattice_ok the meet of two listed ideals
        is a listed principal ideal.  By induction on a subfamily F of three
        or more, i in F and g the meet of the rest: the law holds on the rest,
        so on {g}, and g is in the group; F's meet is that of {g, i}, where
        it holds."""
        sizes = []  # of the groups, set when the cases or the decide start

        def found():
            out = list(groups())
            sizes[:] = [len(items) for _, items in out]
            return out

        def cases():
            rng = self.rng(tag)
            for (key, items), k in zip(found(), sizes):
                if k <= _SUBFAMILY_EXHAUST_MAX:
                    picks = range(1, 1 << k)
                else:
                    picks = _nonempty_draws(rng, k, SAMPLE_COUNT // 10)
                yield from ((key, _pick(self.q, items, pick)) for pick in picks)

        def decide(holds):
            if not self.axioms.lattice_ok:
                return None
            pairs = [(key, items, 1 << i | 1 << j) for key, items in found()
                     for j in range(len(items)) for i in range(j + 1)]
            count = sum((1 << k) - 1 if k <= _SUBFAMILY_EXHAUST_MAX else SAMPLE_COUNT // 10
                        for k in sizes)
            if len(pairs) >= count:
                return None
            small = ((key, _pick(self.q, items, pick)) for key, items, pick in pairs)
            return count if all(itertools.starmap(holds, small)) else None

        note = lambda: "sampled" if max(sizes, default=0) > _SUBFAMILY_EXHAUST_MAX else ""
        return _Domain(cases, lambda key, f: (key.name, f), note, decide)


# --- suites -----------------------------------------------------------


def _suite_axioms(ctx: _Ctx) -> list[LawResult]:
    """The check_axioms report, one row per law.  assoc and distrib count
    n^3 cases, the instances the verdict covers, not the rows compared."""
    q = ctx.q
    n = q.n
    ce = dict(ctx.axioms.counterexamples)
    rows = []
    for law, tags, checked in (
        ("partial_order", ("partial_order",), n * n),
        ("bounds", ("bounds",), 2),
        ("lub_glb", ("lub", "glb"), 2 * n * n),
        ("assoc", ("assoc",), n**3),
        ("comm", ("comm",), n * (n - 1) // 2),
        ("distrib", ("distrib",), n**3),
        ("bot_absorb", ("bot_absorb",), n),
        ("identity", ("identity",), n),
    ):
        bad = next((t for t in tags if t in ce), None)
        if bad is None:
            rows.append(LawResult("axioms", law, "pass", checked))
        else:
            wit = tuple(q.elements[i] for i in ce[bad])
            rows.append(LawResult("axioms", law, "fail", checked, wit, bad))
    return rows


def _suite_lemma_bip(ctx: _Ctx) -> list[_Law]:
    q, E = ctx.q, ctx.axis("elements")
    leq, mul, el = q.leq, q.mul, q.elements
    exponents = _Axis(lambda: range(1, 5), str)
    # the hypotheses x <= y and u <= v as an axis: the comparable pairs, x
    # then y ascending, so the cases run in the order of the element tuples
    # and are exactly those where the hypotheses hold
    below = [(x, y) for x in range(q.n) for y in range(q.n) if leq(x, y)]
    B = _Axis(lambda: below, str)
    labels = lambda *xs: tuple(el[x] for x in xs)

    def along_covers(*cases):
        """each case(cover, z) for every cover of the order and element z,
        the cases _monotone decides by, or None where down is no partial
        order"""
        covers = ctx.covers
        if covers is None:
            return None
        return (case(p, z) for case in cases for p in covers for z in range(q.n))

    monotone = _monotone(_over(B, E), partial(along_covers, lambda p, z: (p, z)), len(below) * q.n)
    left, right = (lambda p, z: (p, (z, z))), (lambda p, z: ((z, z), p))
    pairs = _monotone(_over(B, B), partial(along_covers, left, right), len(below) ** 2)
    return [
        _Law("mul_below_meet", _over(E, E), lambda x, y: leq(mul[x][y], q.meet[x][y])),
        _Law("bot_annihilates", _over(E), lambda x: mul[x][q.bottom] == q.bottom),
        _Law("mul_monotone", monotone, lambda p, z: leq(mul[p[0]][z], mul[p[1]][z]),
             witness=lambda p, z: labels(*p, z)),
        _Law("mul_monotone_pairs", pairs,
             lambda p, r: leq(mul[p[0]][r[0]], mul[p[1]][r[1]]),
             witness=lambda p, r: labels(*p, *r)),
        _Law("binomial_power", _over(E, E, exponents),
             lambda x, y, k: power_of_join(q, x, y, k) == power(q, q.join[x][y], k)),
    ]


def _suite_proposition_bpi(ctx: _Ctx) -> list[_Law]:
    q, I = ctx.q, ctx.axis("ideals")
    F = partial(ctx.family_law, transported=True)
    I2, I3 = _over(I, I), _over(I, I, I)
    cube = ctx.transported(I3, lambda: len(ctx.ideals) ** 3)
    whole, zero = il.whole_ideal(q), il.zero_ideal(q)
    prod, meet, join = il.product_ideals, il.meet_ideals, il.join_ideals
    routes = ctx.routes
    gen, res, is_ideal = routes.gen, routes.res, routes.is_ideal
    join_all, meet_all = partial(il.join_all, q), partial(il.meet_all, q)
    overlapping = ctx.mask_transported(ctx.overlapping_pairs("bpi.generated_meet_lower"))

    def coprime_product(a, b, c):
        if not (join(a, c).is_whole and join(b, c).is_whole):
            return None
        return join(prod(a, b), c).is_whole

    def residual_iterated(a, b, c):
        return res(res(a, b), c) == res(a, prod(b, c)) and res(res(a, b), c) == res(res(a, c), b)

    @cache
    def coprimes():
        """k_c = #{a : a ∨ c = top} for each ideal c, through join_ideals"""
        return [sum(join(a, c).is_whole for a in ctx.ideals) for c in ctx.ideals]

    return [
        _Law("ideal_ops_closed", I2,
             lambda a, b: all(is_ideal(q, op(a, b).members) for op in (prod, meet, join, res))),
        _Law("product_assoc", cube, lambda a, b, c: prod(prod(a, b), c) == prod(a, prod(b, c))),
        _Law("product_comm", I2, lambda a, b: prod(a, b) == prod(b, a)),
        _Law("whole_is_unit", _over(I), lambda a: prod(whole, a) == a),
        _Law("zero_annihilates", _over(I), lambda a: prod(zero, a) == zero),
        _Law("product_join_distrib", F("bpi.product_join_distrib", before=I),
             lambda a, f: prod(a, f.join) == join_all(prod(a, j) for j in f.members)),
        _Law("product_below_meet", I2, lambda a, b: prod(a, b) <= meet(a, b)),
        _Law("product_meet_below", cube,
             lambda a, b, c: prod(a, meet(b, c)) <= meet(prod(a, b), prod(a, c))),
        _Law("product_join_mix", cube,
             lambda a, b, c: prod(join(a, c), join(b, c)) <= join(prod(a, b), c)),
        _Law("coprime_product", ctx.transported(I3, lambda: sum(k * k for k in coprimes())),
             coprime_product),
        _Law("coprime_meet", ctx.transported(I3, lambda: len(ctx.ideals) * sum(coprimes())),
             lambda a, b, c: join(meet(a, b), c) == join(b, c) if join(a, c).is_whole else None),
        _Law("residual_product_below", I2, lambda a, b: prod(res(a, b), b) <= a),
        _Law("ideal_below_residual", I2, lambda a, b: a <= res(a, b)),
        _Law("residual_whole_iff", I2, lambda a, b: (b <= a) == res(a, b).is_whole),
        _Law("residual_by_whole", _over(I), lambda a: res(a, whole) == a),
        _Law("below_residual_of_product", I2, lambda a, b: a <= res(prod(a, b), b)),
        _Law("residual_meet_family", F("bpi.residual_meet_family", after=I),
             lambda f, b: res(f.meet, b) == meet_all(res(j, b) for j in f.members)),
        _Law("residual_join_family", F("bpi.residual_join_family", before=I),
             lambda a, f: meet_all(res(a, j) for j in f.members) <= res(a, f.join)),
        _Law("residual_iterated", cube, residual_iterated),
        _Law("residual_join_absorb", I2, lambda a, b: res(a, b) == res(a, join(a, b))),
        _Law("residual_meet_absorb", I2, lambda a, b: res(a, b) == res(meet(a, b), b)),
        _Law("generated_meet_lower", overlapping,
             lambda s, t: gen(s & t).members & ~(gen(s).members & gen(t).members) == 0,
             "inclusion only; the reverse fails once generators join above the overlap"),
        _Law("ideal_carrier_axioms", ctx.once, lambda: ctx.ideal_carrier_lawful),
    ]


def _suite_annihilator(ctx: _Ctx) -> list[_Law]:
    S, T, routes = ctx.subsets, ctx.mask_transported, ctx.routes
    gen, ann, res, ann_of = routes.gen, routes.ann, routes.res, routes.ann_of
    zero = il.zero_ideal(ctx.q)

    return [
        _Law("antitone", T(ctx.subset_pairs("ann.antitone")), lambda s, t: ann(t) <= ann(s)),
        _Law("double_contains", T(_over(S("ann.double"))),
             lambda s: s & ~ann_of(ann(s)).members == 0),
        _Law("triple_stable", T(_over(S("ann.triple"))), lambda s: (a := ann(s)) == ann_of(ann_of(a))),
        _Law("matches_residual_into_zero", T(_over(S("ann.residual"))),
             lambda s: ann(s) == res(zero, gen(s))),
    ]


def _suite_cep(ctx: _Ctx) -> list[_Law]:
    q, routes = ctx.q, ctx.routes
    ext, con, res, is_ideal = routes.ext, routes.con, routes.res, routes.is_ideal
    prod, meet = il.product_ideals, il.meet_ideals
    source = ctx.ideals

    def per_hom(n_source: int, n_target: int) -> _Domain:
        """h, then n_source ideals of its source and n_target of its target."""

        def cases():
            for h in ctx.homs:
                target = il.enumerate_ideals(h.target)
                for ideals in itertools.product(*[source] * n_source, *[target] * n_target):
                    yield (h, *ideals)

        return _Domain(cases, lambda h, *ideals: (h.name, *(i.name for i in ideals)))

    def images_are_ideals(h, i, j):
        return is_ideal(h.target, ext(h, i).members) and is_ideal(q, con(h, j).members)

    def bijection(h):
        target = il.enumerate_ideals(h.target)
        stable_src = [i for i in source if con(h, ext(h, i)) == i]
        stable_tgt = [j for j in target if ext(h, con(h, j)) == j]
        ok = len(stable_src) == len(stable_tgt)
        ok = ok and all(ext(h, i) in stable_tgt and con(h, ext(h, i)) == i for i in stable_src)
        return ok and all(con(h, j) in stable_src and ext(h, con(h, j)) == j for j in stable_tgt)

    each_hom = _over(_Axis(lambda: ctx.homs, _name))
    src, src2, tgt, tgt2 = per_hom(1, 0), per_hom(2, 0), per_hom(0, 1), per_hom(0, 2)
    return [
        _Law("maps_are_homs", each_hom, lambda h: h.check().ok),
        _Law("images_are_ideals", per_hom(1, 1), images_are_ideals),
        _Law("extend_contract_expands", src, lambda h, i: i <= con(h, ext(h, i))),
        _Law("contract_extend_reduces", tgt, lambda h, j: ext(h, con(h, j)) <= j),
        _Law("contraction_stable", tgt, lambda h, j: con(h, j) == con(h, ext(h, con(h, j)))),
        _Law("extension_stable", src, lambda h, i: ext(h, i) == ext(h, con(h, ext(h, i)))),
        _Law("extension_meet_below", src2,
             lambda h, a, b: ext(h, meet(a, b)) <= meet(ext(h, a), ext(h, b))),
        _Law("extension_product", src2,
             lambda h, a, b: ext(h, prod(a, b)) == prod(ext(h, a), ext(h, b))),
        _Law("extension_residual_below", src2,
             lambda h, a, b: ext(h, res(a, b)) <= res(ext(h, a), ext(h, b))),
        _Law("contraction_meet", tgt2,
             lambda h, a, b: con(h, meet(a, b)) == meet(con(h, a), con(h, b))),
        _Law("contraction_product_below", tgt2,
             lambda h, a, b: prod(con(h, a), con(h, b)) <= con(h, prod(a, b))),
        _Law("contraction_residual_below", tgt2,
             lambda h, a, b: con(h, res(a, b)) <= res(con(h, a), con(h, b))),
        _Law("restricted_bijection", each_hom, bijection),
    ]


def _suite_lpsp(ctx: _Ctx) -> list[_Law]:
    q, I, P, proper = ctx.q, ctx.axis("ideals"), ctx.axis("primes"), ctx.axis("proper")
    rad, zero = ctx.routes.rad, il.zero_ideal(q)
    meet, prod = il.meet_ideals, il.product_ideals

    def descends(p, i):
        if not i <= p:
            return None
        between = [r for r in ctx.primes if i <= r and r <= p]
        return bool([r for r in between if not any(o < r for o in between)])

    def minimal_primes(i):
        mins = cl.minimal_primes_over(i)
        if not mins:
            return False
        over = cl.primes_over(i)
        return all(not any(p2 < p for p2 in over) for p in mins)

    def local(m):
        if not all(is_unit(q, x) for x in bits(q.full & ~m.members)):
            return None
        flag, mx = cl.is_local(q)
        return flag and mx == m

    def qd_reduced():
        mins = cl.minimal_primes_over(zero) if zero.proper else []
        return cl.is_qd(q) == (rad(zero).is_zero and len(mins) == 1)

    if q.bottom == q.top:
        why = "degenerate carrier (bottom == top)"
        maximal_laws = [
            _Law(law, None, note=why)
            for law in ("maximal_exists", "proper_below_maximal", "nilradical_below_jacobson")
        ]
    else:
        maxima = cache(partial(cl.maximal_ideals, q))
        maximal_laws = [
            _Law("maximal_exists", ctx.once, lambda: bool(maxima())),
            _Law("proper_below_maximal", _over(proper), lambda i: any(i <= m for m in maxima())),
            _Law("nilradical_below_jacobson", ctx.once,
                 lambda: rad(zero) <= cl.jacobson(q)),
        ]

    return [
        _Law("prime_two_forms", _over(I), lambda i: cl.is_prime(i) == cl.is_prime_idealwise(i)),
        _Law("prime_descent", _over(P, I), descends, witness=lambda p, i: (i.name, p.name)),
        _Law("minimal_primes_nonempty", _over(proper), minimal_primes),
        _Law("semiprime_two_forms", _over(I),
             lambda i: cl.is_semiprime(i) == cl.is_semiprime_idealwise(i)),
        _Law("coprime_meet_is_product", _over(I, I),
             lambda a, b: meet(a, b) == prod(a, b) if cl.are_coprime(a, b) else None),
        _Law("prime_iff_complement_mc", _over(proper),
             lambda i: cl.is_prime(i) == cl.is_mc(q, q.full & ~i.members)),
        *maximal_laws,
        _Law("local_characterization", _over(proper), local),
        _Law("nilradical_is_prime_meet", ctx.once,
             lambda: rad(zero) == il.meet_all(q, ctx.primes)),
        _Law("qd_iff_zero_prime", ctx.once,
             lambda: cl.is_qd(q) == (zero.proper and cl.is_prime(zero))),
        _Law("qd_iff_reduced_unique_minimal", ctx.once, qd_reduced),
    ]


def _suite_avoidance(ctx: _Ctx) -> list[_Law]:
    """The lemma's core on the sampled subsets closed under join and &,
    each with every combination of one ideal, two, or two and a prime: the
    hypotheses prime_avoidance checks of its input hold by construction.
    The decide tests each distinct drawn mask for stability once and
    counts its cases for each draw of it."""
    q, masks = ctx.q, ctx.subsets("avoidance.stable")

    def cases():
        for m in masks.values():
            if cl._instability(q, m) is None:
                yield from zip(itertools.repeat(m), combos())

    @cache
    def combos():
        """each combination once, with its union; _avoiding only reads it"""
        ideals, primes = ctx.ideals, ctx.primes
        found = [[a] for a in ideals]
        found += [[a, b] for k, a in enumerate(ideals) for b in ideals[k:]]
        found += [[a, b, p] for k, a in enumerate(ideals) for b in ideals[k:] for p in primes]
        return [(ps, reduce(or_, (p.members for p in ps))) for ps in found]

    def avoids(m, combo):
        ps, union = combo
        x = cl._avoiding(m, ps)
        return None if x is None else bool(m >> x & 1) and not union >> x & 1

    def mask_count(m):
        """m's case count, 0 where m is not stable, if avoids holds on
        every combination, else None, decided from the parts c of m outside
        each ideal: _avoiding gives None where some c is 0, raises where
        their AND is 0, else a witness that avoids passes.  The k ideals and the
        primes P with c nonzero make k + k(k+1)/2 (1 + |P|) cases, which
        hold unless two c of ideals, or two and one of P, AND to 0: never on
        a lawful carrier, where every c holds the join of m."""
        if cl._instability(q, m) is not None:
            return 0
        outside = [c for i in ctx.ideals if (c := m & ~i.members)]
        primes = [c for p in ctx.primes if (c := m & ~p.members)]
        meets = {x & y for x, y in itertools.combinations_with_replacement(set(outside), 2)}
        if 0 in meets or not all(s & p for p in set(primes) for s in meets):
            return None
        k = len(outside)
        return k + k * (k + 1) // 2 * (1 + len(primes))

    def decide(holds):
        total = 0
        for m, draws in Counter(masks.values()).items():
            count = mask_count(m)
            if count is None:
                return None
            total += draws * count
        return total

    witness = lambda m, combo: (q.labels(m), "/", " ".join(p.name for p in combo[0]))
    domain = _Domain(cases, witness, masks.note, decide)
    return [_Law("witness_outside_union", domain, avoids)]


def _suite_radical_lemma(ctx: _Ctx) -> list[_Law]:
    q, I = ctx.q, ctx.axis("ideals")
    I2 = _over(I, I)
    routes = ctx.routes
    rad, is_ideal = routes.rad, routes.is_ideal
    prod, meet = il.product_ideals, il.meet_ideals

    def meet_and_product(a, b):
        return rad(meet(a, b)) == meet(rad(a), rad(b)) and rad(meet(a, b)) == rad(prod(a, b))

    return [
        _Law("contains_and_ideal", _over(I),
             lambda i: i <= rad(i) and is_ideal(q, rad(i).members)),
        _Law("monotone", I2, lambda a, b: rad(a) <= rad(b) if a <= b else None),
        _Law("idempotent", _over(I), lambda i: rad(rad(i)) == rad(i)),
        _Law("power_stable", _over(I),
             lambda i: rad(prod(i, i)) == rad(i) and rad(prod(prod(i, i), i)) == rad(i)),
        _Law("meet_and_product", I2, meet_and_product),
        _Law("join_family_below", ctx.family_law("radical.join_family"),
             lambda f: il.join_all(q, map(rad, f.members)) <= rad(f.join)),
        _Law("whole_iff", _over(I), lambda i: rad(i).is_whole == i.is_whole),
        _Law("join_radical_collapse", I2,
             lambda a, b: rad(il.join_ideals(a, b)) == rad(il.join_ideals(rad(a), rad(b)))),
        _Law("meet_of_primes_over", _over(I),
             lambda i: rad(i) == il.meet_all(q, cl.primes_over(i))),
    ]


def _suite_spkr(ctx: _Ctx) -> list[_Law]:
    q, I, rad = ctx.q, ctx.axis("ideals"), ctx.routes.rad
    semis = cache(lambda: [s for s in ctx.ideals if cl.is_semiprime(s)])

    def forms(i):
        """semiprime, the meet of the primes over it, its own radical"""
        return cl.is_semiprime(i), il.meet_all(q, cl.primes_over(i)) == i, rad(i) == i

    def forms_witness(i):
        a, b, c = forms(i)
        return i.name, f"semiprime={a}", f"primemeet={b}", f"radical={c}"

    def smallest(i):
        r = rad(i)
        return cl.is_semiprime(r) and all(r <= s for s in semis() if i <= s)

    return [
        _Law("three_way_agreement", _over(I), lambda i: len(set(forms(i))) == 1,
             witness=forms_witness),
        _Law("radical_smallest_semiprime", _over(I), smallest),
    ]


def _suite_saturation(ctx: _Ctx) -> list[_Law]:
    q, mc, rad = ctx.q, ctx.axis("mcsets"), ctx.routes.rad
    saturated = cache(lambda: [s for s in ctx.mcsets if cl.is_saturated(s)])
    join_differs = []

    def smallest(s):
        t = cl.saturation(s)
        return (
            s.members & ~t.members == 0
            and cl.is_mc(q, t.members)
            and cl.is_saturated(t)
            and all(t.members & ~u.members == 0 for u in saturated() if s.members & ~u.members == 0)
        )

    def union_of_primes(s):
        comp = s.complement
        inside = [p for p in ctx.primes if p.members & s.members == 0]
        union = reduce(or_, (p.members for p in inside), 0)
        if inside and il.join_all(q, inside).members != union:
            join_differs.append(s)
        return cl.is_saturated(s) == (comp == union)

    def unions_note():
        n = len(join_differs)
        differs = f"lattice-join reading differs on {n} sets" if n else ""
        return "; ".join(p for p in (mc.note, differs) if p)

    def separates(i, x):
        if x in i or not cl.is_semiprime(i):
            return None
        return cl.mc_generated(q, x).members & i.members == 0

    def decides(i, x):
        via_all_mc = all(s.members & i.members for s in ctx.mcsets if s.members >> x & 1)
        return (rad(i).members >> x & 1) == (1 if via_all_mc else 0)

    E = ctx.axis("elements")
    return [
        _Law("saturation_smallest", _over(mc), smallest),
        _Law("saturated_iff_union_of_primes", _over(mc)._replace(note=unions_note), union_of_primes),
        _Law("semiprime_separation", _over(ctx.axis("proper"), E), separates),
        _Law("avoiding_maximal_prime", _over(mc),
             lambda s: None if q.bottom in s else cl.is_prime(cl.maximal_avoiding(s))),
        _Law("mc_radical_decider", _over(ctx.axis("ideals"), E), decides, mc.note),
    ]


def _suite_primary(ctx: _Ctx) -> list[_Law]:
    q, rad, primary = ctx.q, ctx.routes.rad, cl.is_primary

    def smallest_prime(c):
        r = rad(c)
        return cl.is_prime(r) and all(r <= p for p in cl.primes_over(c))

    def primaries_by_radical():
        return ((p, [c for c in ctx.primaries if rad(c) == p]) for p in ctx.primes)

    families = ctx.subfamilies("primary.p_primary_meet_closed", primaries_by_radical)
    return [
        _Law("prime_implies_primary", _over(ctx.axis("primes")), primary),
        _Law("radical_smallest_prime_over", _over(ctx.axis("primaries")), smallest_prime),
        _Law("radical_meet_family", ctx.family_law("primary.radical_meet_family"),
             lambda f: rad(f.meet) == il.meet_all(q, map(rad, f.members))),
        _Law("p_primary_meet_closed", families, lambda p, f: primary(f.meet) and rad(f.meet) == p),
    ]


def _suite_pqx(ctx: _Ctx) -> list[_Law]:
    q, rad, res, primary = ctx.q, ctx.routes.rad, ctx.routes.res, cl.is_primary
    cx = _over(ctx.axis("primaries"), ctx.axis("elements"))
    colon = lambda c, x: res(c, il.principal(q, x))  # (c : x)

    return [
        _Law("inside_gives_whole", cx, lambda c, x: colon(c, x).is_whole if x in c else None),
        _Law("outside_stays_primary", cx,
             lambda c, x: None if x in c else primary(r := colon(c, x)) and rad(r) == rad(c)),
        _Law("outside_radical_identity", cx,
             lambda c, x: None if x in rad(c) else colon(c, x) == c),
    ]


def _suite_uniqueness(ctx: _Ctx) -> list[_Law]:
    rad, skipped = ctx.routes.rad, set()  # skipped filled by targets()
    rads = lambda comps: tuple(map(rad, comps))
    isolated_of = lambda comps: dc.isolated_primes(rads(comps))

    @cache
    def targets():
        # each decomposable proper ideal with its minimal decompositions, the
        # first being primary_decomposition's
        found = []
        for i in ctx.proper:
            minimal = dc._all_minimal_decompositions(i, dc.primary_candidates(i))
            if minimal:
                found.append((i, minimal))
            else:
                skipped.add(i)
        return found

    # the domains' note, read after the cases ran: it reads the count, never the pass
    note = lambda: f"{len(skipped)} proper ideals not decomposable" if skipped else ""

    # the first uniqueness theorem, on every minimal decomposition
    def colon_primes(i, minimal):
        colon = set(dc.colon_primes(i))
        return all(set(rads(comps)) == colon for comps in minimal)

    def minimal_primes(i, minimal):
        lowest = set(cl.minimal_primes_over(i))
        return all(set(isolated_of(comps)) == lowest for comps in minimal)

    def component(i, minimal, p):
        return dict(zip(rads(minimal[0]), minimal[0]))[p] == dc.isolated_component_formula(i, p)

    decomposed = _Domain(targets, lambda i, minimal: (i.name,), note)
    isolated = _Domain(
        lambda: ((i, m, p) for i, m in targets() for p in isolated_of(m[0])),
        lambda i, minimal, p: (i.name, p.name), note,
    )
    return [
        _Law("associated_eq_colon_primes", decomposed, colon_primes),
        _Law("isolated_eq_minimal_primes", decomposed, minimal_primes),
        _Law("isolated_component_formula", isolated, component),
        _Law("isolated_components_unique", decomposed,
             lambda i, minimal: dc.isolated_components_agree(i, isolated_of(minimal[0]), minimal)),
    ]


def _suite_irreducible(ctx: _Ctx) -> list[_Law]:
    q, I, proper = ctx.q, ctx.axis("ideals"), ctx.axis("proper")
    ideals, rad = ctx.ideals, ctx.routes.rad
    irr = cache(lambda: [i for i in ideals if cl.is_irreducible(i)])
    sirr = cache(lambda: [i for i in ideals if cl.is_strongly_irreducible(i)])
    strong = _over(_Axis(sirr, _name))

    @cache
    def over(i):
        """M(i), the meet of the irreducibles over i: i is separated from
        x by an irreducible over it exactly when x lies outside M(i)"""
        return il.meet_all(q, [j for j in irr() if i <= j])

    def decomposes(i):
        d = dc.irreducible_decomposition(i)
        return all(c in irr() for c in d.components) and il.meet_all(q, d.components) == i

    def minimal_strong(i):
        m = dc.minimal_strongly_irreducible_over(i)
        return m in sirr() and i <= m and not any(s < m for s in sirr() if i <= s)

    return [
        _Law("strong_implies_irreducible", strong, lambda i: i in irr()),
        _Law("strong_elementwise_agree", _over(I),
             lambda i: (i in sirr()) == dc.strongly_irreducible_elementwise(i)),
        _Law("strong_prime_iff_radical", strong,
             lambda i: cl.is_prime(i) == (rad(i) == i) if i.proper else None),
        _Law("separating_irreducible", _over(proper, ctx.axis("elements")),
             lambda i, x: None if x in i else x not in over(i)),
        _Law("representation", _over(proper), lambda i: over(i) == i),
        _Law("decomposition_exists", _over(proper), decomposes),
        _Law("minimal_strong_over", _over(proper), minimal_strong),
        _Law("chain_iff_all_strong", ctx.once,
             lambda: dc.totally_ordered_ideals(q) == (len(sirr()) == len(ideals))),
    ]


def _suite_arithmetic(ctx: _Ctx) -> list[_Law]:
    rep = cache(partial(dc.arithmetic_equivalence_check, ctx.q))
    note = "distributive-ideal-lattice definition"
    return [
        _Law("forward_sets_equal", ctx.once,
             lambda: rep().sets_equal if rep().arithmetic else True, note),
        _Law("forward_representation", ctx.once,
             lambda: rep().representation_ok if rep().arithmetic else True, note),
        _Law("converse_witness", ctx.once, lambda: rep().arithmetic or not rep().sets_equal, note),
    ]


def _suite_collapse(ctx: _Ctx) -> list[_Law]:
    q, I, rad = ctx.q, ctx.axis("ideals"), cl.radical
    if q.n > CROSS_ORACLE_MAX_N:
        why = f"carrier has {q.n} > {CROSS_ORACLE_MAX_N} elements"
        return [_Law("*", None, note=why)]
    ideals = ctx.ideals
    every_subset = _over(_Axis(lambda: range(1, q.full + 1), q.labels))

    def brute_force():
        brute = {m for m in range(1, q.full + 1) if il.is_ideal(q, m)}
        return brute == {i.members for i in ideals}

    def ideal_carrier_iso():
        return ctx.ideal_carrier_lawful and ctx.ideal_carrier.quantale.n == q.n

    return [
        _Law("ideals_match_brute_force", ctx.once, brute_force),
        _Law("principal_apex", _over(I), lambda i: i.is_principal),
        _Law("radical_algorithms_agree", _over(I),
             lambda i: len({rad(i, a) for a in cl.RADICAL_ROUTES}) == 1),
        _Law("product_matches_closure", _over(I, I),
             lambda a, b: il.product_ideals(a, b) == il.product_closure(a, b)),
        _Law("join_matches_closure", _over(I, I),
             lambda a, b: il.join_ideals(a, b) == il.ideal_from_closure(q, a.members | b.members)),
        _Law("generated_matches_downset", every_subset,
             lambda s: il.generated(q, s) == il.Ideal(q, q.down[q.join_of(bits(s))])),
        _Law("ideal_carrier_iso", ctx.once, ideal_carrier_iso),
    ]


# --- entry points -----------------------------------------------------


def resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("QK_SEED")
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError:
        raise ValueError(f"QK_SEED must be an integer, got {env!r}") from None


def run_suite(
    q: FiniteQuantale,
    suite: str = "all",
    hom: QuantaleHom | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Run one suite (or all of them) and collect per-law results."""
    seed = resolve_seed(seed)
    if suite == "all":
        chosen = SUITE_ORDER
    elif suite in SUITE_ORDER:
        chosen = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if hom is None and suite == "cep":
        raise HomRequired("the cep suite needs at least one homomorphism")

    ctx = _Ctx(q, seed, None if hom is None else [hom])
    results: list[LawResult] = []
    elapsed: dict[str, float] = {}
    for s in chosen:
        t0 = time.perf_counter()
        if s != "axioms" and not q.commutative:
            results.append(
                LawResult(s, "*", "skipped", 0, None, "noncommutative carrier")
            )
        else:  # the rows of axioms, else a table to run
            rows = globals()["_suite_" + s](ctx)
            results.extend(rows if s == "axioms" else _check(s, rows))
        elapsed[s] = time.perf_counter() - t0
    return VerificationReport(
        instance=q.name,
        suite=suite,
        seed=seed,
        results=tuple(results),
        elapsed=elapsed,
    )


def single_cell_mutants(q: FiniteQuantale):
    """One mutant per multiplication cell, all still well-typed tables.

    The rewritten entry becomes top, or bottom where it already was top,
    giving exactly n*n mutants.  A sweep replacing a cell by every other
    value is not a stronger test: some such rewrites produce a different
    but perfectly lawful quantale that no law-based suite can tell apart.
    """
    for i in range(q.n):
        for j in range(q.n):
            old = q.mul[i][j]
            new = q.top if old != q.top else q.bottom
            rows = [list(r) for r in q.mul]
            rows[i][j] = new
            mutant = replace(q, name=f"{q.name}~{i},{j}", mul=tuple(tuple(r) for r in rows))
            yield i, j, mutant
