"""_check passes a law whose domain's decide gives a count, and runs every
other law case by case from its first case.

The report must be the flat loop's: every law of run_suite on carriers where
a decide applies, at three seeds, equals the report with verify._run
replaced by oracles.flat_run, which evaluates every case; carriers where the
avoidance decide refuses a mask reach the fallback, lawful carriers with a
wrong library route or primary test reach the fallback of the transport
gates and of the subfamilies decide, and synthetic domains pin the edge
cases.
"""

import itertools
from collections import Counter
from dataclasses import replace
from functools import reduce
from operator import attrgetter, or_

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (
    MUTANTS,
    MUTATION_BASES,
    MUTATION_MUTANTS,
    flat_run,
    minimal_decompositions_picks,
)
from qk import classify, decompose, ideals, verify
from qk.core import bits, check_axioms
from qk.decompose import (
    MINIMAL_PICKS_MAX,
    _all_minimal_decompositions,
    all_minimal_decompositions,
    primary_candidates,
    uniqueness_report,
)
from qk.errors import TooLarge
from qk.generators import generate_from_spec
from qk.ideals import enumerate_ideals, zero_ideal
from qk.verify import (
    EXHAUST_MAX_N,
    SAMPLE_COUNT,
    SUITE_ORDER,
    _Ctx,
    _Domain,
    _Law,
    _check,
    _over,
    _run,
    run_suite,
    single_cell_mutants,
)

SEEDS = (0, 1, 7)
# sampled subsets repeat at 9 <= n <= 13, where mask transport decides the
# subset laws, and run case by case above; families repeat at 9 ideals
# (lukasiewicz:9 and lowersets:4:0<1,2<3, whose 9 lower sets are its
# ideals), and the five family laws over them are decided from the small
# families; avoidance decides each distinct mask once, the monotonicity laws
# are decided along covers (annihilator.antitone's pairs up to n = 8,
# generated_meet_lower's up to n = 10, mul_monotone and mul_monotone_pairs
# at every n), and p_primary_meet_closed from the one- and two-member
# subfamilies (lukasiewicz:14's one radical group of 13 is sampled)
SPECS = (
    "lukasiewicz:9",
    "lukasiewicz:12",
    "lukasiewicz:13",
    "lukasiewicz:14",
    "powerset:3",
    "lowersets:antichain3",
    "lowersets:4:0<1,2<3",
)


def _both(q, seed, monkeypatch, suite="all"):
    replayed = run_suite(q, suite, seed=seed).results
    with monkeypatch.context() as m:
        m.setattr("qk.verify._run", flat_run)
        flat = run_suite(q, suite, seed=seed).results
    return replayed, flat


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", SPECS)
def test_replay_matches_the_flat_loop(spec, seed, monkeypatch):
    replayed, flat = _both(generate_from_spec(spec), seed, monkeypatch)
    assert replayed == flat


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_matches_the_flat_loop_on_mutants(seed, monkeypatch):
    for q in MUTANTS:
        replayed, flat = _both(q, seed, monkeypatch)
        assert replayed == flat, q.name


def test_antitone_covers_match_the_flat_loop_on_mutation_mutants(monkeypatch):
    # every mutant of the mutation benchmark's carriers, up to n=8, where
    # annihilator.antitone's exhaustive pairs are decided along the covers
    # of the nonempty masks
    for q in MUTATION_MUTANTS:
        replayed, flat = _both(q, 0, monkeypatch, "annihilator")
        assert replayed == flat, q.name


@pytest.mark.parametrize(
    "spec",
    ["lukasiewicz:8", "lukasiewicz:9", "lukasiewicz:13", "lukasiewicz:14", "lowersets:4:0<1,2<3"],
)
def test_only_antitone_pairs_and_avoidance_masks_are_drawn(spec):
    # no _over domain skips a repeated case, sampled subsets included: of
    # every table, only avoidance's masks, the five family laws, the six
    # laws over triples of ideals decided by transport, p_primary_meet_closed,
    # the monotonicity laws decided along covers and the subset laws decided
    # by mask transport have a decide: mul_monotone and mul_monotone_pairs at
    # every n; annihilator.antitone's exhaustive pairs (n <= 8) and
    # generated_meet_lower's pairs where the n 2^(n-1) covers are fewer than
    # its cases (n <= 10) along covers, and by mask transport above that,
    # with the other three annihilator laws at every n
    ctx = _Ctx(generate_from_spec(spec), 0)
    n = ctx.q.n
    domains = {
        f"{s}.{law.name}": law.domain
        for s in SUITE_ORDER[1:]
        for law in getattr(verify, "_suite_" + s)(ctx)
        if law.domain is not None
    }
    decided = {name for name, d in domains.items() if d.decide is not None}
    masks = {f"{s}.{name}" for s, names in MASK_LAWS.items() for name in names}
    monotone = {"lemma_bip.mul_monotone", "lemma_bip.mul_monotone_pairs"}
    family = {f"{s}.{name}" for name, (s, _, _) in FAMILY_LAWS.items()}
    cube = {f"proposition_bpi.{name}" for name in CUBE_LAWS}
    others = {"avoidance.witness_outside_union", "primary.p_primary_meet_closed"}
    assert decided == others | masks | monotone | family | cube
    # the cover decides are kept where they apply
    along_covers = {"annihilator.antitone"} if n <= EXHAUST_MAX_N else set()
    along_covers |= {"proposition_bpi.generated_meet_lower"} if n <= 10 else set()
    by_covers = {name for name in masks if domains[name].decide.__qualname__.startswith("_monotone")}
    assert by_covers == along_covers


def _join_rewrites(q):
    """Each carrier made from q by one symmetric rewrite of a join cell,
    join[i][j] = join[j][i] = v for i <= j and every v but the old one."""
    for i in range(q.n):
        for j in range(i, q.n):
            for v in set(range(q.n)) - {q.join[i][j]}:
                rows = [list(r) for r in q.join]
                rows[i][j] = rows[j][i] = v
                yield replace(q, name=f"{q.name}~j{i},{j}={v}", join=tuple(map(tuple, rows)))


# the laws over nonempty masks that mask transport decides, by suite
MASK_LAWS = {
    "annihilator": ("antitone", "double_contains", "triple_stable", "matches_residual_into_zero"),
    "proposition_bpi": ("generated_meet_lower",),
}

# the laws over triples of ideals that transport decides
CUBE_LAWS = (
    "product_assoc",
    "product_meet_below",
    "product_join_mix",
    "coprime_product",
    "coprime_meet",
    "residual_iterated",
)

# each family law: its suite, its families tag, and its axes in order (I
# the ideals, F the families)
FAMILY_LAWS = {
    "product_join_distrib": ("proposition_bpi", "bpi.product_join_distrib", "IF"),
    "residual_meet_family": ("proposition_bpi", "bpi.residual_meet_family", "FI"),
    "residual_join_family": ("proposition_bpi", "bpi.residual_join_family", "IF"),
    "join_family_below": ("radical_lemma", "radical.join_family", "F"),
    "radical_meet_family": ("primary", "primary.radical_meet_family", "F"),
}


def _family_laws(q, seed=0):
    """The context of a run on q and its five family laws, with their suites."""
    ctx = _Ctx(q, seed)
    suites = dict.fromkeys(s for s, _, _ in FAMILY_LAWS.values())
    return ctx, [
        (s, law)
        for s in suites
        for law in getattr(verify, "_suite_" + s)(ctx)
        if law.name in FAMILY_LAWS
    ]


def _family_verdicts(q, seed=0):
    """Each family law's decide verdict, after checking that its row is the
    flat loop's over the plain product of its axes."""
    ctx, laws = _family_laws(q, seed)
    verdicts = {}
    for _, law in laws:
        _, tag, shape = FAMILY_LAWS[law.name]
        plain = _over(*(ctx.axis("ideals") if c == "I" else ctx.families(tag) for c in shape))
        assert _run(law) == flat_run(law) == flat_run(law._replace(domain=plain)), (q.name, law.name)
        verdicts[law.name] = law.domain.decide(law.holds)
    return ctx, verdicts


def test_family_laws_match_the_flat_loop_on_mutation_mutants():
    # every refused law is the flat loop's from its first case, which
    # _family_verdicts checks; transport never holds on these mutants, so
    # no law passes by it, and the small families refuse these
    refused = Counter()
    for q in MUTATION_MUTANTS:
        _, verdicts = _family_verdicts(q)
        refused.update(name for name, v in verdicts.items() if v is None)
    assert refused == {"product_join_distrib": 32, "residual_join_family": 13, "join_family_below": 10}


@pytest.mark.parametrize(
    "spec, small, decided", [("lukasiewicz:44", 991, True), ("lukasiewicz:45", 1036, False)]
)
def test_family_laws_are_decided_while_the_small_families_are_fewer(spec, small, decided, monkeypatch):
    # 44 ideals make 991 small families, fewer than the 10^3 draws; 45 make
    # 1,036.  Without transport, which decides the proposition_bpi family
    # laws at any size
    monkeypatch.setattr(_Ctx, "transport", False)
    ctx, verdicts = _family_verdicts(generate_from_spec(spec))
    assert len(ctx.small_families) == small and (small < SAMPLE_COUNT // 10) == decided
    assert all((v is not None) == decided for v in verdicts.values())


@pytest.mark.parametrize("spec", ["lukasiewicz:12", "powerset:4", "powerset:3"])
def test_family_laws_fold_only_the_small_families(spec, monkeypatch):
    # each law passes from the empty family and the families of one or two
    # ideals: no family outside them is drawn or folded
    sizes, pick = [], verify._pick

    def counted(q, items, mask):
        family = pick(q, items, mask)
        sizes.append(len(family.members))
        return family

    monkeypatch.setattr(verify, "_pick", counted)
    _, laws = _family_laws(generate_from_spec(spec))
    rows = [_check(s, [law])[0] for s, law in laws]
    assert len(rows) == 5 and all(r.status == "pass" for r in rows)
    assert sizes and max(sizes) == 2


# the proposition_bpi laws that transport decides: the six over triples
# of ideals and the three family laws
TRANSPORTED = (*CUBE_LAWS, "product_join_distrib", "residual_meet_family", "residual_join_family")


def _transported_laws(ctx):
    return {law.name: law for law in verify._suite_proposition_bpi(ctx) if law.name in TRANSPORTED}


@pytest.mark.parametrize("spec", ["lukasiewicz:12", "powerset:4", "m3"])
def test_transport_decides_without_a_case(spec):
    ctx = _Ctx(generate_from_spec(spec), 0)
    for name, law in _transported_laws(ctx).items():
        calls = []
        holds = lambda *case, holds=law.holds: calls.append(case) or holds(*case)
        row = _run(law._replace(holds=holds))
        assert row == flat_run(law) and row[0] == "pass", name
        assert calls == [], name
    assert ctx.transport


# a fast path wrong at one pair (↓x, ↓y), with x and y read from the
# carrier, giving the whole carrier there; and a law of TRANSPORTED that
# the wrong result fails
_TOP = attrgetter("top")
_BOTTOM = attrgetter("bottom")
WRONG_PATHS = {
    "product_ideals": (_TOP, _BOTTOM, "product_assoc"),
    "residual": (_BOTTOM, _TOP, "residual_iterated"),
    "join_ideals": (_BOTTOM, _BOTTOM, "coprime_meet"),
    "meet_ideals": (_BOTTOM, _TOP, "product_meet_below"),
}


def _wrong_at(route, x, y):
    def wrong(i, j):
        q = i.carrier
        if (i.members, j.members) == (q.down[x(q)], q.down[y(q)]):
            return q.principals[q.top]
        return route(i, j)

    return wrong


@pytest.mark.parametrize("route", sorted(WRONG_PATHS))
@pytest.mark.parametrize("spec", ["lukasiewicz:9", "powerset:3", "m3"])
def test_transport_refuses_a_wrong_fast_path(spec, route, monkeypatch):
    # on a lawful carrier with a wrong library the gate fails, so each law
    # it decides gets the flat loop's result, and the pinned one fails
    x, y, fails = WRONG_PATHS[route]
    q = generate_from_spec(spec)
    assert check_axioms(q).ok and _Ctx(q, 0).transport
    monkeypatch.setattr(ideals, route, _wrong_at(getattr(ideals, route), x, y))
    ctx = _Ctx(q, 0)
    laws = _transported_laws(ctx)
    results = {name: _run(law) for name, law in laws.items()}
    assert not ctx.transport
    for name, law in laws.items():
        assert results[name] == flat_run(law), name
    assert results[fails][0] == "fail"


def test_transport_never_fires_on_mutation_mutants(monkeypatch):
    # check_axioms fails on every one, so the gate does, and their
    # proposition_bpi reports are the flat loop's
    for q in MUTATION_MUTANTS:
        ctx = _Ctx(q, 0)
        assert not ctx.axioms.ok and not ctx.transport, q.name
        replayed, flat = _both(q, 0, monkeypatch, "proposition_bpi")
        assert replayed == flat, q.name


def _mask_laws(ctx):
    return {
        f"{s}.{law.name}": law
        for s, names in MASK_LAWS.items()
        for law in getattr(verify, "_suite_" + s)(ctx)
        if law.name in names
    }


@pytest.mark.parametrize("spec", ["lukasiewicz:9", "lukasiewicz:12", "powerset:3"])
def test_mask_transport_decides_without_a_case(spec):
    # the mask laws that have no cover decide pass with the flat loop's count
    ctx = _Ctx(generate_from_spec(spec), 0)
    covered = 0
    for name, law in _mask_laws(ctx).items():
        calls = []
        row = _run(law._replace(holds=lambda *case, holds=law.holds: calls.append(case) or holds(*case)))
        assert row == flat_run(law) and row[0] == "pass", name
        covered += bool(calls)
    # antitone is decided along covers up to n = 8, generated_meet_lower up to 10
    assert ctx.mask_transport and covered == (ctx.q.n <= EXHAUST_MAX_N) + (ctx.q.n <= 10)


# a subset route wrong at the single mask of one element, read from the
# carrier, giving the ideal it picks there in place of the right one
WRONG_MASKS = {
    "generated": (_BOTTOM, lambda q: q.principals[q.top]),
    "annihilator": (_BOTTOM, lambda q: q.principals[q.bottom]),
}


@pytest.mark.parametrize("route", sorted(WRONG_MASKS))
@pytest.mark.parametrize("spec", ["lukasiewicz:9", "lukasiewicz:12", "powerset:3"])
def test_mask_transport_refuses_a_wrong_subset_route(spec, route, monkeypatch):
    # on a lawful carrier with a wrong library the gate fails while
    # transport holds, so each mask law gets the flat loop's result, and
    # some law fails with the flat loop's witness
    element, answer = WRONG_MASKS[route]
    q = generate_from_spec(spec)
    assert _Ctx(q, 0).mask_transport
    right = getattr(ideals, route)
    monkeypatch.setattr(
        ideals, route, lambda q, s: answer(q) if s == 1 << element(q) else right(q, s)
    )
    ctx = _Ctx(q, 0)
    laws = _mask_laws(ctx)
    results = {name: _run(law) for name, law in laws.items()}
    assert ctx.transport and not ctx.mask_transport
    for name, law in laws.items():
        assert results[name] == flat_run(law), name
    assert any(r[0] == "fail" and r[2] for r in results.values())
    failed = set()
    for suite in MASK_LAWS:
        replayed, flat = _both(q, 0, monkeypatch, suite)
        assert replayed == flat, suite
        failed.update(f"{suite}.{r.law}" for r in replayed if r.status == "fail")
    assert failed == {name for name, r in results.items() if r[0] == "fail"}


def _p_primary_law(ctx):
    return _law(ctx, "primary", "p_primary_meet_closed")


def test_p_primary_meet_closed_refuses_a_wrong_primary_test(monkeypatch):
    # m3's one radical group lists ↓bot, ↓p, ↓q, ↓r and ↓m, and ↓p ∧ ↓q is
    # ↓bot, a third member: with is_primary wrong there, the two-member
    # subfamily {↓p, ↓q} fails, so the decide refuses and the law fails
    # with the flat loop's witness
    q = generate_from_spec("m3")
    law = _p_primary_law(_Ctx(q, 0))
    assert law.domain.decide(law.holds) == 31
    primary, zero = classify.is_primary, zero_ideal(q)
    monkeypatch.setattr(classify, "is_primary", lambda i: i is not zero and primary(i))
    law = _p_primary_law(_Ctx(q, 0))
    assert law.domain.decide(law.holds) is None
    assert _run(law) == flat_run(law) == ("fail", 3, ("↓m", "2"), "")


def test_p_primary_meet_closed_matches_the_flat_loop_on_mutants():
    # each law is the flat loop's, decided or not; lattice_ok holds on
    # these, and the decide passes on 5 of them
    decided = 0
    for q in MUTANTS + MUTATION_MUTANTS:
        law = _p_primary_law(_Ctx(q, 0))
        assert _run(law) == flat_run(law), q.name
        decided += law.domain.decide(law.holds) is not None
    assert decided == 5


def test_p_primary_meet_closed_runs_flat_on_join_rewrites():
    # a rewritten join cell fails lattice_ok, under which alone the meet of
    # two listed ideals is listed, so the law is never decided there
    for q in _join_rewrite_carriers():
        law = _p_primary_law(_Ctx(q, 0))
        assert law.domain.decide(law.holds) is None, q.name
        assert _run(law) == flat_run(law), q.name


def test_coprime_counts_are_the_flat_loops():
    # sum_c k_c^2 and k sum_c k_c for k_c = #{a : a ∨ c = top}, read here
    # from the join table
    specs = ("lowersets:8:0<1,2<3,4<5,6<7", "lukasiewicz:24")
    for q in [*MUTATION_BASES, *map(generate_from_spec, specs)]:
        k_c = [sum(row[c] == q.top for row in q.join) for c in range(q.n)]
        counts = {"coprime_product": sum(k * k for k in k_c), "coprime_meet": q.n * sum(k_c)}
        ctx = _Ctx(q, 0)
        for name, count in counts.items():
            law = _law(ctx, "proposition_bpi", name)
            assert _run(law) == flat_run(law) == ("pass", count, None, ""), (q.name, name)
        assert ctx.transport, q.name


def _join_rewrite_carriers():
    rewrites = [
        m for spec in ("powerset:2", "lukasiewicz:4", "m3")
        for m in _join_rewrites(generate_from_spec(spec))
    ]
    assert len(rewrites) == 165 and all(m.commutative for m in rewrites)
    return rewrites


# each family law's row on the diagonal single-cell mutants (1, 1) of two
# carriers with more than EXHAUST_MAX_N ideals, at seed 0
DRAWN_FAMILY_ROWS = {
    "lukasiewicz:12": {
        "product_join_distrib": ("fail", 1001, ("↓1", "6"), ""),
        "residual_meet_family": ("pass", 12000, None, ""),
        "residual_join_family": ("pass", 12000, None, ""),
        "join_family_below": ("pass", 1000, None, ""),
        "radical_meet_family": ("pass", 1000, None, ""),
    },
    "powerset:4": {
        "product_join_distrib": ("fail", 1001, ("↓1", "10"), ""),
        "residual_meet_family": ("pass", 16000, None, ""),
        "residual_join_family": ("pass", 16000, None, ""),
        "join_family_below": ("pass", 1000, None, ""),
        "radical_meet_family": ("pass", 1000, None, ""),
    },
}


@pytest.mark.parametrize("spec", sorted(DRAWN_FAMILY_ROWS))
def test_family_laws_over_drawn_families_on_an_unlawful_carrier(spec):
    # check_axioms fails, so transport does not hold, and the families are
    # drawn; _family_verdicts checks that each row is the flat loop's, over
    # the law's domain and over the plain product of its axes
    q = next(m for i, j, m in single_cell_mutants(generate_from_spec(spec)) if i == j == 1)
    assert not check_axioms(q).ok and len(enumerate_ideals(q)) > EXHAUST_MAX_N
    _family_verdicts(q)
    _, laws = _family_laws(q)
    assert {law.name: _run(law) for _, law in laws} == DRAWN_FAMILY_ROWS[spec]


def test_family_laws_run_flat_on_join_rewrites():
    # a rewritten join cell fails lattice_ok, so no family law is decided
    for q in _join_rewrite_carriers():
        assert not check_axioms(q).lattice_ok, q.name
        _, verdicts = _family_verdicts(q)
        assert all(v is None for v in verdicts.values()), q.name


def test_avoidance_fallback_matches_the_flat_loop_on_join_rewrites(monkeypatch):
    # On a lattice join a join-closed mask contains its own join, so an ideal
    # holding that join holds the whole mask: the join lies outside every
    # ideal that misses a part of the mask, the law cannot fail and its
    # decide passes every mask.  The mutation carriers break only mul, so no
    # other test reaches the fallback.  A rewritten join cell can: 12 of these
    # carriers fail, each on a mask the decide refuses and runs case by case
    # through classify._avoiding.
    rewrites = _join_rewrite_carriers()
    failed = set()
    for q in rewrites:
        for seed in (0, 7):
            replayed, flat = _both(q, seed, monkeypatch, "avoidance")
            assert replayed == flat, (q.name, seed)
            failed.update(q.name for r in replayed if r.status == "fail")
    assert len(failed) == 12
    pinned = next(m for m in rewrites if m.name == "powerset2~j1,2=0")
    [row] = run_suite(pinned, "avoidance", seed=0).results
    missing = "error: QuantaleError: avoidance witness missing despite satisfied hypotheses"
    assert (row.status, row.checked, row.witness, row.note) == ("fail", 39, (), missing)


def _law(ctx, suite, name):
    """The law name of suite's table on ctx."""
    return next(law for law in getattr(verify, "_suite_" + suite)(ctx) if law.name == name)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monotone_mask_laws_match_the_flat_loop(data):
    # a map f of masks, monotone but at a few rewritten masks and with at
    # most one mask where it raises, in both mask shapes: f(t) inside f(s)
    # for s inside t (antitone, of the complement of f) on subset_pairs, and
    # f(s & t) inside f(s) & f(t) (generated_meet_lower) on
    # overlapping_pairs, exhausted up to 6 elements and sampled above
    n = data.draw(st.integers(1, 8), "n")
    full = (1 << n) - 1
    images = data.draw(st.lists(st.integers(0, 63), min_size=n, max_size=n), "images")
    f = {m: reduce(or_, (images[b] for b in bits(m))) for m in range(1, full + 1)}
    rewrites = st.dictionaries(st.integers(1, full), st.integers(0, 63), max_size=2)
    f.update(data.draw(rewrites, "rewrites"))
    crash = data.draw(st.none() | st.integers(1, full), "crash")

    def g(m):
        if m == crash:
            raise ZeroDivisionError("boom")
        return f[m]

    ctx = _Ctx(generate_from_spec(f"lukasiewicz:{n}"), data.draw(st.integers(0, 7), "seed"))
    laws = [
        _Law("antitone", ctx.subset_pairs("t"), lambda s, t: ~g(t) & g(s) == 0),
        _Law("meet_lower", ctx.overlapping_pairs("t"), lambda s, t: g(s & t) & ~(g(s) & g(t)) == 0),
    ]
    for law in laws:
        assert (law.domain.decide is not None) == (n >= 2), law.name
        assert _run(law) == flat_run(law), law.name


def test_mul_monotone_laws_match_the_flat_loop_on_mutants(monkeypatch):
    # every mutant fails both laws along some cover, so each runs flat
    for q in MUTANTS + MUTATION_MUTANTS:
        replayed, flat = _both(q, 0, monkeypatch, "lemma_bip")
        assert replayed == flat, q.name
        statuses = {r.law: r.status for r in replayed}
        assert statuses["mul_monotone"] == statuses["mul_monotone_pairs"] == "fail", q.name


def test_mul_monotone_pairs_reads_both_sides_on_noncommutative_mutants():
    # run_suite skips a noncommutative carrier, but the table built on one
    # still decides by its covers: on 17 of these mutants the left covers
    # ((c, d), (z, z)) pass and a right one ((w, w), (c, d)) fails
    mutants = [m for q in MUTATION_BASES for _, _, m in single_cell_mutants(q) if not m.commutative]
    assert len(mutants) == 154
    for q in mutants:
        ctx = _Ctx(q, 0)
        for name in ("mul_monotone", "mul_monotone_pairs"):
            law = _law(ctx, "lemma_bip", name)
            assert _run(law) == flat_run(law), (q.name, name)


def test_mul_monotone_laws_run_flat_without_a_partial_order():
    # down[3] of lukasiewicz:5 without 1: not transitive, so the covers do
    # not generate the order, and both laws, which pass on every cover,
    # fail on a comparable pair
    q = generate_from_spec("lukasiewicz:5")
    q = replace(q, name="broken", down=(*q.down[:3], q.down[3] & ~0b10, q.down[4]))
    assert q._order_fault is not None
    ctx = _Ctx(q, 0)
    assert ctx.covers is None
    for name in ("mul_monotone", "mul_monotone_pairs"):
        law = _law(ctx, "lemma_bip", name)
        assert _run(law) == flat_run(law) and _run(law)[0] == "fail", name


def test_generated_meet_lower_matches_the_flat_loop_on_join_rewrites():
    # a rewritten join cell makes generated non-monotone on 49 of them
    failed = 0
    for q in _join_rewrite_carriers():
        law = _law(_Ctx(q, 0), "proposition_bpi", "generated_meet_lower")
        assert _run(law) == flat_run(law), q.name
        failed += _run(law)[0] == "fail"
    assert failed == 49


@pytest.mark.parametrize(
    "spec, suite, name",
    [
        ("lukasiewicz:64", "lemma_bip", "mul_monotone"),
        ("lukasiewicz:64", "lemma_bip", "mul_monotone_pairs"),
        ("powerset:3", "annihilator", "antitone"),
        ("powerset:3", "proposition_bpi", "generated_meet_lower"),
    ],
)
def test_monotone_laws_evaluate_only_their_covers(spec, suite, name):
    # each passes from its cover cases: E covers of the order times n
    # elements (twice for the pairs), or at most n 2^(n-1) covers of the
    # masks, where the flat loop has |B| n = 2080 * 64 and |B|^2 = 2080^2
    # cases, or 29,615 and 10^4
    ctx, calls = _Ctx(generate_from_spec(spec), 0), []
    law = _law(ctx, suite, name)
    law = law._replace(holds=lambda *case, holds=law.holds: calls.append(case) or holds(*case))
    [row] = _check(suite, [law])
    n = ctx.q.n
    if suite == "lemma_bip":
        bound = len(ctx.covers) * n * (2 if name == "mul_monotone_pairs" else 1)
    else:
        bound = n << n - 1
    assert row.status == "pass" and 0 < len(calls) <= bound < row.checked


@pytest.mark.parametrize("spec", ["lukasiewicz:12", "powerset:4", "lowersets:chain8"])
def test_avoidance_decides_its_masks_without_the_core(spec, monkeypatch):
    # every stable mask of these lawful carriers passes its decide, so the
    # suite never calls the core it re-proves
    calls = []
    avoiding = classify._avoiding
    monkeypatch.setattr(classify, "_avoiding", lambda m, ps: calls.append(m) or avoiding(m, ps))
    [row] = run_suite(generate_from_spec(spec), "avoidance", seed=0).results
    assert row.status == "pass" and row.checked > 0
    assert calls == []


def test_chain8_avoidance_count():
    rep = run_suite(generate_from_spec("lowersets:chain8"), "avoidance", seed=0)
    [row] = rep.results
    assert (row.status, row.checked, row.note) == ("pass", 2_499_385, "sampled")


# the cases of the synthetic laws: (k, j) for k in 1, 2, 3 and j in 0, 1, 2
_CASES = [(k, j) for k in (1, 2, 3) for j in range(3)]


def _compare(verdict, decide):
    """_check on a law over _CASES with verdict and decide, and with
    verify._run replaced by flat_run: both rows, and the cases _check
    evaluated."""
    seen = []

    def holds(k, j):
        seen.append((k, j))
        return verdict(k, j)

    domain = _Domain(lambda: _CASES, lambda k, j: (str(k), str(j)), decide=decide)
    law = _Law("law", domain, holds)
    [row] = _check("s", [law])
    evaluated = list(seen)
    with pytest.MonkeyPatch.context() as m:
        m.setattr("qk.verify._run", flat_run)
        [flat] = _check("s", [law])
    return row, flat, evaluated


def _boom(*args):
    raise ZeroDivisionError("boom")


def test_a_counting_decide_passes_without_a_case():
    row, flat, seen = _compare(lambda k, j: True, lambda holds: len(_CASES))
    assert row == flat and (row.status, row.checked) == ("pass", 9)
    assert seen == []


def test_an_undecided_domain_runs_flat_from_the_first_case():
    # the decide gives None though every case holds, then on a law that
    # fails at (2, 2): the flat loop's count and witness either way
    row, flat, seen = _compare(lambda k, j: True, lambda holds: None)
    assert row == flat and (row.status, row.checked) == ("pass", 9)
    assert seen == _CASES
    row, flat, seen = _compare(lambda k, j: (k, j) != (2, 2), lambda holds: None)
    assert row == flat and (row.status, row.checked, row.witness) == ("fail", 6, ("2", "2"))
    assert seen == _CASES[:6]


def test_a_crashing_decide_runs_the_flat_loop():
    verdict = lambda k, j: None if (k, j) == (2, 1) else (k, j) != (2, 2)
    row, flat, seen = _compare(verdict, _boom)
    assert row == flat and (row.status, row.checked, row.witness) == ("fail", 5, ("2", "2"))
    assert seen == _CASES[:6]


def test_a_crash_in_the_flat_loop_keeps_its_count():
    # the decide meets the crash first and raises; the flat loop meets it
    # again and counts the cases before it
    def verdict(k, j):
        if (k, j) == (3, 1):
            raise ZeroDivisionError("boom")
        return True

    decide = lambda holds: all(itertools.starmap(holds, _CASES)) and len(_CASES)
    row, flat, _ = _compare(verdict, decide)
    assert row == flat and (row.status, row.checked, row.witness) == ("fail", 7, ())
    assert row.note == "error: ZeroDivisionError: boom"


def test_a_failure_after_repeats_reports_the_flat_witness():
    # a repeated case is evaluated and counted again, one outside the
    # hypothesis (j == 1) never
    seen = []
    cases = [(1, 0), (2, 1), (1, 0), (3, 0), (2, 1), (1, 0), (3, 2), (1, 0)]
    verdict = lambda k, j: None if j == 1 else (k, j) != (3, 2)
    domain = _Domain(lambda: cases, lambda k, j: (str(k), str(j)), decide=lambda holds: None)
    law = _Law("law", domain, lambda k, j: seen.append((k, j)) or verdict(k, j))
    assert _run(law) == flat_run(law) == ("fail", 5, ("3", "2"), "")
    assert seen == cases[:7] * 2


def _avoidance_over(draws, monkeypatch):
    """The avoidance law on lukasiewicz:5 over the drawn masks draws, and
    the masks classify._instability is called on."""
    ctx, tested = _Ctx(generate_from_spec("lukasiewicz:5"), 0), []
    ctx.subsets = lambda tag: verify._Axis(lambda: draws, ctx.q.labels, "sampled")
    instability = classify._instability
    monkeypatch.setattr(classify, "_instability", lambda q, m: tested.append(m) or instability(q, m))
    [law] = verify._suite_avoidance(ctx)
    return law, tested


# masks of lukasiewicz:5: {4} and {0, 4} are stable, {3} is not, as 3 & 3 = 2
_FOUR, _ENDS, _THREE = 0b10000, 0b10001, 0b01000


def test_consecutive_repeats_are_separate_draws(monkeypatch):
    # the decide tests each distinct mask once and counts its cases for
    # every draw of it, as the flat loop, which tests every draw, does
    counts = {m: flat_run(_avoidance_over([m], monkeypatch)[0])[1] for m in (_FOUR, _ENDS)}
    draws = [_FOUR, _FOUR, _ENDS, _ENDS, _ENDS, _FOUR]
    law, tested = _avoidance_over(draws, monkeypatch)
    row = _run(law)
    assert row == ("pass", 3 * counts[_FOUR] + 3 * counts[_ENDS], None, "")
    assert tested == [_FOUR, _ENDS]
    tested.clear()
    assert flat_run(law) == row and tested == draws


def test_a_draw_outside_the_hypothesis_counts_nothing(monkeypatch):
    # a mask not closed under & has no case, drawn once or often
    law, _ = _avoidance_over([_THREE, _FOUR, _THREE], monkeypatch)
    alone, _ = _avoidance_over([_FOUR], monkeypatch)
    assert _run(law) == flat_run(law) == flat_run(alone)
    assert _run(law)[:2] == ("pass", flat_run(alone)[1]) and flat_run(alone)[1] > 0


UNIQUENESS_LAWS = (
    "associated_eq_colon_primes",
    "isolated_eq_minimal_primes",
    "isolated_component_formula",
    "isolated_components_unique",
)


def test_a_decided_pass_gives_the_flat_loops_note(monkeypatch):
    # a callable note reads state that cases() fills (uniqueness's skipped
    # ideals, saturation's join differences, subfamilies' group sizes), so a
    # decide on such a domain must fill it too: p_primary_meet_closed's,
    # which passes on lukasiewicz:12 and on lukasiewicz:14, whose group of
    # 13 makes the note "sampled", and on the mutant, whose lattice is
    # lawful, and refuses on powerset:4, whose groups have one member
    mutant = next(m for i, j, m in single_cell_mutants(generate_from_spec("lukasiewicz:12")) if i == j == 1)
    carriers = [*map(generate_from_spec, ("lukasiewicz:12", "lukasiewicz:14", "powerset:4")), mutant]
    callable_notes, decided = set(), []
    for q in carriers:
        for s in SUITE_ORDER[1:]:
            for law in getattr(verify, "_suite_" + s)(_Ctx(q, 0)):
                if law.domain is not None and callable(law.domain.note):
                    callable_notes.add(f"{s}.{law.name}")
                    if law.domain.decide is not None:
                        count = law.domain.decide(law.holds)
                        decided.append((q.name, law.name, count, law.domain.note()))
        replayed, flat = _both(q, 0, monkeypatch, "primary")
        assert replayed == flat, q.name
    assert callable_notes == {
        "saturation.saturated_iff_union_of_primes",
        "primary.p_primary_meet_closed",
        *(f"uniqueness.{name}" for name in UNIQUENESS_LAWS),
    }
    law = "p_primary_meet_closed"
    assert decided == [
        ("lukasiewicz12", law, 2047, ""),
        ("lukasiewicz14", law, 1000, "sampled"),
        ("powerset4", law, None, ""),
        (mutant.name, law, 1023, ""),
    ]


# The pair (2, t) at t = 0b10011 first occurs at m = 2, after (1, t) at
# m = 1, and the mask t is first read at (1, t).  f(s) is the complement of
# s but at t, where it is the mask 2, the one bit the complement of 2
# lacks, so f(t) inside f(s) fails first at the pair and on the cover
# (0b10010, t) too: the flat loop runs from the start, and its count
# before the failure is one case of t.
_PAIR = (2, 0b10011)


def _covers_law(verdict):
    """A law of antitone's shape over subset_pairs' exhaustive pairs on
    lukasiewicz:5, its predicate verdict; the pairs it evaluated."""
    ctx, seen = _Ctx(generate_from_spec("lukasiewicz:5"), 0), []
    law = _Law("law", ctx.subset_pairs("t"), lambda s, t: seen.append((s, t)) or verdict(s, t))
    assert law.domain.decide is not None
    return law, seen


def _flat_count_before(pair):
    """The cases of the flat loop before the first occurrence of pair, at
    m = s."""
    s, t = pair
    return sum(1 for u in range(1, t) for m in range(1, u + 1) if u & m) + sum(
        1 for m in range(1, s) if t & m
    )


def _complement(crash=None):
    """f(s) = the complement of s in 5 bits, but f(_PAIR[1]) = _PAIR[0];
    f(crash) raises."""

    def f(s):
        if s == crash:
            raise ZeroDivisionError("boom")
        return _PAIR[0] if s == _PAIR[1] else 0b11111 & ~s

    return f


def test_a_failure_along_covers_reports_the_flat_count():
    f = _complement()
    law, seen = _covers_law(lambda s, t: f(t) & ~f(s) == 0)
    [row] = _check("s", [law])
    assert seen[0] == (0b10, 0b11)  # the decide read the first cover first
    with pytest.MonkeyPatch.context() as m:
        m.setattr("qk.verify._run", flat_run)
        [flat] = _check("s", [law])
    assert row == flat
    assert (row.status, row.checked) == ("fail", _flat_count_before(_PAIR) + 1)
    assert row.witness == ("1", "/", "0 1 4")


def test_a_crash_along_covers_reports_the_flat_count():
    # f raises on the mask t, first read at the pair (1, t)
    f = _complement(crash=_PAIR[1])
    law, _ = _covers_law(lambda s, t: f(t) & ~f(s) == 0)
    [row] = _check("s", [law])
    with pytest.MonkeyPatch.context() as m:
        m.setattr("qk.verify._run", flat_run)
        [flat] = _check("s", [law])
    assert row == flat
    assert (row.status, row.checked, row.witness) == ("fail", _flat_count_before((1, _PAIR[1])), ())
    assert row.note == "error: ZeroDivisionError: boom"


def test_a_flat_domain_is_not_replayed():
    seen = []
    domain = _Domain(lambda: [(1,), (1,), (2,)], lambda x: (str(x),))
    law = _Law("law", domain, lambda x: seen.append(x) or True)
    [row] = _check("s", [law])
    assert (row.status, row.checked, seen) == ("pass", 3, [1, 1, 2])


def test_minimal_decompositions_match_the_picks_loop():
    # the search keeps the product of picks' list and order on every ideal
    compared = 0
    specs = [*oracles.SPECS, "lowersets:chain8"]
    for q in [*map(generate_from_spec, specs), *MUTANTS, *MUTATION_MUTANTS]:
        for i in enumerate_ideals(q):
            cands = primary_candidates(i)
            want = minimal_decompositions_picks(i, cands)
            assert _all_minimal_decompositions(i, cands) == want, (q.name, i.name)
            compared += 1
    assert compared == 343
    # any family of ideals over a proper i as the candidates: a chosen
    # component can turn redundant (↓12 once ↓13 and ↓24 are chosen on
    # powerset:4)
    compared = 0
    for q in map(generate_from_spec, ("powerset:4", "m3", "lukasiewicz:5", "lowersets:4:0<1,2<3")):
        for i in filter(attrgetter("proper"), enumerate_ideals(q)):
            over = sorted((c for c in enumerate_ideals(q) if i <= c), key=lambda c: (c.size, c.apex))
            for k in range(1, 5):
                for cands in map(list, itertools.combinations(over, k)):
                    want = minimal_decompositions_picks(i, cands)
                    assert _all_minimal_decompositions(i, cands) == want, (q.name, i.name, cands)
                    compared += 1
    assert compared == 3803


def test_minimal_decompositions_refuse_too_many_picks(monkeypatch):
    # the zero ideal of the Goedel chain has one radical group per proper
    # ideal, 2^17 picks on chain17; the search visits two nodes
    chain17 = generate_from_spec("lowersets:chain17")
    zero = zero_ideal(chain17)
    assert MINIMAL_PICKS_MAX == 1 << 16
    assert all_minimal_decompositions(zero) == [(zero,)]
    rep = uniqueness_report(zero)
    assert rep.decomposition.components == (zero,) and rep.isolated_components_match
    rows = run_suite(chain17, "uniqueness", seed=0).results
    assert {r.law: r.status for r in rows}["isolated_components_unique"] == "pass"
    monkeypatch.setattr(decompose, "MINIMAL_PICKS_MAX", 1)
    with pytest.raises(TooLarge, match="needs more than 1 search nodes"):
        all_minimal_decompositions(zero)
    # the zero ideal of powerset:4 meets its four primes: a node for each
    # prime chosen in turn, each other branch pruned at once
    zero = zero_ideal(generate_from_spec("powerset:4"))
    monkeypatch.setattr(decompose, "MINIMAL_PICKS_MAX", 5)
    assert len(all_minimal_decompositions(zero)) == 1
    monkeypatch.setattr(decompose, "MINIMAL_PICKS_MAX", 4)
    with pytest.raises(TooLarge):
        all_minimal_decompositions(zero)
