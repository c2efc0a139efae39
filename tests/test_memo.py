"""The carrier memos are exact caches of the definitions, scoped to one carrier.

A carrier memoizes its interned ideals and principals; a residual or
radical is memoized by the run that repeats it
(verify._Ctx.routes), not by the carrier.  Each memoized operation, and
the residual, is compared with its definitional scan in oracles, on
every commutative single-cell mutant of q4, l3 and m3 (oracles.MUTANTS):
broken tables are where a shortcut would drift from the definition.
Each call is made twice so the second answer comes from the memo.
"""

from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

from qk import verify
from qk.classify import _avoiding, is_prime, mc_generated, prime_avoidance, radical
from qk.core import QuantaleHom, bits
from qk.errors import HypothesisViolated, QuantaleError
from qk.generators import generate_from_spec, m3_quantale
from qk.ideals import (
    Ideal,
    annihilator,
    enumerate_ideals,
    generated,
    join_ideals,
    principal,
    product_ideals,
    residual,
)
from qk.quantfile import load_quant
from qk.verify import _Ctx, run_suite, single_cell_mutants

from oracles import DATA, MUTANTS, members, prime_witness_scan, residual_scan


def _prime_scan(i):
    return i.proper and prime_witness_scan(i) is None


def _avoidance_scan(q, m, ps):
    """prime_avoidance as first written: (hypothesis, message) or the witness."""
    for x in members(q, m):
        for y in members(q, m):
            if not m >> q.join[x][y] & 1:
                return "stable_under_join", f"{q.label(x)} v {q.label(y)} leaves the set"
            if not m >> q.mul[x][y] & 1:
                return "stable_under_mul", f"{q.label(x)} & {q.label(y)} leaves the set"
    for k, p in enumerate(ps):
        if k >= 2 and not _prime_scan(p):
            return "prime_tail", f"ideal {k + 1} ({p.name}) is not prime"
    for k, p in enumerate(ps):
        if m & ~p.members == 0:
            return "not_contained", f"the stable set lies inside ideal {k + 1} ({p.name})"
    union = 0
    for p in ps:
        union |= p.members
    return min(members(q, m & ~union))


def _avoidance(q, m, ps):
    try:
        return prime_avoidance(q, m, list(ps))
    except HypothesisViolated as exc:
        return exc.hypothesis, str(exc)


def _outcome(avoid, *args):
    """What a call of avoid returns, or the type and arguments of the
    QuantaleError it raises."""
    try:
        return avoid(*args)
    except QuantaleError as exc:
        return type(exc), exc.args


MEMOS = ("interned", "principals")
TABLES = ("powers", "zero_folds", "image_folds")


@pytest.fixture(params=MUTANTS, ids=lambda q: q.name)
def mutant(request):
    # a fresh copy per test, so no test reads memos another one filled
    return replace(request.param)


def test_apex_residual_annihilator_generated_match_scans(mutant):
    # annihilator and generated meet their scans in test_tables, on every
    # one-sided and symmetric single-cell rewrite of q4, l3 and m3
    q = mutant
    subsets = range(1, q.full + 1)
    for _ in range(2):
        for m in subsets:
            assert Ideal(q, m).apex == q.join_of(members(q, m))
        ideals = enumerate_ideals(q)
        for i in ideals:
            assert is_prime(i) == _prime_scan(i)
            for j in ideals:
                assert residual(i, j).members == residual_scan(i, j)
    # every object made on the way, by any route, is the one for its mask
    for m, i in q.interned.items():
        assert i.carrier is q and i.members == m
        assert i.apex == q.join_of(bits(m))
        assert Ideal(q, m) is i


def test_join_and_product_are_principal_lookups(mutant):
    q = mutant
    ideals = enumerate_ideals(q)
    for a in ideals:
        for b in ideals:
            assert join_ideals(a, b) is principal(q, q.join[a.apex][b.apex])
            assert product_ideals(a, b) is principal(q, q.mul[a.apex][b.apex])


def test_prime_avoidance_matches_scan(mutant):
    q = mutant
    ideals = enumerate_ideals(q)
    combos = [c for k in (1, 2, 3) for c in combinations_with_replacement(ideals, k)]
    for m in range(1, q.full + 1):
        for ps in combos:
            assert _avoidance(q, m, ps) == _avoidance_scan(q, m, ps)


@pytest.mark.parametrize(
    "q",
    [*MUTANTS, load_quant(DATA / "q4.quant"), load_quant(DATA / "l3.quant"), m3_quantale()],
    ids=lambda q: q.name,
)
def test_avoidance_suite_core_matches_prime_avoidance(q):
    """On every case of the avoidance suite (each mask _instability passes,
    with each combination the suite builds), the core the suite calls
    returns None exactly where the checked entry point refuses the set as
    lying inside an ideal, naming the first such ideal, and otherwise
    answers as the checked entry point does."""
    q = replace(q)
    [law] = verify._suite_avoidance(_Ctx(q, 0))
    masks = set()
    for m, (ps, _) in law.domain.cases():
        masks.add(m)
        got, want = _outcome(_avoiding, m, ps), _outcome(_avoidance, q, m, ps)
        inside = [k for k, p in enumerate(ps) if m & ~p.members == 0]
        if inside:
            k = inside[0]
            assert got is None
            message = f"the stable set lies inside ideal {k + 1} ({ps[k].name})"
            assert want == ("not_contained", message)
        else:
            assert got == want
    stable = (m for m in range(1, q.full + 1) if not isinstance(_avoidance_scan(q, m, []), tuple))
    assert masks == set(stable)


@pytest.mark.parametrize("spec", ["powerset:3", "lukasiewicz:6"])
def test_prime_avoidance_reads_shared_lists(spec):
    """One list per combination, passed for every mask as the avoidance
    suite does, gives what a fresh copy per call gives, and stays as it was."""
    q = generate_from_spec(spec)
    ideals = enumerate_ideals(q)
    combos = [list(c) for k in (1, 2, 3) for c in combinations_with_replacement(ideals, k)]
    before = [tuple(ps) for ps in combos]
    for m in range(1, q.full + 1):
        for ps in combos:
            try:
                shared = prime_avoidance(q, m, ps)
            except HypothesisViolated as exc:
                shared = exc.hypothesis, str(exc)
            assert shared == _avoidance(q, m, ps) == _avoidance_scan(q, m, ps)
    assert [tuple(ps) for ps in combos] == before


def test_memos_do_not_outlive_their_carrier(q4):
    base = replace(q4)
    ideals = enumerate_ideals(base)
    for i in ideals:
        is_prime(i)
        radical(i)
        annihilator(base, i.members)
        generated(base, i.members)
        for j in ideals:
            residual(i, j)
    built = (*MEMOS, *TABLES, "residuals")
    assert all(vars(base).get(name) for name in built)

    mutants = [m for _, _, m in single_cell_mutants(base)]
    for fresh in [replace(base), *mutants]:
        assert not any(name in vars(fresh) for name in built)
    residuals_differ = primes_differ = 0
    for m in filter(lambda m: m.commutative, mutants):
        for i in ideals:
            im = Ideal(m, i.members)
            assert im is m.interned[i.members] is not base.interned[i.members]
            assert is_prime(im) == _prime_scan(im)
            primes_differ += is_prime(im) != is_prime(i)
            for j in ideals:
                jm = Ideal(m, j.members)
                got = residual(im, jm).members
                assert got == residual_scan(im, jm)
                residuals_differ += got != residual(i, j).members
    assert residuals_differ and primes_differ


def test_interned_ideals_belong_to_one_carrier(q4):
    base = replace(q4)
    ideals = enumerate_ideals(base)
    assert Ideal(base, base.full) is Ideal(base, base.full)
    for fresh in [replace(base)] + [
        m for _, _, m in single_cell_mutants(base) if m.commutative
    ]:
        assert "interned" not in vars(fresh)
        for i in ideals:
            mine = Ideal(fresh, i.members)
            assert mine is not i and mine.carrier is fresh
            assert mine is principal(fresh, i.apex)
        assert all(i.carrier is fresh for i in fresh.interned.values())
    assert all(i.carrier is base for i in base.interned.values())


def test_hom_check_is_computed_once_per_hom(q4):
    h = QuantaleHom.identity(q4)
    assert h.check() is h.check() and h.check().ok
    swapped = replace(h, mapping=(q4.top, q4.index("a"), q4.index("b"), q4.bottom))
    assert not swapped.check().ok


def test_memo_size_after_a_full_run():
    q = generate_from_spec("lukasiewicz:9")
    assert run_suite(q, "all", seed=7).ok
    # every ideal of a chain is principal and so is every generated set of
    # products there: only the n principal masks are interned
    assert set(q.interned) == set(q.down)


def test_unqueried_carrier_builds_no_memo():
    q = generate_from_spec("lukasiewicz:6")
    run_suite(q, "axioms")
    assert not any(name in vars(q) for name in (*MEMOS, *TABLES))
    stray = 1 << q.n
    for call in (
        lambda: annihilator(q, stray),
        lambda: annihilator(q, stray | 1),
        lambda: generated(q, stray | 1),
        lambda: mc_generated(q, q.n),
    ):
        with pytest.raises(QuantaleError):
            call()
    assert not any(name in vars(q) for name in (*MEMOS, *TABLES))
