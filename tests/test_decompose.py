import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qk import decompose
from qk.classify import is_primary, radical, spectrum
from qk.decompose import (
    all_minimal_decompositions,
    arithmetic_equivalence_check,
    irreducible_decomposition,
    is_arithmetic,
    is_irreducible,
    is_strongly_irreducible,
    isolated_component_formula,
    isolated_primes,
    minimal_strongly_irreducible_over,
    primary_decomposition,
    strongly_irreducible_elementwise,
    totally_ordered_ideals,
    uniqueness_report,
)
from qk.errors import (
    CarrierMismatch,
    NotDecomposable,
    NotProper,
    QuantaleError,
)
from qk.generators import generate_from_spec
from qk.ideals import (
    enumerate_ideals,
    meet_all,
    meet_ideals,
    principal,
    residual,
    whole_ideal,
    zero_ideal,
)
from qk.verify import run_suite, single_cell_mutants

import oracles
from oracles import MUTANTS, MUTATION_MUTANTS


def _assert_minimal(d):
    """Radicals pairwise distinct; no component contains the meet of the others."""
    q = d.target.carrier
    assert len(set(d.radicals)) == len(d.radicals)
    for k, c in enumerate(d.components):
        others = d.components[:k] + d.components[k + 1 :]
        assert not meet_all(q, others) <= c


def test_irreducible_sets_frozen(q4, m3):
    irr4 = {i.name for i in enumerate_ideals(q4) if is_irreducible(i)}
    assert irr4 == {"↓a", "↓b", "↓top"}
    s4 = {i.name for i in enumerate_ideals(q4) if is_strongly_irreducible(i)}
    assert s4 == irr4
    irr_m3 = {i.name for i in enumerate_ideals(m3) if is_irreducible(i)}
    assert irr_m3 == {"↓p", "↓q", "↓r", "↓m", "↓top"}
    s_m3 = {i.name for i in enumerate_ideals(m3) if is_strongly_irreducible(i)}
    assert s_m3 == {"↓m", "↓top"}


def test_strong_elementwise_agrees(q4, l3, m3, p3):
    for q in (q4, l3, m3, p3, *MUTANTS):
        for i in enumerate_ideals(q):
            assert is_strongly_irreducible(i) == strongly_irreducible_elementwise(i)


def test_primary_decomposition_q4_zero(q4):
    d = primary_decomposition(zero_ideal(q4))
    assert d.kind == "primary"
    _assert_minimal(d)
    assert {c.name for c in d.components} == {"↓a", "↓b"}
    assert {r.name for r in d.radicals} == {"↓a", "↓b"}
    assert meet_all(q4, d.components) == zero_ideal(q4)
    assert all(map(is_primary, d.components))


def test_primary_decomposition_l3_zero(l3):
    d = primary_decomposition(zero_ideal(l3))
    assert [c.name for c in d.components] == ["↓0"]
    assert [r.name for r in d.radicals] == ["↓1"]


def test_primary_decomposition_requires_proper(q4):
    with pytest.raises(NotProper):
        primary_decomposition(whole_ideal(q4))


def test_not_decomposable_with_gap(nondec):
    z = zero_ideal(nondec)
    with pytest.raises(NotDecomposable) as e:
        primary_decomposition(z)
    assert e.value.gap is not None
    assert e.value.gap.name == "↓1"
    # the rest of the carrier is still lawful
    from qk.core import check_axioms

    assert check_axioms(nondec).ok
    # and the irreducible decomposition still exists
    d = irreducible_decomposition(z)
    got = d.components[0]
    for c in d.components[1:]:
        got = meet_ideals(got, c)
    assert got == z


def test_primary_decomposition_matches_merge_and_prune(m3):
    # the search's first result is what merging equal radicals and pruning
    # gave, on lawful and broken tables alike; so is each refusal's gap
    compared = refused = 0
    specs = [*oracles.SPECS, "lowersets:chain8"]
    for q in [*map(generate_from_spec, specs), m3, *MUTANTS, *MUTATION_MUTANTS]:
        for i in filter(lambda i: i.proper, enumerate_ideals(q)):
            try:
                want = oracles.merge_and_prune(i)
            except NotDecomposable as e:
                with pytest.raises(NotDecomposable, match=f"^{re.escape(str(e))}$") as got:
                    primary_decomposition(i)
                assert got.value.gap == e.gap, (q.name, i.name)
                refused += 1
                continue
            d = primary_decomposition(i)
            assert (d.components, d.radicals) == want, (q.name, i.name)
            compared += 1
    assert (compared, refused) == (256, 35)


def test_two_minimal_decompositions_with_different_radicals():
    # powerset:2 with 1 & 2 rewritten to 1: ↓bot is prime and its own
    # decomposition, and ↓1 meets ↓2 in it; a lawful carrier has no such
    # pair, as every minimal decomposition has the colon primes as radicals
    q = generate_from_spec("powerset:2")
    rows = [list(r) for r in q.mul]
    rows[1][2] = rows[2][1] = 1
    q = replace(q, name="powerset2~1,2", mul=tuple(map(tuple, rows)))
    zero, one, two = zero_ideal(q), principal(q, 1), principal(q, 2)
    assert all_minimal_decompositions(zero) == [(zero,), (one, two)]
    assert primary_decomposition(zero).components == (zero,)
    message = "associated primes ['↓1', '↓2'] differ from colon primes ['↓bot'] at ↓bot"
    with pytest.raises(QuantaleError, match=f"^{re.escape(message)}$"):
        uniqueness_report(zero)
    rows = {r.law: r for r in run_suite(q, "uniqueness", seed=0).results}
    assert rows["associated_eq_colon_primes"].status == "fail"
    assert rows["associated_eq_colon_primes"].witness == ("↓bot",)


def test_uniqueness_q4(q4):
    rep = uniqueness_report(zero_ideal(q4))
    assert {p.name for p in rep.associated_primes} == {"↓a", "↓b"}
    assert {p.name for p in rep.isolated} == {"↓a", "↓b"}
    assert rep.embedded == ()
    assert rep.isolated_components_match


def test_uniqueness_report_lists_the_primary_candidates_once(q4, monkeypatch):
    # the decomposition and every minimal decomposition read one list
    calls = []
    candidates = decompose.primary_candidates
    monkeypatch.setattr(decompose, "primary_candidates", lambda i: calls.append(i) or candidates(i))
    rep = uniqueness_report(zero_ideal(q4))
    assert rep.isolated_components_match
    assert calls == [zero_ideal(q4)]


def test_uniqueness_p3(p3):
    i = principal(p3, p3.index("1"))
    rep = uniqueness_report(i)
    assert {p.name for p in rep.associated_primes} == {"↓12", "↓13"}
    assert {p.name for p in rep.isolated} == {"↓12", "↓13"}
    assert rep.isolated_components_match
    # isolated components recovered by the membership formula
    d = primary_decomposition(i)
    by_rad = dict(zip(d.radicals, d.components))
    for p in rep.isolated:
        assert by_rad[p] == isolated_component_formula(i, p)


def test_isolated_component_formula_refuses_another_carrier(q4):
    q, r = generate_from_spec("powerset:2"), generate_from_spec("lukasiewicz:4")
    with pytest.raises(CarrierMismatch, match=r"\(powerset2, lukasiewicz4\)"):
        isolated_component_formula(zero_ideal(q), principal(r, 2))
    with pytest.raises(CarrierMismatch):
        isolated_component_formula(zero_ideal(q4), principal(replace(q4), q4.index("a")))


def test_all_minimal_decompositions_share_radicals(q4, l3, p3):
    for q in (q4, l3, p3):
        for i in enumerate_ideals(q):
            if not i.proper:
                continue
            try:
                d = primary_decomposition(i)
            except NotDecomposable:
                continue
            want = {r.members for r in d.radicals}
            for comps in all_minimal_decompositions(i):
                assert {radical(c).members for c in comps} == want


def _pairwise_minimal(family):
    return tuple(p for p in family if not any(o < p for o in family))


def test_isolated_primes_are_the_pairwise_minimal_radicals(q4, l3, m3, p3):
    compared = 0
    for q in (q4, l3, m3, p3, *map(generate_from_spec, ("lukasiewicz:6", "lowersets:chain4"))):
        # families with nested members: the spectrum and the proper ideals
        for family in (tuple(spectrum(q)), tuple(i for i in enumerate_ideals(q) if i.proper)):
            assert isolated_primes(family) == _pairwise_minimal(family)
        for i in enumerate_ideals(q):
            if not i.proper:
                continue
            try:
                rads = primary_decomposition(i).radicals
            except NotDecomposable:
                continue
            for family in (rads, rads[::-1]):
                assert isolated_primes(family) == _pairwise_minimal(family), (q.name, i.name)
            compared += 1
    assert compared == 26
    # a repeated member is kept, each time, in the family's order
    a, b, top = (principal(q4, q4.index(x)) for x in ("a", "b", "top"))
    assert isolated_primes((top, a, b, a)) == (a, b, a)
    assert isolated_primes(()) == ()


def _minimal_decompositions_scan(i):
    """Every subset of the primary ideals over i, in bitmask order, kept
    when it meets to i with distinct radicals and no redundant member."""
    q = i.carrier
    cands = sorted(
        (c for c in enumerate_ideals(q) if i <= c and is_primary(c)),
        key=lambda c: (c.size, c.apex),
    )
    out = []
    for pick in range(1, 1 << len(cands)):
        comps = [cands[k] for k in range(len(cands)) if pick >> k & 1]
        if meet_all(q, comps) != i:
            continue
        rads = [radical(c).members for c in comps]
        if len(set(rads)) != len(rads):
            continue
        if len(comps) > 1 and any(
            meet_all(q, comps[:k] + comps[k + 1 :]) == i for k in range(len(comps))
        ):
            continue
        out.append(tuple(comps))
    return out


@pytest.mark.parametrize(
    "spec",
    [
        "lukasiewicz:3",
        "lukasiewicz:6",
        "lukasiewicz:9",
        "powerset:2",
        "powerset:3",
        "m3",
        "lowersets:chain4",
        "lowersets:antichain2",
        "lowersets:3:0<1",
        "lowersets:4:0<1,2<3",
        "opens:sierpinski",
        "opens:3:-,0,01,012",
    ],
)
def test_all_minimal_decompositions_match_the_subset_scan(spec):
    q = generate_from_spec(spec)
    compared = 0
    for i in enumerate_ideals(q):
        if i.proper:
            assert all_minimal_decompositions(i) == _minimal_decompositions_scan(i)
            compared += 1
    assert compared == q.n - 1


_SMALL = [generate_from_spec(s) for s in ("powerset:2", "lukasiewicz:4", "m3", "lowersets:3:0<1")]


@st.composite
def symmetric_rewrites(draw):
    """A small lawful carrier with 1 to 4 mul cells rewritten in symmetric
    pairs: commutative, mostly not a quantale, and often holding an ideal
    with more than one minimal decomposition."""
    q = draw(st.sampled_from(_SMALL))
    element = st.integers(0, q.n - 1)
    rows = [list(r) for r in q.mul]
    for i, j, v in draw(st.lists(st.tuples(element, element, element), min_size=1, max_size=4)):
        rows[i][j] = rows[j][i] = v
    return replace(q, name=f"{q.name}~", mul=tuple(map(tuple, rows)))


@settings(max_examples=200, deadline=None)
@given(symmetric_rewrites())
def test_all_minimal_decompositions_match_the_scan_on_broken_tables(q):
    for i in enumerate_ideals(q):
        if i.proper:
            assert all_minimal_decompositions(i) == _minimal_decompositions_scan(i)


@pytest.mark.parametrize("spec", ["m3", "powerset:2", "lukasiewicz:4"])
def test_all_minimal_decompositions_on_every_symmetric_rewrite(spec):
    # m3's rewrites reach decompositions through the third member of a
    # radical group; several have more than one minimal decomposition
    q = generate_from_spec(spec)
    for i in range(q.n):
        for j in range(i, q.n):
            for v in range(q.n):
                rows = [list(r) for r in q.mul]
                rows[i][j] = rows[j][i] = v
                mutant = replace(q, name=f"{q.name}~{i},{j}={v}", mul=tuple(map(tuple, rows)))
                for ideal in enumerate_ideals(mutant):
                    if ideal.proper:
                        want = _minimal_decompositions_scan(ideal)
                        assert all_minimal_decompositions(ideal) == want, mutant.name


def test_arithmetic_flags(q4, l3, m3, p3):
    assert is_arithmetic(q4)
    assert is_arithmetic(l3)
    assert is_arithmetic(p3)
    assert not is_arithmetic(m3)


def test_arithmetic_equivalence_reports(q4, m3):
    rep = arithmetic_equivalence_check(q4)
    assert rep.arithmetic and rep.sets_equal and rep.representation_ok
    assert rep.distributivity_witness is None
    rep3 = arithmetic_equivalence_check(m3)
    assert not rep3.arithmetic
    assert not rep3.sets_equal
    assert rep3.distributivity_witness is not None
    assert {i.name for i in rep3.irreducibles} - {i.name for i in rep3.strongly_irreducibles}


def test_arithmetic_check_names_the_first_ideal_its_strong_irreducibles_miss(monkeypatch):
    # the representation loop fails only with a wrong library: with ↓2 of
    # the chain lukasiewicz:5 read as not strongly irreducible, the strongly
    # irreducibles over ↓2 meet to ↓3, and the two forward laws fail
    q = generate_from_spec("lukasiewicz:5")
    wrong = principal(q, 2)
    monkeypatch.setattr(decompose, "is_strongly_irreducible", lambda i: i is not wrong)
    rep = arithmetic_equivalence_check(q)
    assert rep.arithmetic and not rep.sets_equal
    assert not rep.representation_ok and rep.representation_witness is wrong
    report = run_suite(q, "arithmetic", seed=0)
    assert [r.law for r in report.failures()] == ["forward_sets_equal", "forward_representation"]


def test_irreducible_decomposition_refuses_an_ideal_the_irreducibles_miss():
    # the irreducibles over the residual (↓0 : ↓0) = {1,...,6} of
    # lukasiewicz:7 with 0 & 0 = 6, a mask that is no down-set, meet to ↓6.
    # On a lawful carrier every ideal is principal, the meet of the
    # irreducibles over it, so only such input reaches the raise
    q = generate_from_spec("lukasiewicz:7")
    mul = [list(row) for row in q.mul]
    mul[0][0] = 6
    broken = replace(q, name="lukasiewicz7~0,0", mul=tuple(map(tuple, mul)))
    i = residual(principal(broken, 0), principal(broken, 0))
    assert i.name == "{1,2,3,4,5,6}"
    with pytest.raises(NotDecomposable, match=r"^irreducible ideals over \{1,2,3,4,5,6\} intersect to ↓6$") as e:
        irreducible_decomposition(i)
    assert e.value.gap is principal(broken, 6)


def test_minimal_strongly_irreducible_over(q4, m3):
    m = minimal_strongly_irreducible_over(zero_ideal(q4))
    assert m.name == "↓a"  # ties break toward the lowest apex
    assert minimal_strongly_irreducible_over(zero_ideal(m3)).name == "↓m"
    with pytest.raises(NotProper):
        minimal_strongly_irreducible_over(whole_ideal(q4))


def test_totally_ordered_ideals(q4, l3, c2):
    assert totally_ordered_ideals(l3)
    assert totally_ordered_ideals(c2)
    assert not totally_ordered_ideals(q4)
    # chain carriers have every ideal strongly irreducible
    for i in enumerate_ideals(l3):
        assert is_strongly_irreducible(i)


def test_irreducible_decomposition_is_irredundant(q4, l3, m3, p3):
    for q in (q4, l3, m3, p3):
        for i in enumerate_ideals(q):
            if not i.proper:
                continue
            d = irreducible_decomposition(i)
            got = d.components[0]
            for c in d.components[1:]:
                got = meet_ideals(got, c)
            assert got == i
            for k in range(len(d.components)):
                rest = [c for j, c in enumerate(d.components) if j != k]
                if not rest:
                    continue
                m = rest[0]
                for c in rest[1:]:
                    m = meet_ideals(m, c)
                assert m != i  # dropping any component changes the meet


def test_decomposition_refusals_name_their_fault(q4):
    whole = whole_ideal(q4)
    cases = [
        (lambda: primary_decomposition(whole), NotProper, "↓top is the whole carrier"),
        (lambda: irreducible_decomposition(whole), NotProper, "↓top is the whole carrier"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            call()


def test_uniqueness_refusals_on_q4_mutants(q4):
    """The refusals that no lawful carrier reaches: x & y rewritten to top
    at (bot, bot), or to bottom at (top, top)."""
    mutant = {(i, j): m for i, j, m in single_cell_mutants(q4)}
    bot_bot, top_top = mutant[0, 0], mutant[3, 3]
    cases = [
        (lambda: uniqueness_report(zero_ideal(bot_bot)),
         "associated primes ['↓a', '↓b'] differ from colon primes ['{}', '{a}', '{b}'] at ↓bot"),
        (lambda: uniqueness_report(zero_ideal(top_top)),
         "isolated primes at ↓bot are not the minimal primes over it"),
    ]
    for call, message in cases:
        with pytest.raises(QuantaleError, match=f"^{re.escape(message)}$") as e:
            call()
        assert type(e.value) is QuantaleError
