from dataclasses import fields
from pathlib import Path

import pytest

from qk import classify
from qk.classify import (
    all_mc_sets,
    are_coprime,
    classification,
    is_local,
    is_mc,
    is_primary,
    is_prime,
    is_prime_idealwise,
    is_irreducible,
    is_qd,
    is_saturated,
    is_semiprime,
    is_semiprime_idealwise,
    is_strongly_irreducible,
    jacobson,
    maximal_avoiding,
    maximal_ideals,
    mc_generated,
    mc_set,
    minimal_primes_over,
    nilradical,
    prime_avoidance,
    primes_over,
    radical,
    saturation,
    spectrum,
    zero_divisors,
)
from qk.core import build_quantale, check_axioms
from qk.errors import (
    CarrierMismatch,
    Degenerate,
    HypothesisViolated,
    NoAvoidingIdeal,
    NotMc,
    NotProper,
    QuantaleError,
    TooLarge,
)
from qk.generators import generate_from_spec
from qk.ideals import enumerate_ideals, ideal_quantale, principal, whole_ideal, zero_ideal
from qk.quantfile import load_quant
from qk.verify import single_cell_mutants

from oracles import (
    DATA,
    MUTANTS,
    MUTATION_MUTANTS,
    SPECS,
    irreducible_witness_scan,
    mc_radical_scan,
    primary_witness_scan,
    prime_witness_scan,
    strongly_irreducible_witness_scan,
)


def test_spectrum_frozen(q4, l3, m3):
    assert {p.name for p in spectrum(q4)} == {"↓a", "↓b"}
    assert {p.name for p in spectrum(l3)} == {"↓1"}
    assert {p.name for p in spectrum(m3)} == {"↓m"}


def test_prime_forms_agree(q4, l3, m3, p3):
    for q in (q4, l3, m3, p3):
        for i in enumerate_ideals(q):
            assert is_prime(i) == is_prime_idealwise(i)
            assert is_semiprime(i) == is_semiprime_idealwise(i)


def test_q4_zero_not_prime_but_semiprime(q4):
    z = zero_ideal(q4)
    assert not is_prime(z)  # a & b = bot with neither inside
    assert is_semiprime(z)  # no nonzero square lands in bot
    # in fact every ideal here is semiprime
    for i in enumerate_ideals(q4):
        assert is_semiprime(i)


def test_whole_ideal_conventions(q4):
    w = whole_ideal(q4)
    assert not is_prime(w)  # proper is required
    assert not is_primary(w)
    assert is_semiprime(w)  # properness is not required here


def test_l3_zero_primary_not_prime(l3):
    z = zero_ideal(l3)
    assert is_primary(z)
    assert not is_prime(z)
    assert radical(z) != z
    assert radical(z).name == "↓1"


def test_radical_algorithms_agree_everywhere(q4, l3, m3, p3):
    for q in (q4, l3, m3, p3):
        for i in enumerate_ideals(q):
            r1 = radical(i, "powers")
            r2 = radical(i, "primes")
            assert r1 == r2 and r1.members == mc_radical_scan(i), (q.name, i.name)


def test_radical_rejects_unknown_algorithm(l3):
    with pytest.raises(ValueError):
        radical(zero_ideal(l3), "magic")


def test_radical_of_whole_is_whole(q4):
    assert radical(whole_ideal(q4)) == whole_ideal(q4)


def test_primes_over_and_minimal(l3, p3):
    z = zero_ideal(l3)
    assert [p.name for p in primes_over(z)] == ["↓1"]
    assert [p.name for p in minimal_primes_over(z)] == ["↓1"]
    with pytest.raises(NotProper):
        minimal_primes_over(whole_ideal(l3))
    z3 = zero_ideal(p3)
    assert {p.name for p in minimal_primes_over(z3)} == {"↓12", "↓13", "↓23"}


def test_maximal_ideals_and_local(q4, l3):
    assert {m.name for m in maximal_ideals(q4)} == {"↓a", "↓b"}
    flag, at = is_local(q4)
    assert not flag and at is None
    flag, at = is_local(l3)
    assert flag and at.name == "↓1"


def test_degenerate_carrier():
    one = build_quantale(["x"], [], [["x"]])
    with pytest.raises(Degenerate):
        maximal_ideals(one)


def test_jacobson_and_nilradical(q4, l3):
    assert jacobson(q4) == zero_ideal(q4)
    assert nilradical(q4) == zero_ideal(q4)
    assert nilradical(l3).name == "↓1"
    assert nilradical(l3) == jacobson(l3)


def test_reduced_and_qd(q4, l3, c2):
    assert nilradical(q4).is_zero and not nilradical(l3).is_zero
    za, zb = zero_divisors(q4), zero_divisors(l3)
    assert {q4.elements[x] for x in za} == {"a", "b"}
    assert {l3.elements[x] for x in zb} == {"1"}
    assert not is_qd(q4) and not is_qd(l3)
    assert is_qd(c2)
    assert zero_divisors(c2) == ()
    # QD agrees with the zero ideal being prime
    assert is_prime(zero_ideal(c2))


def test_mc_sets_q4(q4):
    brute = []
    for m in range(1, q4.full + 1):
        if is_mc(q4, m):
            brute.append(m)
    got = [s.members for s in all_mc_sets(q4)]
    assert sorted(got) == sorted(brute)
    assert len(got) == 7
    assert all(m >> q4.top & 1 for m in got)


def test_mc_set_constructor(q4):
    s = mc_set(q4, 1 << q4.top | 1 << q4.index("a"))
    assert q4.index("a") in s
    with pytest.raises(NotMc):
        mc_set(q4, 1 << q4.index("a"))  # missing the unit


def test_mc_generated(l3):
    s = mc_generated(l3, l3.index("1"))
    # powers of 1 descend to 0, and the unit is always included
    assert set(s.carrier.labels(s.members).split()) == {"0", "1", "2"}


def test_saturation_and_saturated(q4):
    top_only = mc_set(q4, 1 << q4.top)
    assert saturation(top_only).members == 1 << q4.top
    assert is_saturated(top_only)
    with_a = mc_set(q4, 1 << q4.top | 1 << q4.index("a"))
    assert is_saturated(with_a)
    # saturation of any mc set is the least saturated superset
    for s in all_mc_sets(q4):
        t = saturation(s)
        assert s.members & ~t.members == 0
        assert is_saturated(t)


def _reversed(q):
    """q built again with its elements listed in the opposite order."""
    labels = q.elements
    pairs = [(labels[x], labels[y]) for x in range(q.n) for y in range(q.n) if q.leq(x, y)]
    mul = [[labels[z] for z in reversed(q.mul[x])] for x in reversed(range(q.n))]
    return build_quantale(labels[::-1], pairs, mul, name=f"{q.name}_reversed")


@pytest.mark.parametrize("spec", ["powerset:3", "lowersets:4:0<1,2<3", "lowersets:chain4"])
def test_is_saturated_matches_its_definition_in_any_element_order(spec):
    # in the order qk builds a carrier, the test that x is in the set adds
    # nothing; with the order reversed it decides some of these mc sets
    q = _reversed(generate_from_spec(spec))
    assert check_axioms(q).ok
    for s in all_mc_sets(q):
        m = s.members
        both = all(
            m >> x & 1 and m >> y & 1
            for x in range(q.n) for y in range(q.n) if m >> q.mul[x][y] & 1
        )
        assert is_saturated(s) == both, q.labels(m)


def test_saturated_complement_is_union_of_primes(q4, l3, m3):
    for q in (q4, l3, m3):
        primes = spectrum(q)
        for s in all_mc_sets(q):
            union = 0
            for p in primes:
                if not p.members & s.members:
                    union |= p.members
            assert is_saturated(s) == (s.complement == union)


def test_maximal_avoiding(q4):
    s = mc_set(q4, 1 << q4.top | 1 << q4.index("a"))
    found = maximal_avoiding(s)
    assert found.name == "↓b"
    assert is_prime(found)
    with pytest.raises(NoAvoidingIdeal):
        maximal_avoiding(mc_set(q4, 1 << q4.top | 1 << q4.bottom))


def test_prime_avoidance_positive(q4):
    a = principal(q4, q4.index("a"))
    b = principal(q4, q4.index("b"))
    stable = 1 << q4.top
    x = prime_avoidance(q4, stable, [a, b])
    assert x == q4.top


def test_prime_avoidance_hypotheses(q4):
    a = principal(q4, q4.index("a"))
    ai, bi = q4.index("a"), q4.index("b")
    # join leaves the set
    with pytest.raises(HypothesisViolated) as e:
        prime_avoidance(q4, 1 << ai | 1 << bi, [a])
    assert e.value.hypothesis == "stable_under_join"
    # product leaves the set
    with pytest.raises(HypothesisViolated) as e:
        prime_avoidance(q4, 1 << ai | 1 << bi | 1 << q4.top, [a])
    assert e.value.hypothesis == "stable_under_mul"
    # third ideal must be prime
    z = principal(q4, q4.bottom)
    with pytest.raises(HypothesisViolated) as e:
        prime_avoidance(q4, 1 << q4.top, [a, a, z])
    assert e.value.hypothesis == "prime_tail"
    # the set must escape every ideal
    with pytest.raises(HypothesisViolated) as e:
        prime_avoidance(q4, 1 << q4.bottom | 1 << ai, [principal(q4, ai)])
    assert e.value.hypothesis == "not_contained"
    # a set reaching outside the carrier is refused before any table lookup
    with pytest.raises(QuantaleError, match=r"indices \[4\] are not elements"):
        prime_avoidance(q4, 1 << q4.n, [a])


def test_prime_avoidance_refuses_ideals_of_another_carrier():
    q, r = generate_from_spec("powerset:2"), generate_from_spec("lukasiewicz:4")
    with pytest.raises(CarrierMismatch, match="↓1 is not an ideal of powerset2"):
        prime_avoidance(q, q.full, [principal(r, 1)])
    with pytest.raises(CarrierMismatch):
        prime_avoidance(q, 1 << q.top, [zero_ideal(q), principal(r, 0)])


def test_mc_indices_outside_the_carrier(q4):
    assert not is_mc(q4, [q4.top, q4.n])
    assert not is_mc(q4, [q4.top, -1])
    with pytest.raises(QuantaleError, match=r"indices \[4\] are not elements of q4"):
        mc_set(q4, q4.full | 1 << q4.n)
    with pytest.raises(QuantaleError, match=r"indices \[4\] are not elements of q4"):
        mc_generated(q4, q4.n)


def test_are_coprime(p3, q4):
    i12 = principal(p3, p3.index("12"))
    i3 = principal(p3, p3.index("3"))
    assert are_coprime(i12, i3)
    a = principal(q4, q4.index("a"))
    assert not are_coprime(a, zero_ideal(q4))


def test_classification_l3_zero(l3):
    c = classification(zero_ideal(l3))
    assert c.proper and not c.maximal and c.minimal_ideal is False
    assert not c.prime and not c.semiprime
    assert c.primary and not c.radical_ideal
    assert c.irreducible and c.strongly_irreducible
    assert c.radical.name == "↓1"
    assert "prime" in c.witnesses
    one = l3.index("1")
    assert c.witnesses["prime"] == (one, one)


def test_classification_q4_prime(q4):
    c = classification(principal(q4, q4.index("a")))
    assert c.prime and c.semiprime and c.primary and c.radical_ideal
    assert c.maximal
    assert c.irreducible and c.strongly_irreducible
    assert c.radical.name == "↓a"


def _bases():
    """The bundled and generated carriers."""
    data = Path(__file__).parent / "data"
    bases = [load_quant(data / f"{s}.quant") for s in ("q4", "l3", "c2", "nondec")]
    bases += [
        generate_from_spec(s)
        for s in (
            "m3", "powerset:2", "powerset:3", "lukasiewicz:1", "lukasiewicz:5",
            "lukasiewicz:7", "opens:sierpinski", "opens:point3", "lowersets:chain4",
            "lowersets:4:0<1,2<3", "lowersets:antichain3",
        )
    ]
    return bases


def _carriers():
    """The bundled and generated carriers, each followed by its commutative
    single-cell mutants."""
    for b in _bases():
        yield b
        yield from (m for _, _, m in single_cell_mutants(b) if m.commutative)


def _refutes(q, i, prop, wit) -> bool:
    """Whether wit is a counterexample to prop at the ideal i."""
    inside = i.__contains__
    if prop == "proper":
        return wit == () and i.is_whole
    if prop == "maximal":
        return wit == () and i.is_whole or (
            len(wit) == 1 and i < principal(q, wit[0]) and principal(q, wit[0]).proper
        )
    if prop == "minimal_ideal":
        return wit == () and i.is_zero or (
            len(wit) == 1 and principal(q, wit[0]) < i and not principal(q, wit[0]).is_zero
        )
    if prop in ("prime", "primary") and wit == ():
        return i.is_whole
    if prop == "prime":
        x, y = wit
        return not inside(x) and not inside(y) and inside(q.mul[x][y])
    if prop == "semiprime":
        (x,) = wit
        return not inside(x) and inside(q.mul[x][x])
    if prop == "primary":
        x, y = wit
        powers, p = set(), y
        for _ in range(q.n):
            powers.add(p)
            p = q.mul[y][p]
        return not inside(x) and inside(q.mul[x][y]) and not any(map(inside, powers))
    if prop == "radical_ideal":
        (x,) = wit
        return x in radical(i) and not inside(x)
    a, b = (principal(q, x) for x in wit)
    meet = a.members & b.members
    if prop == "irreducible":
        return i < a and i < b and meet == i.members
    assert prop == "strongly_irreducible"
    return not a <= i and not b <= i and meet & ~i.members == 0


def test_classification_flags_match_the_predicates_and_witnesses_refute():
    count = 0
    for q in _carriers():
        maximal = maximal_ideals(q) if q.bottom != q.top else None
        for i in enumerate_ideals(q):
            c = classification(i)
            count += 1
            assert c.proper == i.proper
            assert c.prime == is_prime(i)
            assert c.semiprime == is_semiprime(i)
            assert c.primary == is_primary(i)
            assert c.radical_ideal == (radical(i) == i)
            assert c.irreducible == is_irreducible(i)
            assert c.strongly_irreducible == is_strongly_irreducible(i)
            if maximal is not None:
                assert c.maximal == (i in maximal)
            assert c.radical is radical(i)
            flags = {f.name: getattr(c, f.name) for f in fields(c)}
            assert [k for k, v in flags.items() if v is False] == list(c.witnesses)
            for prop, wit in c.witnesses.items():
                assert _refutes(q, i, prop, wit), (q.name, i.name, prop, wit)
    assert count > 400


def test_pair_witnesses_are_the_first_of_the_unfiltered_scans():
    carriers = [load_quant(DATA / f"{s}.quant") for s in ("q4", "l3", "c2", "nondec")]
    carriers += [generate_from_spec(s) for s in [*SPECS, "lukasiewicz:24"]]
    count = 0
    for q in [*carriers, *MUTANTS, *MUTATION_MUTANTS]:
        for i in enumerate_ideals(q):
            want = {
                "prime": prime_witness_scan(i) if i.proper else (),
                "primary": primary_witness_scan(i) if i.proper else (),
                "irreducible": irreducible_witness_scan(i),
                "strongly_irreducible": strongly_irreducible_witness_scan(i),
            }
            w = classification(i).witnesses
            assert {k: w.get(k) for k in want} == want, (q.name, i.name)
            count += 1
    assert count == 371


def test_disjoint_pair_answers_parts_sharing_an_element_without_a_pair_scan():
    # where every part's mask holds a common element no two are disjoint:
    # the AND of the masks answers before the pair scan takes any slice
    class Unsliced(list):
        def __getitem__(self, k):
            if isinstance(k, slice):
                raise AssertionError("pair scan")
            return super().__getitem__(k)

    assert classify._disjoint_pair(Unsliced([(0b011, 0), (0b110, 1), (0b111, 2)])) is None
    assert classify._disjoint_pair(Unsliced([])) is None
    with pytest.raises(AssertionError, match="pair scan"):
        classify._disjoint_pair(Unsliced([(0b011, 0), (0b100, 1)]))
    assert classify._disjoint_pair([(0b011, 0), (0b110, 1), (0b100, 2)]) == (0, 2)


def test_all_mc_sets_refuses_large_carriers(monkeypatch):
    with pytest.raises(TooLarge):
        all_mc_sets(generate_from_spec("lukasiewicz:21"))
    monkeypatch.setattr(classify, "MC_SETS_MAX_N", 3)
    assert len(all_mc_sets(generate_from_spec("lukasiewicz:3"))) > 0
    with pytest.raises(TooLarge):
        all_mc_sets(generate_from_spec("lukasiewicz:4"))


def test_extremal_walks_match_the_definitional_scans():
    # maximal_ideals, minimal_primes_over and maximal_avoiding walk masks
    # largest (or smallest) first; each must give the members, in the
    # family's order, that the pairwise strict-inclusion scan gives
    bases = _bases()
    for q in [*bases, *(ideal_quantale(b).quantale for b in bases), *MUTANTS]:
        ideals = enumerate_ideals(q)
        proper = [i for i in ideals if i.proper]
        if proper:  # maximal ideals need bottom != top
            assert maximal_ideals(q) == [m for m in proper if not any(m < o for o in proper)], q.name
        for i in proper:
            over = primes_over(i)
            assert minimal_primes_over(i) == [p for p in over if not any(o < p for o in over)]
        for s in all_mc_sets(q):
            if s.members >> q.bottom & 1:
                continue
            disjoint = [i for i in ideals if not i.members & s.members]
            best = [i for i in disjoint if not any(i < o for o in disjoint)]
            assert maximal_avoiding(s) is min(best, key=lambda i: i.apex), (q.name, s)
