import re
from dataclasses import replace

import pytest

from qk import classify as cl, decompose as dc
from qk.core import QuantaleHom, build_quantale, check_axioms
from qk.generators import generate_from_spec
from qk.errors import (
    CarrierMismatch,
    EmptyGeneratorSet,
    HomInvalid,
    NotCommutative,
    QuantaleError,
    TooLarge,
)
from qk.ideals import (
    Ideal,
    annihilator,
    as_ideal,
    contraction,
    enumerate_ideals,
    extension,
    generated,
    ideal_from_closure,
    ideal_quantale,
    is_ideal,
    join_ideals,
    meet_all,
    meet_ideals,
    principal,
    product_closure,
    product_ideals,
    residual,
    whole_ideal,
    zero_ideal,
)
from qk.verify import single_cell_mutants

from oracles import SPECS


def brute_force_ideals(q):
    """Independent enumeration: every nonempty down- and join-closed subset."""
    out = []
    for m in range(1, q.full + 1):
        down_ok = all(q.down[x] & ~m == 0 for x in range(q.n) if m >> x & 1)
        join_ok = all(
            m >> q.join[x][y] & 1
            for x in range(q.n)
            if m >> x & 1
            for y in range(q.n)
            if m >> y & 1
        )
        if down_ok and join_ok:
            out.append(m)
    return sorted(out)


def test_enumeration_matches_brute_force(q4, l3, m3, p3):
    for q in (q4, l3, m3, p3):
        got = sorted(i.members for i in enumerate_ideals(q))
        assert got == brute_force_ideals(q)


def test_every_ideal_is_principal(q4, m3, p3):
    for q in (q4, m3, p3):
        for i in enumerate_ideals(q):
            assert i.members == q.down[i.apex]


def test_is_principal_and_name(q4):
    for spec in SPECS:
        q = generate_from_spec(spec)
        for i in enumerate_ideals(q):
            assert i.is_principal and i.name == "↓" + q.elements[i.apex], (spec, i.members)
    # interned masks that are no down-set are named by their members
    a = q4.index("a")
    for m, name in ((0, "{}"), (1 << a, "{a}")):
        assert not q4.interned[m].is_principal and q4.interned[m].name == name
    # with 0 & 0 = 6 the colon prime of ↓3 is the mask 1 2 3 4 5, whose join is 5
    l7 = generate_from_spec("lukasiewicz:7")
    mutant = next(m for i, j, m in single_cell_mutants(l7) if (i, j) == (0, 0))
    (p,) = dc.colon_primes(principal(mutant, mutant.index("3")))
    assert p.members == 0b0111110 and p.apex == mutant.index("5")
    assert not p.is_principal and p.name == "{1,2,3,4,5}"


def test_is_ideal_rejections(q4):
    a, b = q4.index("a"), q4.index("b")
    assert not is_ideal(q4, 0)
    # {a}: missing bot below it
    assert not is_ideal(q4, 1 << a)
    # {bot, a, b}: missing the join a v b = top
    assert not is_ideal(q4, 1 << q4.bottom | 1 << a | 1 << b)
    assert is_ideal(q4, q4.down[a])


def test_is_ideal_outside_the_carrier(q4):
    assert not is_ideal(q4, q4.full | 1 << q4.n)
    assert not is_ideal(q4, [q4.bottom, -1])


def test_as_ideal(q4):
    i = as_ideal(q4, q4.down[q4.index("a")])
    assert i == principal(q4, q4.index("a"))
    with pytest.raises(Exception):
        as_ideal(q4, 1 << q4.index("a"))


def test_ideal_names_and_flags(q4):
    z, w = zero_ideal(q4), whole_ideal(q4)
    assert z.name == "↓bot" and w.name == "↓top"
    assert z.is_zero and not z.is_whole and z.proper
    assert w.is_whole and not w.proper
    assert z.size == 1 and w.size == 4
    assert z < w and z <= w and not w <= z
    assert q4.index("a") in principal(q4, q4.index("a"))


def test_carrier_mismatch(q4, l3):
    with pytest.raises(CarrierMismatch):
        meet_ideals(zero_ideal(q4), zero_ideal(l3))
    with pytest.raises(CarrierMismatch):
        zero_ideal(q4) <= zero_ideal(l3)
    # same structure, another carrier: a lookup by apex would answer silently
    twin = replace(q4)
    ops = [
        meet_ideals, join_ideals, product_ideals, product_closure, residual,
        lambda i, j: i < j, lambda i, j: i <= j,
    ]
    for i in enumerate_ideals(q4):
        for j in enumerate_ideals(twin):
            for op in ops:
                with pytest.raises(CarrierMismatch):
                    op(i, j)
                with pytest.raises(CarrierMismatch):
                    op(j, i)


def test_meet_all(q4, l3):
    a = principal(q4, q4.index("a"))
    b = principal(q4, q4.index("b"))
    assert meet_all(q4, []) == whole_ideal(q4)
    assert meet_all(q4, [a]) == a
    assert meet_all(q4, [a, b]) == meet_ideals(a, b) == zero_ideal(q4)
    assert meet_all(q4, iter(enumerate_ideals(q4))) == zero_ideal(q4)
    with pytest.raises(CarrierMismatch):
        meet_all(q4, [a, zero_ideal(l3)])


def test_generated_frozen_values(q4, l3):
    a, b = q4.index("a"), q4.index("b")
    assert generated(q4, 1 << a).members == q4.down[a]
    assert generated(q4, 1 << a | 1 << b) == whole_ideal(q4)
    one = l3.index("1")
    assert sorted(generated(l3, 1 << one).indices()) == [0, 1]
    with pytest.raises(EmptyGeneratorSet):
        generated(q4, 0)


def test_generated_equals_downset_of_join(q4, l3, m3):
    for q in (q4, l3, m3):
        for s in range(1, q.full + 1):
            want = q.down[q.join_of(x for x in range(q.n) if s >> x & 1)]
            assert generated(q, s).members == want


def test_ideal_from_closure(q4):
    a, b = q4.index("a"), q4.index("b")
    got = ideal_from_closure(q4, 1 << a | 1 << b)
    assert got == whole_ideal(q4)


def test_ops_frozen_values(q4, l3):
    a = principal(q4, q4.index("a"))
    b = principal(q4, q4.index("b"))
    assert meet_ideals(a, b) == zero_ideal(q4)
    assert join_ideals(a, b) == whole_ideal(q4)
    assert product_ideals(a, b) == zero_ideal(q4)
    assert residual(zero_ideal(q4), a) == b

    one = principal(l3, l3.index("1"))
    assert product_ideals(one, one) == zero_ideal(l3)
    assert residual(zero_ideal(l3), one) == one


def test_product_closure_agrees(q4, l3, m3):
    for q in (q4, l3, m3):
        ideals = enumerate_ideals(q)
        for i in ideals:
            for j in ideals:
                assert product_ideals(i, j) == product_closure(i, j)


def test_residual_is_largest_solution(q4, l3):
    for q in (q4, l3):
        ideals = enumerate_ideals(q)
        for i in ideals:
            for j in ideals:
                r = residual(i, j)
                assert product_ideals(r, j) <= i
                for k in ideals:
                    if product_ideals(k, j) <= i:
                        assert k <= r


def test_residual_of_principal_ideals_reads_the_table():
    # (↓1 : ↓3) = ↓2 on the Lukasiewicz chain 0 < ... < 4; a copy whose
    # residuation table says 4 there must answer the whole carrier, so a
    # gate that always scans fails here
    q = generate_from_spec("lukasiewicz:5")
    assert residual(principal(q, 1), principal(q, 3)) is principal(q, 2)
    table = [list(r) for r in q.residuals]
    table[3][1] = 4
    tampered = replace(q, name="lukasiewicz5~")
    tampered.__dict__["residuals"] = tuple(map(tuple, table))
    assert residual(principal(tampered, 1), principal(tampered, 3)) is principal(tampered, 4)


def test_annihilator_frozen(q4):
    ann = annihilator(q4, 1 << q4.index("a"))
    assert set(ann.labels().split()) == {"bot", "b"}
    assert ann == residual(zero_ideal(q4), generated(q4, 1 << q4.index("a")))
    with pytest.raises(EmptyGeneratorSet):
        annihilator(q4, 0)


@pytest.mark.parametrize(
    "call, stray",
    [
        (lambda q: annihilator(q, 1 << q.n), "[4]"),
        (lambda q: annihilator(q, [0, 9]), "[9]"),
        (lambda q: generated(q, 1 << q.n), "[4]"),
        (lambda q: ideal_from_closure(q, 1 << q.n), "[4]"),
        (lambda q: as_ideal(q, [0, q.n]), "[4]"),
        (lambda q: principal(q, q.n), "[4]"),
        (lambda q: annihilator(q, [0, -1]), "[-1]"),
        (lambda q: q.labels(1 << q.n), "[4]"),
    ],
)
def test_indices_outside_the_carrier_are_refused(q4, call, stray):
    with pytest.raises(QuantaleError, match=re.escape(f"indices {stray} are not elements of q4")):
        call(q4)


def test_ideal_quantale_q4(q4):
    iq = ideal_quantale(q4)
    assert iq.quantale.elements == ("↓bot", "↓a", "↓b", "↓top")
    assert iq.quantale.name == "q4_ideals"
    assert check_axioms(iq.quantale).ok
    h = iq.hom_from_base()
    assert h.check().ok
    # order is reflected, so the embedding is an isomorphism here
    for x in range(q4.n):
        for y in range(q4.n):
            assert q4.leq(x, y) == iq.quantale.leq(h(x), h(y))


@pytest.mark.parametrize(
    "down, message",
    [
        # bot's row lacks its own bit; so does top's
        ((0b0, 0b11, 0b101, 0b1111), "principal map does not reflect the order"),
        ((0b1, 0b11, 0b101, 0b0111), "principal map does not reflect the order"),
        # not transitive (bot <= b, a <= bot, yet b is not below a): the
        # principal map fails check_hom's order test before the reflection test
        ((0b101, 0b11, 0b1, 0b1111), "principal map breaks order at (0, 1)"),
        # two equal rows: two elements share one principal ideal
        ((0b1, 0b1, 0b101, 0b1111), "principal map is not a bijection onto the ideals"),
    ],
)
def test_ideal_quantale_refuses_a_broken_order(q4, down, message):
    with pytest.raises(QuantaleError, match=re.escape(message) + "$"):
        ideal_quantale(replace(q4, down=down))


@pytest.mark.parametrize("name", ["q4", "l3", "m3", "lowersets:antichain3"])
def test_ideal_quantale_tables_are_ideal_operations(request, name):
    q = generate_from_spec(name) if ":" in name else request.getfixturevalue(name)
    iq = ideal_quantale(q)
    pos = {i.members: k for k, i in enumerate(iq.ideals)}
    for k, i in enumerate(iq.ideals):
        for l, j in enumerate(iq.ideals):
            assert iq.quantale.join[k][l] == pos[join_ideals(i, j).members]
            assert iq.quantale.meet[k][l] == pos[meet_ideals(i, j).members]


def test_ideal_quantale_is_stable_under_iteration(l3):
    once = ideal_quantale(l3).quantale
    twice = ideal_quantale(once).quantale
    assert once.n == l3.n == twice.n


def test_extension_contraction_frozen(q4_to_c2):
    q4, c2 = q4_to_c2.source, q4_to_c2.target
    e = extension(q4_to_c2, principal(q4, q4.index("a")))
    assert e == whole_ideal(c2)
    c = contraction(q4_to_c2, zero_ideal(c2))
    assert set(c.labels().split()) == {"bot", "b"}
    # expansion and reduction
    for i in enumerate_ideals(q4):
        assert i <= contraction(q4_to_c2, extension(q4_to_c2, i))
    for j in enumerate_ideals(c2):
        assert extension(q4_to_c2, contraction(q4_to_c2, j)) <= j


def test_extension_rejects_invalid_hom(q4, c2):
    from qk.core import QuantaleHom

    bad = QuantaleHom(source=q4, target=c2, mapping=(0, 1, 1, 1), name="bad")
    with pytest.raises(HomInvalid):
        extension(bad, zero_ideal(q4))
    with pytest.raises(HomInvalid):
        contraction(bad, zero_ideal(c2))


def test_noncommutative_is_gated():
    """No ideal is made on a noncommutative carrier, so the ideal calculus
    refuses it; is_ideal, is_mc and saturation answer on any table."""
    nc = build_quantale(
        ["0", "1", "2"],
        [("0", "1"), ("1", "2")],
        [["0", "0", "0"], ["0", "0", "0"], ["0", "2", "2"]],
    )
    assert not nc.commutative
    zero = lambda: principal(nc, 0)
    point = build_quantale(["*"], [], [["*"]], name="point")
    to_point = QuantaleHom(source=nc, target=point, mapping=(0, 0, 0))
    gated = [
        lambda: enumerate_ideals(nc),
        lambda: generated(nc, 0b010),
        lambda: ideal_quantale(nc),
        lambda: cl.spectrum(nc),
        lambda: cl.is_semiprime_idealwise(zero()),
        lambda: cl.classification(zero()),
        lambda: cl.is_prime(zero()),
        lambda: cl.radical(zero()),
        lambda: cl.maximal_ideals(nc),
        lambda: cl.nilradical(nc),
        lambda: dc.is_irreducible(zero()),
        lambda: dc.is_strongly_irreducible(zero()),
        lambda: dc.all_minimal_decompositions(zero()),
        lambda: dc.is_arithmetic(nc),
        lambda: dc._distributivity_witness(nc),
        lambda: dc.arithmetic_equivalence_check(nc),
        lambda: dc.primary_decomposition(zero()),
        *(lambda a=a: principal(nc, a) for a in range(3)),
        lambda: as_ideal(nc, 0b011),
        lambda: Ideal(nc, 0b011),
        lambda: zero_ideal(nc),
        lambda: whole_ideal(nc),
        lambda: ideal_from_closure(nc, 0b010),
        *(lambda op=op: op(zero(), zero()) for op in (product_ideals, product_closure, residual)),
        *(lambda m=m: annihilator(nc, m) for m in range(1, 8)),
        lambda: contraction(to_point, principal(point, 0)),
    ]
    for call in gated:
        with pytest.raises(NotCommutative):
            call()
    assert "interned" not in vars(nc)
    assert "zero_folds" not in vars(nc)

    assert [m for m in range(8) if is_ideal(nc, m)] == [1, 3, 7]
    assert [m for m in range(8) if cl.is_mc(nc, m)] == [4, 5, 7]
    sat = [cl.saturation(cl.McSet(nc, m)).members for m in range(8)]
    assert sat == [0, 7, 0, 7, 4, 7, 4, 7]


def test_ideal_equality_and_hash(q4):
    i1 = principal(q4, q4.index("a"))
    i2 = Ideal(q4, q4.down[q4.index("a")])
    assert i1 is i2
    assert i1 == i2 and hash(i1) == hash(i2)
    assert len({i1, i2}) == 1
    assert i1 != principal(q4, q4.index("b"))


def test_ideal_refusals_name_their_fault(q4, q4_to_c2, monkeypatch):
    h = q4_to_c2
    cases = [
        (lambda: generated(q4, -1), QuantaleError, "-1 is not a subset mask"),
        (lambda: ideal_from_closure(q4, 0), EmptyGeneratorSet,
         "cannot close an empty set into an ideal"),
        (lambda: contraction(h, zero_ideal(h.source)), CarrierMismatch,
         "contraction needs an ideal of the hom's target"),
        (lambda: extension(h, zero_ideal(h.target)), CarrierMismatch,
         "extension needs an ideal of the hom's source"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
    # q4 has 4 ideals: over a cap of 3
    monkeypatch.setattr("qk.ideals.ELEMENT_CAP", 3)
    with pytest.raises(TooLarge, match="^4 ideals exceeds the cap of 3$"):
        ideal_quantale(q4)
