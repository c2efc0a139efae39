from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import qk
from qk.core import (
    QuantaleHom,
    _closure_up,
    bits,
    build_quantale,
    check_axioms,
    check_hom,
    is_unit,
    mask_of,
    power,
    power_of_join,
)
from qk.errors import (
    DuplicateLabel,
    HomInvalid,
    MissingBound,
    NotALattice,
    NotAPartialOrder,
    QuantaleError,
    RowArity,
    UndeclaredLabel,
)


def test_bits_and_mask_of():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert list(bits(0)) == []
    assert mask_of([0, 2]) == 0b101
    assert mask_of(0b110) == 0b110


def test_build_q4_structure(q4):
    assert q4.n == 4
    assert q4.elements == ("bot", "a", "b", "top")
    assert q4.bottom == q4.index("bot")
    assert q4.top == q4.index("top")
    a, b = q4.index("a"), q4.index("b")
    assert q4.leq(q4.bottom, a) and q4.leq(a, q4.top)
    assert not q4.leq(a, b) and not q4.leq(b, a)
    assert q4.join[a][b] == q4.top
    assert q4.meet[a][b] == q4.bottom


def test_join_meet_against_subset_semantics(p3):
    # labels of powerset3 encode the subsets, giving an independent check
    def as_set(lbl):
        if lbl == "bot":
            return frozenset()
        if lbl == "top":
            return frozenset("123")
        return frozenset(lbl)

    by_set = {as_set(l): i for i, l in enumerate(p3.elements)}
    for x in range(p3.n):
        for y in range(p3.n):
            sx, sy = as_set(p3.elements[x]), as_set(p3.elements[y])
            assert p3.join[x][y] == by_set[sx | sy]
            assert p3.meet[x][y] == by_set[sx & sy]
            assert p3.mul[x][y] == by_set[sx & sy]
            assert p3.leq(x, y) == (sx <= sy)


def test_join_of_meet_of(q4):
    a, b = q4.index("a"), q4.index("b")
    assert q4.join_of([a, b]) == q4.top
    assert q4.join_of([]) == q4.bottom
    assert q4.meet_of([a, b]) == q4.bottom
    assert q4.meet_of([]) == q4.top
    assert q4.labels(0b0110) == "a b"


def test_check_axioms_pass(q4, l3, c2):
    for q in (q4, l3, c2):
        rep = check_axioms(q)
        assert rep.ok
        assert rep.counterexamples == ()


def test_check_axioms_flags_broken_table():
    # 1&2 = 0 but 2&1 = 2: commutativity and associativity both break
    q = build_quantale(
        ["0", "1", "2"],
        [("0", "1"), ("1", "2")],
        [["0", "0", "0"], ["0", "0", "0"], ["0", "2", "2"]],
    )
    rep = check_axioms(q)
    assert not rep.ok
    tags = dict(rep.counterexamples)
    assert "comm" in tags
    assert not rep.comm_ok


def test_check_axioms_flags_missing_identity():
    q = build_quantale(
        ["0", "1"],
        [("0", "1")],
        [["0", "0"], ["0", "0"]],
    )
    rep = check_axioms(q)
    assert not rep.identity_ok
    assert dict(rep.counterexamples).get("identity") == (1,)


def test_build_rejects_duplicate_label():
    with pytest.raises(DuplicateLabel):
        build_quantale(["a", "a"], [], [["a", "a"], ["a", "a"]])


def test_build_rejects_undeclared_label():
    with pytest.raises(UndeclaredLabel):
        build_quantale(["a", "b"], [("a", "c")], [["a", "a"], ["a", "b"]])


def test_build_rejects_bad_row_shape():
    with pytest.raises(RowArity):
        build_quantale(["a", "b"], [("a", "b")], [["a"], ["a", "b"]])
    with pytest.raises(RowArity):
        build_quantale(["a", "b"], [("a", "b")], [["a", "a"]])


def test_build_rejects_cycles():
    with pytest.raises(NotAPartialOrder):
        build_quantale(
            ["a", "b"], [("a", "b"), ("b", "a")], [["a", "a"], ["a", "b"]]
        )


def test_build_rejects_missing_bounds():
    with pytest.raises(MissingBound):
        build_quantale([], [], [])
    # two maximal elements surface as a pair without a least upper bound,
    # since any finite carrier with all pairwise bounds has global ones
    with pytest.raises(NotALattice):
        build_quantale(
            ["bot", "x", "y"],
            [("bot", "x"), ("bot", "y")],
            [["bot"] * 3, ["bot"] * 3, ["bot"] * 3],
        )


def test_build_rejects_non_lattice():
    # a, b have two minimal upper bounds c, d
    els = ["bot", "a", "b", "c", "d", "top"]
    rel = [
        ("bot", "a"), ("bot", "b"),
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("c", "top"), ("d", "top"),
    ]
    with pytest.raises(NotALattice):
        build_quantale(els, rel, [["bot"] * 6 for _ in range(6)])


def _first_match_lattice(labels, pairs):
    """join, meet, bottom and top of the order generated by pairs, each bound
    found as the first candidate (in index order) below or above all others;
    raises what build_quantale raises for a cycle or a missing bound."""
    n = len(labels)
    idx = {l: i for i, l in enumerate(labels)}
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in pairs:
        leq[idx[lo]][idx[hi]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(f"{labels[i]!r} and {labels[j]!r} are below each other")

    def first(cands, below):
        return next((c for c in cands if all(below(c, d) for d in cands)), None)

    join, meet = [], []
    for i in range(n):
        jr, mr = [], []
        for j in range(n):
            ups = [k for k in range(n) if leq[i][k] and leq[j][k]]
            l = first(ups, lambda c, d: leq[c][d])
            if l is None:
                raise NotALattice(f"{labels[i]!r} and {labels[j]!r} have no least upper bound")
            downs = [k for k in range(n) if leq[k][i] and leq[k][j]]
            g = first(downs, lambda c, d: leq[d][c])
            if g is None:
                raise NotALattice(f"{labels[i]!r} and {labels[j]!r} have no greatest lower bound")
            jr.append(l)
            mr.append(g)
        join.append(tuple(jr))
        meet.append(tuple(mr))
    bottom = first(range(n), lambda c, d: leq[c][d])
    top = first(range(n), lambda c, d: leq[d][c])
    if bottom is None or top is None:
        raise MissingBound("carrier lacks a global bottom or top")
    return tuple(join), tuple(meet), bottom, top


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_bounds_match_first_match_scan(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    labels = [f"e{i}" for i in range(n)]
    raw = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)
    )
    if data.draw(st.booleans()):  # orient every pair upwards: no cycles
        raw = [(min(a, b), max(a, b)) for a, b in raw]
    pairs = [(labels[a], labels[b]) for a, b in raw]

    def outcome(build):
        try:
            return build()
        except QuantaleError as e:
            return type(e), str(e)

    def built():
        q = build_quantale(labels, pairs, [labels] * n)
        return q.join, q.meet, q.bottom, q.top

    assert outcome(built) == outcome(lambda: _first_match_lattice(labels, pairs))


def test_index_label_roundtrip(q4):
    for i, lbl in enumerate(q4.elements):
        assert q4.index(lbl) == i
        assert q4.label(i) == lbl
    with pytest.raises(UndeclaredLabel):
        q4.index("zzz")


def test_commutative_property(q4):
    assert q4.commutative
    nc = build_quantale(
        ["0", "1", "2"],
        [("0", "1"), ("1", "2")],
        [["0", "0", "0"], ["0", "0", "0"], ["0", "2", "2"]],
    )
    assert not nc.commutative


def test_power(l3):
    one, two = l3.index("1"), l3.index("2")
    assert power(l3, one, 0) == l3.top
    assert power(l3, one, 1) == one
    assert power(l3, one, 2) == l3.bottom
    assert power(l3, two, 5) == two


def test_power_of_join_binomial(q4, l3):
    for q in (q4, l3):
        for x in range(q.n):
            for y in range(q.n):
                for k in range(1, 5):
                    assert power_of_join(q, x, y, k) == power(q, q.join[x][y], k)


def test_is_unit(q4, l3):
    assert is_unit(q4, q4.top)
    assert not is_unit(q4, q4.index("a"))
    assert not is_unit(l3, l3.index("1"))
    assert is_unit(l3, l3.top)


def test_check_hom_valid(q4_to_c2, l3_to_c2):
    for h in (q4_to_c2, l3_to_c2):
        rep = h.check()
        assert rep.ok
        assert rep.condition is None


def test_check_hom_conditions(q4, c2, l3):
    n = q4.n
    bad_arity = check_hom((0, 1), q4, c2)
    assert not bad_arity.ok and bad_arity.condition == "arity"
    # the contract is exactly the four preservation conditions, so the
    # constant-bottom map qualifies: bounds are not required to map across
    assert check_hom((0,) * n, q4, c2).ok
    bad_order = check_hom((1, 0, 0, 0), q4, c2)
    assert not bad_order.ok and bad_order.condition == "order"
    # order intact but f(a v b) = top while f(a) v f(b) = bot
    bad_join = check_hom((0, 0, 0, 1), q4, c2)
    assert not bad_join.ok and bad_join.condition == "join"
    # a and b both to the unit: f(a ^ b) = bot but f(a) ^ f(b) = top
    both_up = check_hom((0, 1, 1, 1), q4, c2)
    assert not both_up.ok and both_up.condition == "meet"
    wa, wb = both_up.witness
    assert {q4.elements[wa], q4.elements[wb]} == {"a", "b"}
    # l3 endomap preserving the lattice but not truncated addition
    bad_mul = check_hom((0, 2, 2), l3, l3)
    assert not bad_mul.ok and bad_mul.condition == "mul"
    assert bad_mul.witness == (1, 1)


def test_hom_identity_and_composition(q4_to_c2):
    q4, c2 = q4_to_c2.source, q4_to_c2.target
    ident = QuantaleHom.identity(q4)
    assert ident.check().ok
    comp = ident.then(q4_to_c2)
    assert comp.mapping == q4_to_c2.mapping
    assert comp.check().ok
    with pytest.raises(HomInvalid):
        q4_to_c2.then(q4_to_c2)


def test_hom_call(q4_to_c2):
    q4, c2 = q4_to_c2.source, q4_to_c2.target
    assert q4_to_c2(q4.index("a")) == c2.index("top")
    assert q4_to_c2(q4.index("b")) == c2.index("bot")


def test_same_structure(q4):
    from qk.quantfile import parse_quant, write_quant

    again = parse_quant(write_quant(q4))
    assert q4.same_structure(again)
    assert q4.same_structure(replace(again))


@st.composite
def relations(draw):
    """n points and up to 12 pairs (lo, hi) among them."""
    n = draw(st.integers(0, 9))
    point = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(point, point), max_size=12)) if n else []


@settings(max_examples=300, deadline=None)
@given(relations())
def test_closure_up_is_the_reachability_fixpoint(case):
    n, pairs = case
    reach = [{i} | {hi for lo, hi in pairs if lo == i} for i in range(n)]
    while True:
        grown = [set().union(*(reach[j] for j in r)) for r in reach]
        if grown == reach:
            break
        reach = grown
    assert _closure_up(n, pairs) == [sum(1 << j for j in r) for r in reach]


def test_package_exports_its_public_names_but_not_its_submodules():
    assert {"run_suite", "check_axioms", "generate", "VerificationReport"} <= set(qk.__all__)
    assert not {"core", "verify", "records", "types"} & set(qk.__all__)
    assert all(hasattr(qk, k) for k in qk.__all__)
