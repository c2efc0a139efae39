import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qk.core import ELEMENT_CAP, check_axioms
from qk.errors import NotAPartialOrder, QuantaleError, TooLarge
from qk.generators import (
    antichain_poset,
    chain_poset,
    generate,
    generate_from_spec,
    lowersets_quantale,
    lukasiewicz_quantale,
    m3_quantale,
    opens_quantale,
    powerset_quantale,
)
from qk.quantfile import load_quant, parse_quant, write_quant
from qk.verify import single_cell_mutants

from oracles import all_posets, all_topologies

DATA = Path(__file__).parent / "data"


def test_powerset_labels_and_tables(p3):
    assert p3.n == 8
    assert p3.elements[0] == "bot" and p3.elements[-1] == "top"
    assert set(p3.elements[1:-1]) == {"1", "2", "3", "12", "13", "23"}
    # multiplication is intersection, hence equal to meet
    assert p3.mul == p3.meet
    assert check_axioms(p3).ok


def test_powerset_small_and_cap():
    assert powerset_quantale(0).n == 1
    assert powerset_quantale(1).n == 2
    with pytest.raises(TooLarge, match=f"^the lower sets exceed the cap of {ELEMENT_CAP}$"):
        powerset_quantale(10)
    with pytest.raises(ValueError, match="^a poset has 0 or more points, got -1$"):
        powerset_quantale(-1)


def test_lukasiewicz_sizes():
    with pytest.raises(ValueError, match="^lukasiewicz needs at least one element, got 0$"):
        lukasiewicz_quantale(0)
    with pytest.raises(TooLarge, match=f"^{ELEMENT_CAP + 1} elements exceeds the cap of {ELEMENT_CAP}$"):
        lukasiewicz_quantale(ELEMENT_CAP + 1)


def test_lukasiewicz_table():
    l5 = lukasiewicz_quantale(5)
    assert l5.n == 5
    assert l5.elements == ("0", "1", "2", "3", "4")
    idx = {lbl: i for i, lbl in enumerate(l5.elements)}
    for a in range(5):
        for b in range(5):
            assert l5.mul[idx[str(a)]][idx[str(b)]] == idx[str(max(0, a + b - 4))]
    assert check_axioms(l5).ok


def test_lowersets_of_chain_is_chain():
    q = lowersets_quantale(*chain_poset(3))
    assert q.n == 4
    for x in range(q.n):
        for y in range(q.n):
            assert q.leq(x, y) or q.leq(y, x)


def test_lowersets_of_antichain_is_powerset():
    q = lowersets_quantale(*antichain_poset(3))
    assert q.n == 8
    assert check_axioms(q).ok


def test_lowersets_rejects_cycle():
    with pytest.raises(NotAPartialOrder):
        lowersets_quantale(2, [(0, 1), (1, 0)])


def test_lowersets_are_the_down_closed_subsets():
    # the brute-force definition: every subset holding all points below its
    # members; opens_quantale builds a carrier from a given family of sets
    for points, relations in all_posets(4):
        below = [{p} for p in range(points)]
        for lo, hi in relations:
            below[hi].add(lo)
        lower = [
            s for s in range(1 << points)
            if all(s >> b & 1 for p in range(points) if s >> p & 1 for b in below[p])
        ]
        assert write_quant(lowersets_quantale(points, relations, name="l")) == write_quant(
            opens_quantale(points, lower, name="l")
        ), (points, relations)


@pytest.mark.parametrize(
    "points,relations",
    [(ELEMENT_CAP, []), (10**8, []), (13, []), (40, [(0, 1)])],
)
def test_lowersets_refuse_more_than_the_cap(points, relations):
    with pytest.raises(TooLarge):
        lowersets_quantale(points, relations)


@pytest.mark.parametrize("spec", ["lowersets:antichain40", "lowersets:chain100000000"])
def test_lowersets_specs_refuse_before_building_the_poset(spec):
    with pytest.raises(TooLarge, match=f"cap of {ELEMENT_CAP}$"):
        generate_from_spec(spec)


@pytest.mark.parametrize("points,relations", [(-1, []), (3, [(0, 5)]), (2, [(-1, 0)])])
def test_lowersets_reject_points_outside_the_poset(points, relations):
    with pytest.raises(ValueError):
        lowersets_quantale(points, relations)


def test_opens_sierpinski():
    q = opens_quantale(2, (0b00, 0b01, 0b11))
    assert q.n == 3
    assert check_axioms(q).ok


def test_opens_rejects_non_topology():
    # missing the union {0} | {1}
    with pytest.raises(ValueError):
        opens_quantale(2, (0b00, 0b01, 0b10))


def test_opens_refuse_more_than_the_cap():
    # the discrete topology on 10 points: 1,024 open sets
    with pytest.raises(TooLarge, match=f"1024 open sets exceed the cap of {ELEMENT_CAP}$"):
        opens_quantale(10, range(1 << 10))


def test_opens_refuse_a_huge_space_without_building_its_full_set():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="contains the empty and the full set"):
            opens_quantale(10**8, [0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "spec,message",
    [
        ("opens:-1:-", "a space has 0 or more points, got -1"),
        ("opens:2:-,5,01", r"points \[5\] are not among 0..1"),
        # {0} and {1} are open, {0, 1} is not
        ("opens:3:-,0,1,012", "opens must be closed under union and intersection"),
        # {0, 1} and {1, 2} are open, {1} is not
        ("opens:3:-,01,12,012", "opens must be closed under union and intersection"),
    ],
)
def test_opens_name_the_fault(spec, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_from_spec(spec)


def test_opens_refuse_a_negative_mask():
    # a negative int has endless set bits: it once hung the labelling
    with pytest.raises(ValueError, match="^open sets are masks of 0 or more$"):
        opens_quantale(1, [0, 1, -1])


def test_m3_shape(m3):
    assert m3.n == 6
    assert m3.elements == ("bot", "p", "q", "r", "m", "top")
    p, q_, top, bot = m3.index("p"), m3.index("q"), m3.top, m3.bottom
    assert m3.mul[p][q_] == bot
    assert m3.mul[p][p] == bot
    assert m3.mul[top][p] == p
    assert check_axioms(m3).ok


def test_all_posets_counts_match_known_values():
    ps = all_posets(4)
    by_size = {k: sum(1 for p in ps if p[0] == k) for k in (1, 2, 3, 4)}
    assert by_size == {1: 1, 2: 2, 3: 5, 4: 16}


def test_all_topologies_counts_match_known_values():
    ts = all_topologies(3)
    by_size = {k: sum(1 for t in ts if t[0] == k) for k in (1, 2, 3)}
    assert by_size == {1: 1, 2: 4, 3: 29}


def test_every_bundled_family_member_passes_axioms():
    qs = [powerset_quantale(k) for k in range(4)]
    qs += [lukasiewicz_quantale(n) for n in range(1, 6)]
    qs += [lowersets_quantale(*p) for p in all_posets(3)]
    qs += [opens_quantale(*t) for t in all_topologies(3)]
    qs.append(m3_quantale())
    for q in qs:
        assert check_axioms(q).ok, q.name


def test_generate_dispatch(q4):
    assert generate("powerset", 2).n == 4
    assert generate("lukasiewicz", 3).n == 3
    assert generate("m3").n == 6
    assert generate("ideal_quantale", q4).n == 4
    with pytest.raises(ValueError):
        generate("nope")


def test_generate_from_spec_forms():
    assert generate_from_spec("powerset:2").n == 4
    assert generate_from_spec("lukasiewicz:5").n == 5
    assert generate_from_spec("m3").n == 6
    assert generate_from_spec("lowersets:chain3").n == 4
    assert generate_from_spec("lowersets:antichain2").n == 4
    assert generate_from_spec("lowersets:3:0<1,0<2").n == 5
    assert generate_from_spec("opens:sierpinski").n == 3
    assert generate_from_spec("opens:2:-,0,01").n == 3
    with pytest.raises(ValueError):
        generate_from_spec("nope:1")


def test_generate_from_spec_reads_ideal_quantale_file():
    q = generate_from_spec(f"ideal_quantale:{DATA / 'q4.quant'}")
    assert q.n == 4 and check_axioms(q).ok
    assert q.elements == ("↓bot", "↓a", "↓b", "↓top")


def test_ideal_quantale_of_a_broken_carrier_is_refused():
    # q4~0,0 is commutative, so its ideal carrier builds, but it is no quantale
    q4 = load_quant(DATA / "q4.quant")
    broken = {m.name: m for _, _, m in single_cell_mutants(q4) if m.commutative}
    assert sorted(broken) == ["q4~0,0", "q4~1,1", "q4~2,2", "q4~3,3"]
    for name, m in broken.items():
        with pytest.raises(QuantaleError) as e:
            generate("ideal_quantale", m)
        assert not isinstance(e.value, AssertionError)
        assert str(e.value).startswith(f"{name}_ideals is not a quantale: assoc fails at ")


def test_generate_from_spec_missing_ideal_quantale_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        generate_from_spec(f"ideal_quantale:{tmp_path / 'missing.quant'}")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_poset_lowersets_pass_axioms(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=8,
        )
    )
    pairs = [(a, b) for a, b in pairs if a != b]
    try:
        q = lowersets_quantale(n, pairs)
    except NotAPartialOrder:
        return
    assert check_axioms(q).ok


def _round_trips(q):
    text = write_quant(q)
    back = parse_quant(text)
    assert write_quant(back) == text and check_axioms(back).ok
    return back


def test_labels_from_ten_points_name_the_maximal_points():
    # {2, 3} and {23} once both printed as 23; {1, 2} and {12} as 12
    q = _round_trips(generate_from_spec("lowersets:13:2<3,3<4,4<5,5<6,6<7,7<8,8<9,9<10"))
    assert q.n == 160 and len(set(q.elements)) == 160
    # points 3..11 form a chain, so its lower sets are named by their top
    assert {"12", "13", "1,2", "12,13", "1,2,11", "11"} <= set(q.elements)
    assert "3,4" not in q.elements
    assert _round_trips(generate_from_spec("lowersets:chain12")).elements == (
        "bot", *(str(p) for p in range(1, 12)), "top",
    )


def test_opens_on_twelve_points_get_distinct_labels():
    # three blocks of four points that no open set separates, and any union
    blocks = (0xF, 0xF0, 0xF00)
    opens = [sum(b for k, b in enumerate(blocks) if pick >> k & 1) for pick in range(8)]
    q = _round_trips(opens_quantale(12, opens))
    assert q.elements == ("bot", "1", "5", "9", "1,5", "1,9", "5,9", "top")
    nested = _round_trips(opens_quantale(12, [0, *((1 << k) - 1 for k in range(2, 13))]))
    assert nested.elements == ("bot", "1", *(str(p) for p in range(3, 12)), "top")


def test_labels_below_ten_points_run_the_point_names_together():
    q = lowersets_quantale(9, [(0, 1)])
    # every point is named, so {1, 2} is 12 although 2 alone is its maximal point
    assert "13456789" in q.elements and "12" in q.elements and "2" not in q.elements
