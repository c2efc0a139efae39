"""The element tables behind powers, radical, annihilator, generated and
join_all, against their bit-loop and fold definitions.

q.powers, q.zero_folds and q.image_folds are built once per carrier and
read in place of a loop over the bits of a mask, and join_all folds
apexes through q.join.  The oracles below loop over the elements one at a time, or fold
join_ideals from the zero ideal.  The table routes must return exactly
what they return, on lawful carriers and on tables corrupted in any
field, with n on both sides of each byte boundary.
"""

from dataclasses import replace
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qk.classify import mc_generated, radical
from qk.errors import CarrierMismatch, NotCommutative
from qk.generators import generate_from_spec
from qk.ideals import (
    Ideal,
    annihilator,
    enumerate_ideals,
    generated,
    join_all,
    join_ideals,
    zero_ideal,
)

from oracles import MUTANTS, SPECS, annihilator_scan, generated_scan

_BASES = [generate_from_spec(s) for s in SPECS]


def _powers_scan(q, x):
    """x, x & x, x & (x & x), ...: n steps reach every distinct power."""
    m, y = 0, x
    for _ in range(q.n):
        m |= 1 << y
        y = q.mul[x][y]
    return m


def _radical_scan(q, m):
    return sum(1 << x for x in range(q.n) if _powers_scan(q, x) & m)


def _check_tables(q, masks):
    """Each route twice, so the second answer may come from a memo."""
    for _ in range(2):
        assert q.powers == tuple(_powers_scan(q, x) for x in range(q.n))
        for m in masks:
            if q.commutative:
                assert annihilator(q, m).members == annihilator_scan(q, m)
                assert radical(Ideal(q, m)).members == _radical_scan(q, m)
                assert generated(q, m).members == generated_scan(q, m)
            else:
                with pytest.raises(NotCommutative):
                    annihilator(q, m)
                with pytest.raises(NotCommutative):
                    generated(q, m)
    if q.commutative:
        for x in range(q.n):
            assert mc_generated(q, x).members == _powers_scan(q, x) | 1 << q.top
    byte_counts = [len(t).bit_length() - 1 for t in (*q.zero_folds, *q.image_folds)]
    assert sum(byte_counts) == 2 * q.n and all(0 < k <= 8 for k in byte_counts)


@st.composite
def corrupted(draw):
    """A lawful carrier with some fields overwritten by values that stay in
    range; mul cells are rewritten in symmetric pairs unless drawn otherwise,
    so most corrupted carriers stay commutative."""
    q = draw(st.sampled_from(_BASES))
    n = q.n
    element = st.integers(0, n - 1)
    symmetric = draw(st.booleans() | st.just(True))
    changes = {}
    for field in draw(st.sets(st.sampled_from(["down", "join", "mul", "bottom", "top"]))):
        if field in ("bottom", "top"):
            changes[field] = draw(element)
        elif field == "down":
            rows = list(q.down)
            for i, k in draw(st.lists(st.tuples(element, element), min_size=1, max_size=3)):
                rows[i] ^= 1 << k
            changes[field] = tuple(rows)
        else:
            rows = [list(r) for r in getattr(q, field)]
            for i, j, v in draw(st.lists(st.tuples(element, element, element), min_size=1, max_size=4)):
                rows[i][j] = v
                if symmetric:
                    rows[j][i] = v
            changes[field] = tuple(tuple(r) for r in rows)
    masks = draw(st.lists(st.integers(1, q.full), min_size=1, max_size=8))
    return replace(q, name=f"{q.name}~", **changes), [q.full, 1 << n - 1, *masks]


@settings(max_examples=300, deadline=None)
@given(corrupted())
def test_tables_match_the_bit_loops(case):
    q, masks = case
    _check_tables(q, masks)


@pytest.mark.parametrize("spec", SPECS)
def test_lawful_carriers(spec):
    q = generate_from_spec(spec)
    masks = range(1, q.full + 1) if q.n <= 8 else [q.full, *q.down, *q.up]
    _check_tables(q, masks)


@pytest.mark.parametrize("name", ["q4", "l3", "m3"])
def test_every_single_cell_rewrite(name, request):
    q = request.getfixturevalue(name)
    masks = range(1, q.full + 1)
    commutative = 0
    for i in range(q.n):
        for j in range(q.n):
            for v in range(q.n):
                if v == q.mul[i][j]:
                    continue
                for cells in ([(i, j)], [(i, j), (j, i)]):
                    rows = [list(r) for r in q.mul]
                    for a, b in cells:
                        rows[a][b] = v
                    mutant = replace(q, name=f"{q.name}~{i},{j}={v}", mul=tuple(map(tuple, rows)))
                    _check_tables(mutant, masks)
                    commutative += mutant.commutative
    assert commutative > 0


def _check_join_all(q, ideals):
    """join_all is the fold of join_ideals from the zero ideal, object for
    object, on every family of up to three ideals, the empty one included."""
    for k in range(4):
        for fam in product(ideals, repeat=k):
            assert join_all(q, fam) is reduce(join_ideals, fam, zero_ideal(q))
    assert join_all(q, iter(ideals)) is reduce(join_ideals, ideals, zero_ideal(q))
    other = replace(q)
    with pytest.raises(CarrierMismatch):
        join_all(q, [*ideals[:1], zero_ideal(other)])


@pytest.mark.parametrize("spec", SPECS)
def test_join_all_on_lawful_carriers(spec):
    q = generate_from_spec(spec)
    _check_join_all(q, enumerate_ideals(q))


@pytest.mark.parametrize("name", ["q4", "l3", "m3"])
def test_join_all_on_single_cell_mutants(name):
    for mutant in MUTANTS:
        if mutant.name.startswith(f"{name}~"):
            _check_join_all(mutant, enumerate_ideals(mutant))


@settings(max_examples=200, deadline=None)
@given(corrupted())
def test_join_all_on_corrupted_tables(case):
    q, masks = case
    if not q.commutative:
        with pytest.raises(NotCommutative):
            Ideal(q, masks[0])
        return
    _check_join_all(q, [Ideal(q, m) for m in masks[:6]])
