"""The element tables behind powers, radical, annihilator, generated,
join_all, residual and is_primary, against their bit-loop and fold
definitions.

q.powers, q.zero_folds and q.image_folds are built once per carrier and
read in place of a loop over the bits of a mask, join_all folds apexes
through q.join, and residual and is_primary read q.residuals on principal
ideals where that table exists.  The oracles below loop over the elements
one at a time or fold join_ideals from the zero ideal.  The table routes
must return exactly what they return, on lawful carriers and on tables
corrupted in any field, with n on both sides of each byte boundary.  The
routines that read the scan shapes core._colons, core._closed and
classify._outside_pair meet their definitional loops on the lawful
carriers and the mutants, and decompose._distributivity_witness's
shortcut, from core._right_adjoints of the meet table, meets its triple
loop there and on every join- and meet-cell rewrite of five lattices.
"""

from dataclasses import replace
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qk.classify import (
    all_mc_sets,
    is_mc,
    is_primary,
    jacobson,
    maximal_ideals,
    mc_generated,
    nilradical,
    radical,
    saturation,
    spectrum,
    zero_divisors,
)
from qk import decompose
from qk.core import _cones_match, _right_adjoints
from qk.decompose import isolated_component_formula, strongly_irreducible_elementwise
from qk.errors import CarrierMismatch, NotCommutative
from qk.generators import generate_from_spec
from qk.ideals import (
    Ideal,
    annihilator,
    enumerate_ideals,
    generated,
    ideal_quantale,
    is_ideal,
    join_all,
    join_ideals,
    residual,
    zero_ideal,
)
from qk.quantfile import load_quant

from oracles import (
    DATA,
    MUTANTS,
    MUTATION_MUTANTS,
    SPECS,
    annihilator_scan,
    generated_scan,
    is_ideal_scan,
    is_mc_scan,
    isolated_component_scan,
    primary_witness_scan,
    residual_scan,
    saturation_scan,
    strongly_irreducible_elementwise_scan,
    zero_divisors_scan,
)

_BASES = [generate_from_spec(s) for s in SPECS]
_FILES = [load_quant(p) for p in sorted(DATA.glob("*.quant"))]


def _powers_scan(q, x):
    """x, x & x, x & (x & x), ...: n steps reach every distinct power."""
    m, y = 0, x
    for _ in range(q.n):
        m |= 1 << y
        y = q.mul[x][y]
    return m


def _radical_scan(q, m):
    return sum(1 << x for x in range(q.n) if _powers_scan(q, x) & m)


def _residuals_scan(q):
    """residuals[a][b] as the r whose down-set is {y : a & y <= b}, which
    makes r the greatest such y; None unless down is a partial order and
    every such set is one element's down-set."""
    R = range(q.n)

    def leq(i, j):
        return bool(q.down[j] >> i & 1)

    reflexive = all(leq(i, i) for i in R)
    antisymmetric = not any(leq(i, j) and leq(j, i) for i in R for j in R if i != j)
    transitive = all(leq(i, k) for i in R for j in R for k in R if leq(i, j) and leq(j, k))
    if not (reflexive and antisymmetric and transitive):
        return None
    table = []
    for a in R:
        row = []
        for b in R:
            s = sum(1 << y for y in R if leq(q.mul[a][y], b))
            if s not in q.down:
                return None
            row.append(q.down.index(s))
        table.append(tuple(row))
    return tuple(table)


def _check_readers(ideals):
    """residual and is_primary answer as their scans do on the given ideals
    of one commutative carrier, whichever route they take."""
    for i in ideals:
        assert is_primary(i) == (i.proper and primary_witness_scan(i) is None), i.name
        for j in ideals:
            assert residual(i, j).members == residual_scan(i, j), (i.name, j.name)


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
    assert q.residuals == _residuals_scan(q)
    if q.commutative:  # a few masks, and the first principal ideals
        _check_readers([Ideal(q, m) for m in {*masks[:8], *q.down[:4]}])


@st.composite
def corrupted(draw):
    """A lawful carrier with some fields overwritten by values that stay in
    range; mul cells are rewritten in symmetric pairs unless drawn
    otherwise, so most corrupted carriers stay commutative."""
    q = draw(st.sampled_from(_BASES))
    n = q.n
    element = st.integers(0, n - 1)
    symmetric = draw(st.booleans() | st.just(True))
    changes = {}
    fields = draw(st.sets(st.sampled_from(["down", "join", "mul", "bottom", "top"])))
    for field in sorted(fields):
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


@pytest.mark.parametrize("q", [*_BASES, *_FILES], ids=lambda q: q.name)
def test_residuation_table_on_lawful_carriers_and_their_ideal_carriers(q):
    carriers = [q, ideal_quantale(q).quantale] if q.commutative else [q]
    for c in carriers:
        assert c.residuals is not None and c.residuals == _residuals_scan(c), c.name
        if c.commutative:
            _check_readers(enumerate_ideals(c))


def test_residuation_table_on_the_single_cell_mutants():
    # where some preimage is not a principal down-set there is no table, and
    # the readers scan; the rewrites of l3 and m3 in
    # test_every_single_cell_rewrite include broken tables that keep one
    without = 0
    for q in MUTANTS:
        q = replace(q)
        assert q.residuals == _residuals_scan(q), q.name
        without += q.residuals is None
        _check_readers(enumerate_ideals(q))
    assert without


def test_scan_shapes_match_their_definitions():
    # is_ideal and is_mc read core._closed, saturation, zero_divisors and
    # isolated_component_formula core._colons, and
    # strongly_irreducible_elementwise classify._outside_pair: each answers
    # as its definitional loop on every mask (above 8 elements the down-sets,
    # up-sets, their complements and the mc sets), every mc set and every
    # ideal, or pair of ideals, of the lawful carriers and the mutants
    cases = 0
    for q in [*_BASES, *MUTANTS, *MUTATION_MUTANTS]:
        mcs = all_mc_sets(q)
        sets = [s.members for s in mcs]
        cones = [*q.down, *q.up]
        masks = range(q.full + 1) if q.n <= 8 else {*cones, *(q.full & ~m for m in cones), *sets}
        for m in masks:
            assert is_ideal(q, m) == is_ideal_scan(q, m), (q.name, m)
            assert is_mc(q, m) == is_mc_scan(q, m), (q.name, m)
        for s in mcs:
            assert saturation(s).members == saturation_scan(s), (q.name, s)
        assert zero_divisors(q) == zero_divisors_scan(q), q.name
        ideals = enumerate_ideals(q)
        for i in ideals:
            assert strongly_irreducible_elementwise(i) == strongly_irreducible_elementwise_scan(i)
            for p in ideals:
                got = isolated_component_formula(i, p).members
                assert got == isolated_component_scan(i, p), (q.name, i.name, p.name)
        cases += len(masks) + len(sets) + len(ideals) ** 2
    assert cases == 14463


def test_the_prime_structure_builds_no_residuation_table():
    # is_prime scans, so the spectrum of a carrier never asks for the table
    q = replace(generate_from_spec("lukasiewicz:128"))
    spectrum(q), maximal_ideals(q), nilradical(q), jacobson(q)
    assert "residuals" not in vars(q)


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


def _distributivity(q, loop=False):
    """decompose._distributivity_witness of q, with its shortcut off where
    loop, so that the triple loop answers; NotCommutative where it raises."""
    with pytest.MonkeyPatch.context() as m:
        if loop:
            m.setattr(decompose, "_right_adjoints", lambda q, table: None)
        try:
            return decompose._distributivity_witness(q)
        except NotCommutative:
            return NotCommutative


def _lattice_rewrites(q):
    """Each carrier made from q by one symmetric rewrite of a join or a meet
    cell, table[i][j] = table[j][i] = v for i <= j and every v but the old
    one."""
    for field in ("join", "meet"):
        table = getattr(q, field)
        for i in range(q.n):
            for j in range(i, q.n):
                for v in set(range(q.n)) - {table[i][j]}:
                    rows = [list(r) for r in table]
                    rows[i][j] = rows[j][i] = v
                    name = f"{q.name}~{field}{i},{j}={v}"
                    yield replace(q, name=name, **{field: tuple(map(tuple, rows))})


def test_distributivity_shortcut_matches_the_triple_loop():
    # the Heyting shortcut answers None only where the loop does: on the
    # lawful carriers, the files, the mutants and every symmetric join- and
    # meet-cell rewrite of five small lattices, distributive or not
    specs = ("m3", "lukasiewicz:5", "powerset:3", "lowersets:chain4", "lowersets:4:0<1,2<3")
    rewrites = [m for spec in specs for m in _lattice_rewrites(generate_from_spec(spec))]
    carriers = [*_BASES, *_FILES, *MUTANTS, *MUTATION_MUTANTS, *rewrites]
    outcomes = [(_distributivity(q), _distributivity(q, loop=True)) for q in carriers]
    assert all(fast == loop for fast, loop in outcomes)
    # the shortcut answers on the 49 distributive lattices among them; a
    # rewritten cell is no lub or glb, so the loop answers every rewrite
    shortcut = [q for q in carriers if _right_adjoints(q, q.meet) is not None and _cones_match(q)]
    assert (len(carriers), len(shortcut)) == (1735, 49) and not set(shortcut) & set(rewrites)
    assert sum(fast is None for fast, _ in outcomes) == 790


@pytest.mark.parametrize("spec", ["lukasiewicz:17", "powerset:4", "lowersets:4:0<1,2<3"])
def test_distributivity_shortcut_answers_without_the_loop(spec, monkeypatch):
    # on a distributive lattice no ideal is met or joined
    def refuse(*args):
        raise AssertionError("the loop ran")

    monkeypatch.setattr(decompose, "meet_ideals", refuse)
    monkeypatch.setattr(decompose, "join_ideals", refuse)
    assert decompose._distributivity_witness(generate_from_spec(spec)) is None
