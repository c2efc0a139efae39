"""check_axioms against a naive definitional scan.

The oracle below reads each axiom straight from its definition, one
element triple at a time, and keeps the first witness of each group in
index order.  check_axioms must return exactly that report, on lawful
carriers and on tables corrupted in any field.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qk import core
from qk.core import AxiomReport, _cones_match, _light_passes, check_axioms
from qk.generators import generate_from_spec
from qk.ideals import ideal_quantale
from qk.verify import single_cell_mutants

from oracles import MUTATION_BASES

_SMALL = [
    "lukasiewicz:1",
    "lukasiewicz:2",
    "lukasiewicz:3",
    "lukasiewicz:5",
    "powerset:0",
    "powerset:1",
    "powerset:2",
    "lowersets:chain2",
    "lowersets:3:0<1",
    "opens:sierpinski",
    "opens:point3",
]


def _oracle(q) -> AxiomReport:
    n, down, join, meet, mul, b, t = q.n, q.down, q.join, q.meet, q.mul, q.bottom, q.top
    R = range(n)

    def leq(i, j):
        return bool(down[j] >> i & 1)

    def order():
        for i in R:
            if not leq(i, i):
                yield "partial_order", (i,)
            for j in R:
                if leq(j, i) and j != i and leq(i, j):
                    yield "partial_order", (i, j)
                if leq(j, i) and any(leq(k, j) and not leq(k, i) for k in R):
                    yield "partial_order", (j, i)

    def tables():
        for i in R:
            for j in R:
                l, g = join[i][j], meet[i][j]
                uppers = [u for u in R if leq(i, u) and leq(j, u)]
                if l not in uppers or not all(leq(l, u) for u in uppers):
                    yield "lub", (i, j)
                lowers = [d for d in R if leq(d, i) and leq(d, j)]
                if g not in lowers or not all(leq(d, g) for d in lowers):
                    yield "glb", (i, j)

    bounded = 0 <= b < n and 0 <= t < n and all(leq(b, x) and leq(x, t) for x in R)
    groups = [
        order(),
        [] if bounded else [("bounds", (b, t))],
        tables(),
        (("assoc", (x, y, z)) for x in R for y in R for z in R
         if mul[mul[x][y]][z] != mul[x][mul[y][z]]),
        (("comm", (x, y)) for x in R for y in R if x < y and mul[x][y] != mul[y][x]),
        (("distrib", (x, y, z)) for x in R for y in R for z in R
         if mul[x][join[y][z]] != join[mul[x][y]][mul[x][z]]),
        (("bot_absorb", (x,)) for x in R if mul[x][b] != b),
        (("identity", (x,)) for x in R if mul[x][t] != x),
    ]
    ce = tuple(f for f in (next(iter(g), None) for g in groups) if f)
    tags = {tag for tag, _ in ce}
    return AxiomReport(
        lattice_ok=not tags & {"partial_order", "bounds", "lub", "glb"},
        assoc_ok="assoc" not in tags,
        comm_ok="comm" not in tags,
        distrib_ok=not tags & {"distrib", "bot_absorb"},
        identity_ok="identity" not in tags,
        counterexamples=ce,
    )


_BASES = [generate_from_spec(s) for s in _SMALL]


@st.composite
def corrupted(draw):
    """A small lawful carrier with some of its fields overwritten by values
    that stay in range (element indices, masks within the carrier)."""
    q = draw(st.sampled_from(_BASES))
    n = q.n
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    changes = {}
    for field in draw(st.sets(st.sampled_from(["down", "join", "meet", "mul", "bottom", "top"]))):
        if field in ("bottom", "top"):
            changes[field] = draw(st.integers(0, n - 1))
        elif field == "down":
            rows = list(q.down)
            for i, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=3)):
                rows[i] ^= 1 << k
            changes[field] = tuple(rows)
        else:
            rows = [list(r) for r in getattr(q, field)]
            for i, j, v in draw(st.lists(cell, min_size=1, max_size=4)):
                rows[i][j] = v
            changes[field] = tuple(tuple(r) for r in rows)
    return replace(q, name=f"{q.name}~", **changes)


@settings(max_examples=500, deadline=None)
@given(corrupted())
def test_check_axioms_matches_the_definitional_scan(q):
    assert check_axioms(q) == _oracle(q)


def _fast_verdicts_exact(q, expected):
    """Wherever the fast tests of check_axioms run, each says "pass" exactly
    when the scan finds no fault; the residuation table, whose existence is
    the distributivity test, is None wherever the order is not partial."""
    tags = {tag for tag, _ in expected.counterexamples}
    if "partial_order" in tags:
        assert q.residuals is None, q.name
    else:
        assert _cones_match(q) == tags.isdisjoint(("lub", "glb")), q.name
    if tags <= {"assoc", "distrib"}:
        assert (q.residuals is not None) == ("distrib" not in tags), q.name
        if "distrib" not in tags:
            assert _light_passes(q) == ("assoc" not in tags), q.name


@pytest.mark.parametrize(
    "name",
    [
        "q4",
        "l3",
        "m3",
        "powerset:3",
        "lukasiewicz:6",
        "lowersets:4:0<1,2<3",
        "lowersets:antichain3",
        "opens:sierpinski",
    ],
)
def test_check_axioms_on_every_single_cell_mutant(name, request):
    # one-sided and symmetric rewrites of mul to any value: the commutative
    # ones reach the fast distributivity and associativity tests, and many
    # of those fail them and fall back to the scan.  The same rewrites of
    # join and meet reach both sides of the lub/glb row test (asymmetric
    # tables are scanned at once), and a down row without its own bit makes
    # an order that is not reflexive, where the row test must not run.
    q = generate_from_spec(name) if ":" in name else request.getfixturevalue(name)
    report = check_axioms(q)
    assert report == _oracle(q) and report.ok
    _fast_verdicts_exact(q, report)
    R = range(q.n)
    rewrites = [((i, j),) for i in R for j in R]
    rewrites += [((i, j), (j, i)) for i in R for j in R if i < j]
    for field in ("mul", "join", "meet"):
        table = getattr(q, field)
        flagged = 0
        for cells in rewrites:
            (i, j) = cells[0]
            for v in R:
                if v == table[i][j]:
                    continue
                rows = [list(r) for r in table]
                for a, c in cells:
                    rows[a][c] = v
                mutant = replace(
                    q, name=f"{q.name}~{field}{cells}={v}", **{field: tuple(map(tuple, rows))}
                )
                expected = _oracle(mutant)
                assert check_axioms(mutant) == expected, mutant.name
                _fast_verdicts_exact(mutant, expected)
                flagged += not expected.ok
        assert flagged > 0, field
    for i in R:
        down = list(q.down)
        down[i] ^= 1 << i
        mutant = replace(q, name=f"{q.name}~down[{i}]", down=tuple(down))
        expected = _oracle(mutant)
        assert check_axioms(mutant) == expected, mutant.name
        assert expected.counterexamples[0] == ("partial_order", (i,)), mutant.name
        _fast_verdicts_exact(mutant, expected)


def test_one_element_carrier():
    # an itemgetter of a single index returns a scalar, not a 1-tuple
    q = generate_from_spec("lukasiewicz:1")
    assert check_axioms(q).ok
    broken = replace(q, down=(0,))
    assert check_axioms(broken) == _oracle(broken)
    assert check_axioms(broken).counterexamples[0] == ("partial_order", (0,))


@pytest.mark.parametrize(
    "spec, field, cell, v, fault",
    [
        ("powerset:2", "meet", (1, 2), 1, "glb"),  # {1} ^ {2} = {1}
        ("lukasiewicz:4", "mul", (1, 2), 1, "assoc"),  # (1 & 2) & 2 = 1, 1 & (2 & 2) = 0
        ("lowersets:chain4", "mul", (3, 3), 4, "distrib"),  # 3 & 3 = 4 > 3 & 4 = 3
    ],
    ids=["glb", "assoc", "distrib"],
)
def test_check_axioms_follows_each_fast_test(monkeypatch, spec, field, cell, v, fault):
    # a carrier whose one fault only its group's scan finds: where the fast
    # test of that group says "pass", check_axioms reports no fault, so a
    # gate that always scans fails here
    q = generate_from_spec(spec)
    rows = [list(r) for r in getattr(q, field)]
    i, j = cell
    rows[i][j] = rows[j][i] = v
    broken = replace(q, name=f"{spec}~", **{field: tuple(map(tuple, rows))})
    assert [tag for tag, _ in check_axioms(broken).counterexamples] == [fault]
    if fault == "distrib":  # the fast test: a row with a right adjoint is not scanned
        adjoints = list(broken._adjoints)
        assert [x for x, r in enumerate(adjoints) if r is None] == [i]
        adjoints[i] = q._adjoints[i]
        broken.__dict__["_adjoints"] = tuple(adjoints)
    else:
        fast = "_cones_match" if fault == "glb" else "_light_passes"
        monkeypatch.setattr(core, fast, lambda _: True)
    assert check_axioms(broken).ok


def test_distributivity_scan_of_the_rows_without_an_adjoint_finds_the_full_scans_fault():
    # under the O(n^2) groups, check_axioms scans distributivity only on the
    # rows with no right adjoint; a copy whose adjoints are unknown scans
    # every row.  Both report the same on every single-cell mutant, and on
    # each of the 39 that reach the restricted scan, all with a distrib
    # fault, rows with an adjoint come before the fault's and are skipped
    specs = ("lowersets:4:0<1,2<3", "lukasiewicz:9", "lowersets:chain6")
    bases = [*MUTATION_BASES, *map(generate_from_spec, specs)]
    restricted = []
    for m in (m for q in bases for _, _, m in single_cell_mutants(q)):
        full = replace(m)
        full.__dict__["_adjoints"] = None
        report = check_axioms(m)
        assert report == check_axioms(full), m.name
        faults = dict(report.counterexamples)
        if faults.keys() <= {"assoc", "distrib"}:
            x = faults["distrib"][0]
            restricted.append(m._adjoints[x] is None and m._adjoints[:x].count(None) < x)
    assert len(restricted) == 39 and all(restricted)


@pytest.mark.parametrize(
    "spec", ["lowersets:chain8", "lowersets:4:0<1,2<3", "powerset:4", "opens:3:-,0,01,012"]
)
def test_light_passes_at_once_where_the_product_is_the_meet(monkeypatch, spec):
    # & is the glb of a lattice on these carriers and their ideal carriers,
    # so Light's test builds no generating set: a copy that does fails here
    def no_generating_set(_):
        raise AssertionError("Light's test built a generating set")

    q = generate_from_spec(spec)
    for c in (q, ideal_quantale(q).quantale):
        assert c.mul == c.meet and c.residuals is not None
        with monkeypatch.context() as m:
            m.setattr(core, "_bottom_up", no_generating_set)
            assert check_axioms(c).ok, c.name
