import ast
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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


@pytest.mark.parametrize(
    "pairs,rows,label",
    [
        # the first undeclared label in reading order: pair by pair, lo then hi
        ([("a", "b"), ("c", "d")], [["a", "a"], ["a", "b"]], "c"),
        ([("a", "d"), ("c", "b")], [["a", "a"], ["a", "b"]], "d"),
        # within a mul row, the leftmost
        ([("a", "b")], [["a", "a"], ["x", "y"]], "x"),
    ],
)
def test_build_names_the_first_undeclared_label(pairs, rows, label):
    with pytest.raises(UndeclaredLabel) as e:
        build_quantale(["a", "b"], pairs, rows)
    assert str(e.value) == f"label {label!r} is not a declared element"


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


def test_build_reports_the_first_lattice_fault_of_a_row():
    # row x lacks a glb at column y (l1, l2 are both maximal below x and y)
    # and a lub at the later column z (v1, v2 are both minimal above x and z):
    # the glb at (x, y) is named
    els = ["x", "y", "z", "l1", "l2", "u", "v1", "v2"]
    rel = [
        ("l1", "x"), ("l1", "y"), ("l2", "x"), ("l2", "y"), ("x", "u"), ("y", "u"),
        ("x", "v1"), ("x", "v2"), ("z", "v1"), ("z", "v2"),
    ]
    with pytest.raises(NotALattice) as e:
        build_quantale(els, rel, [["x"] * 8 for _ in range(8)])
    assert str(e.value) == "'x' and 'y' have no greatest lower bound"


@pytest.mark.parametrize(
    "rows,exc,message",
    [
        # a short row before a row with an undeclared label, and the reverse
        ([["a"], ["a", "c"]], RowArity, "row 'a' has 1 entries, expected 2"),
        ([["a", "c"], ["a"]], UndeclaredLabel, "label 'c' is not a declared element"),
        # one row both short and undeclared: its length is tested first
        ([["a", "a"], ["c"]], RowArity, "row 'b' has 1 entries, expected 2"),
    ],
)
def test_build_reports_the_first_mul_fault(rows, exc, message):
    with pytest.raises(exc) as e:
        build_quantale(["a", "b"], [("a", "b")], rows)
    assert str(e.value) == message


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


@pytest.mark.parametrize("x", [-1, 4, 9])
def test_power_refuses_an_index_outside_the_carrier(q4, x):
    # -1 once read the top row, and 4 == n raised a bare IndexError
    stray = rf"indices \[{x}\] are not elements of q4 \(n=4\)"
    for call in (
        lambda: power(q4, x, 2),
        lambda: power(q4, x, 0),
        lambda: power_of_join(q4, x, q4.top, 2),
        lambda: power_of_join(q4, q4.top, x, 2),
    ):
        with pytest.raises(QuantaleError, match=stray):
            call()


def test_power_of_join_refuses_a_negative_exponent(q4):
    # power_of_join(q4, 1, 2, -1) once summed an empty range and gave bottom
    for call in (lambda: power(q4, 1, -1), lambda: power_of_join(q4, 1, 2, -1)):
        with pytest.raises(ValueError, match="^negative power$"):
            call()


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


@pytest.mark.parametrize("x", [-1, 4])
def test_is_unit_refuses_an_index_outside_the_carrier(q4, x):
    # -1 once answered True, for the top row
    with pytest.raises(QuantaleError, match=rf"indices \[{x}\] are not elements of q4"):
        is_unit(q4, x)


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


def test_lower_covers_returns_on_a_row_without_its_own_bit(q4):
    # the walk once cleared down[c] alone from the elements left to visit,
    # so a row of down without its own bit kept c there and never returned;
    # the calls run in a child process, so a hang fails here and stops nothing
    from qk.quantfile import write_quant

    code = (
        "from dataclasses import replace\n"
        "from qk.core import _lower_covers\n"
        "from qk.quantfile import load_quant, write_quant\n"
        "print(_lower_covers((0, 0b11)))\n"
        "q = load_quant('tests/data/q4.quant')\n"
        "down = list(q.down)\n"
        "down[q.top] &= ~(1 << q.top)\n"
        "print(write_quant(replace(q, down=tuple(down))), end='')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).parent.parent,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[[], [0]]\n" + write_quant(q4)


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


def test_every_public_name_has_a_caller():
    """A top-level public def or class of the package is exported or used
    by other package code; one that only tests reach belongs in tests.
    Names are read with ast, so a docstring mention is no use."""
    used: dict[str, set[int]] = {}  # name -> ids of the top-level nodes naming it
    defined = []
    for path in sorted(Path(qk.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name:
                    used.setdefault(name, set()).add(id(node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((path.name, node))
    orphans = [
        f"{module}:{node.name}"
        for module, node in defined
        if node.name not in qk.__all__ and not used.get(node.name, set()) - {id(node)}
    ]
    assert orphans == []


def test_every_import_is_used():
    """Each top-level import of a package module or a test module names
    something the module reads.  The package's __init__ is left out: its
    imports are its exports."""
    package = [p for p in Path(qk.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    unused = []
    for path in sorted([*package, *Path(__file__).parent.glob("*.py")]):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in read:
                        unused.append(f"{path.parent.name}/{path.name}:{name}")
    assert unused == []
