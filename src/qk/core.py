"""Finite integral commutative quantale carriers and element-level operations.

A carrier is a finite lattice given by explicit tables (order bitmasks,
join table, meet table) together with an n-by-n multiplication whose unit
is the top element.  Elements are indices into a label tuple.  Subsets of
the carrier are bitmask ints (bit i set <=> element i present); this keeps
the exhaustive machinery elsewhere in the package allocation-free.

Every carrier is built by build_quantale from labels, order pairs and
label rows; the .quant parser, the generators and ideals.ideal_quantale
all go through it.  It certifies the lattice part only, looking each lub
and glb up by its cone a table row at a time, and leaves the algebra
unchecked.
check_axioms re-derives everything, including the lattice tables, and is
the sole authority on whether an instance really is a quantale.  It reads
associativity and distributivity as row identities, one per pair (x, y),
where r∘s is the row z -> r[s[z]]:

    mul[x & y]  ==  mul[x] ∘ mul[y]                  (assoc)
    mul[x] ∘ join[y]  ==  join[x & y] ∘ mul[x]       (distrib)

Each side is a whole row read through an itemgetter built once per table
row, and a mismatch is resolved to its first z only when one is found.

Those two scans are the n^3 part, and on a carrier that passes they are
replaced by two fast tests that may only say "pass".  The tests run once
every O(n^2) group has passed (order, bounds, lub/glb, comm, bot_absorb and
identity), so a noncommutative or otherwise broken table runs the scans
alone.  Distributivity holds iff each row has a right adjoint: for every
x and b, the set {y : x & y <= b} is a principal down-set, which is
whether the residuation table q.residuals exists (see there).
Associativity then follows from Light's test: the row identity for each
middle element of a small set that generates the carrier under joins and &
(_light_passes).  Where & is the meet table, as on every lowersets,
powerset and opens carrier and their ideal carriers, it is the glb of a
lattice and associative, and Light's test passes without a row compare.
A fast test that says "fail" hands over to its scan, which finds the
first fault in index order, so the report is the scan's either way.
The lub/glb group works the same way at O(n^2): once the order is a
partial order, a symmetric join table passes when each cell's up-cone is
the common up-cone of its pair, and meet dually (_cones_match); any
other table is scanned cell by cell.

Carriers and homomorphisms are immutable and meant to be reused: each
carries lazy element tables and memos of the ideal calculus that hold
exactly what the defining scans compute, on any table, lawful or not.
The tables are up, powers (the positive powers of each element),
residuals (the right adjoints, see there), and zero_folds and
image_folds, the byte-slice folds of the annihilator and product-image
columns, which turn a fold over a subset mask into one lookup per byte.
The memos are principals and interned, by member mask: the ideals, and
the product masks ideals.generated looks up for their apex alone, which
need not be ideals.  Each is built on first use, after the mask that asks
for it has been validated, so a carrier that is never queried pays
nothing, and one made by dataclasses.replace (a mutant, say) has none.
check_axioms, residuals and ideals.ideal_quantale read one cached
partial-order test, check_axioms and commutative one commutativity test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import (
    DuplicateLabel,
    HomInvalid,
    MissingBound,
    NotALattice,
    NotAPartialOrder,
    QuantaleError,
    RowArity,
    UndeclaredLabel,
)

if TYPE_CHECKING:
    from .ideals import Ideal

# The budgets this cap keeps, and the measured times at it: README.md "Limits".
ELEMENT_CAP = 544


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int] | int) -> int:
    """Accept either a ready-made bitmask or an iterable of indices."""
    if isinstance(indices, int):
        return indices
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _subset_mask(q: FiniteQuantale, s: Iterable[int] | int) -> int:
    """mask_of(s), refusing a negative mask and indices outside q (QuantaleError,
    naming them) before any table lookup could trip over them."""
    if isinstance(s, int):
        if s < 0:
            raise QuantaleError(f"{s} is not a subset mask")
        if not s >> q.n:
            return s
        stray = list(bits(s & ~q.full))
    else:
        s = list(s)
        stray = sorted({i for i in s if not 0 <= i < q.n})
        if not stray:
            return mask_of(s)
    raise QuantaleError(f"indices {stray} are not elements of {q.name} (n={q.n})")


def _require_element(q: FiniteQuantale, x: int) -> None:
    """Refuse an index outside q as _subset_mask does, with one range test."""
    if not 0 <= x < q.n:
        raise QuantaleError(f"indices [{x}] are not elements of {q.name} (n={q.n})")


def _colons(q: FiniteQuantale, m: int, ys: int) -> int:
    """The mask of the x with x & y in the mask m for some y in the mask ys,
    the union of the colons (m : y): per row, one itemgetter and a set test."""
    cols = list(bits(ys))
    if not cols:
        return 0
    read, inside = _reader(cols), set(bits(m))
    return sum(1 << x for x, row in enumerate(q.mul) if not inside.isdisjoint(read(row)))


def _closed(m: int, table: Sequence[Sequence[int]]) -> bool:
    """Whether table[x][y] lies in the mask m for every x, y in m."""
    xs = list(bits(m))
    for x in xs:
        row = table[x]
        for y in xs:
            if not m >> row[y] & 1:
                return False
    return True


@dataclass(frozen=True, eq=False)
class FiniteQuantale:
    """An immutable carrier.  Equality is identity; reuse instances.

    down[i] is the bitmask of elements <= i, so down[a] is also the member
    mask of the principal ideal at a.  join/meet/mul are n-by-n tables of
    element indices.

    The cached properties below the tables are derived once per instance.
    The tuple-valued ones are element tables read straight from the
    tables above.  interned is the memo of ideals by member mask.
    """

    name: str
    elements: tuple[str, ...]
    down: tuple[int, ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    @cached_property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def full(self) -> int:
        """Bitmask of the whole carrier."""
        return (1 << len(self.elements)) - 1

    @cached_property
    def up(self) -> tuple[int, ...]:
        """up[i] = bitmask of elements >= i."""
        return tuple(_transpose(self.down))

    @cached_property
    def commutative(self) -> bool:
        return self._comm_fault is None

    @cached_property
    def _comm_fault(self) -> tuple[str, tuple[int, int]] | None:
        """The first pair x < y with x & y != y & x in index order, or None."""
        mul, n = self.mul, len(self.elements)
        return next((("comm", (x, y)) for x in range(n) for y in range(x + 1, n) if mul[x][y] != mul[y][x]), None)

    @cached_property
    def zero_folds(self) -> tuple[tuple[int, ...], ...]:
        """Byte tables of the annihilator columns, column t the x with
        x & t == bottom: for a subset mask s, the AND of the columns of the t
        in s is the AND of zero_folds[k][byte k of s]."""
        n, mul, b = len(self.elements), self.mul, self.bottom
        cols = [sum(1 << x for x in range(n) if mul[x][t] == b) for t in range(n)]
        return _byte_folds(cols, int.__and__, self.full)

    @cached_property
    def image_folds(self) -> tuple[tuple[int, ...], ...]:
        """Byte tables of the product-image columns, column t the products
        l & t over all l: the OR of the columns of the t in s is the OR of
        image_folds[k][byte k of s]."""
        n, mul = len(self.elements), self.mul
        cols = [sum(1 << v for v in {row[t] for row in mul}) for t in range(n)]
        return _byte_folds(cols, int.__or__, 0)

    @cached_property
    def powers(self) -> tuple[int, ...]:
        """powers[x] = bitmask of the positive powers x, x & x, ...: the walk
        y -> x & y from x, which descends and repeats within n steps."""
        out = []
        for x, row in enumerate(self.mul):
            seen, y = 0, x
            while not seen >> y & 1:
                seen |= 1 << y
                y = row[y]
            out.append(seen)
        return tuple(out)

    @cached_property
    def _order_fault(self) -> tuple[str, tuple[int, ...]] | None:
        """The first fault of down as a partial order (reflexive,
        antisymmetric, transitive) in check_axioms' index order, or None."""
        down = self.down
        for i, di in enumerate(down):
            if not di >> i & 1:
                return "partial_order", (i,)
            for j in bits(di):
                if j != i and down[j] >> i & 1:
                    return "partial_order", (i, j)
                if down[j] & ~di:
                    return "partial_order", (j, i)
        return None

    @cached_property
    def residuals(self) -> tuple[tuple[int, ...], ...] | None:
        """residuals[a][b] = the greatest y with a & y <= b, or None unless
        down is a partial order and each S_b = {y : a & y <= b} is a principal
        down-set: _right_adjoints of mul.  On genuine order, bounds and join
        tables, that is whether every row y -> a & y preserves all joins: a
        map between finite lattices does iff it has a right adjoint (Davey
        and Priestley, ch. 7)."""
        return _right_adjoints(self, self.mul)

    @cached_property
    def interned(self) -> dict[int, Ideal]:
        """Memo: member mask -> the one ideals.Ideal of this carrier with it,
        made on the first lookup of its mask.  Every Ideal is made here, so
        a noncommutative carrier, which has none, raises NotCommutative."""
        from .ideals import _Interned, require_commutative

        require_commutative(self)
        return _Interned(self)

    @cached_property
    def principals(self) -> tuple[Ideal, ...]:
        """principals[a] = the interned ideal with members down[a]."""
        interned = self.interned
        return tuple(interned[d] for d in self.down)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise UndeclaredLabel(f"no element {label!r} in {self.name}") from None

    def label(self, i: int) -> str:
        return self.elements[i]

    def labels(self, mask: int) -> str:
        """Space-joined labels of a subset, in index order."""
        return " ".join(self.elements[i] for i in bits(_subset_mask(self, mask)))

    def join_of(self, xs: Iterable[int]) -> int:
        """Join of finitely many elements; empty join is bottom."""
        out, join = self.bottom, self.join
        for x in xs:
            out = join[out][x]
        return out

    def meet_of(self, xs: Iterable[int]) -> int:
        """Meet of finitely many elements; empty meet is top."""
        return reduce(lambda a, b: self.meet[a][b], xs, self.top)

    def same_structure(self, other: "FiniteQuantale") -> bool:
        """Structural equality: same name, labels and tables."""
        return (
            self.name == other.name
            and self.elements == other.elements
            and self.down == other.down
            and self.mul == other.mul
        )

    def __repr__(self) -> str:
        return f"<FiniteQuantale {self.name} n={self.n}>"


def _right_adjoints(
    q: FiniteQuantale, table: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...] | None:
    """adjoints[a][b] = the greatest y with table[a][y] <= b, or None unless
    q.down is a partial order and each S_b = {y : table[a][y] <= b} is a
    principal down-set.  S_b is folded bottom-up from the S_c of the lower
    covers c of b, one pass per row."""
    if q._order_fault is not None:
        return None
    down, covers = q.down, _lower_covers(q.down)
    steps = [(b, covers[b]) for b in _bottom_up(q)]
    apex = {d: r for r, d in enumerate(down)}  # the element with down-set d
    bit = [1 << y for y in range(q.n)]
    rows = []
    try:
        for row in table:
            pre = [0] * len(row)  # pre[b] = {y : table[a][y] == b}, then S_b once folded
            for y, v in enumerate(row):
                pre[v] |= bit[y]
            for b, cs in steps:
                s = pre[b]
                for c in cs:
                    s |= pre[c]
                pre[b] = s
            rows.append(_reader(pre)(apex))
    except KeyError:  # an S_b that is not a principal down-set
        return None
    return tuple(rows)


def _byte_folds(cols: Sequence, op: Callable, unit) -> tuple[tuple, ...]:
    """tables[k][b] = op folded from unit over cols[8k + i] for the bits i
    set in b, one table per 8 columns; a fold over a subset mask s is then
    one lookup per byte of s.  Each entry is an object op returned, or unit."""
    tables = []
    for k in range(0, len(cols), 8):
        chunk = cols[k : k + 8]
        table = [unit] * (1 << len(chunk))
        for b in range(1, len(table)):
            low = b & -b
            table[b] = op(table[b ^ low], chunk[low.bit_length() - 1])
        tables.append(tuple(table))
    return tuple(tables)


def _closure_up(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Reflexive-transitive closure of the pairs (lo, hi) as masks: up[i]
    holds every j reachable from i (Warshall's loop over bitmask rows)."""
    up = [1 << i for i in range(n)]
    for lo, hi in pairs:
        up[lo] |= 1 << hi
    for k in range(n):
        bit, row = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    return up


def _transpose(rows: Sequence[int]) -> list[int]:
    """The transpose of a square bit matrix: out[j] has bit i iff rows[i] has
    bit j.  Each row is read as its binary digits, column k of the digit
    strings being bit n - 1 - k, and each column is read back as a number."""
    n = len(rows)
    digits = [format(r, f"0{n}b") for r in reversed(rows)]
    return [int("".join(col), 2) for col in zip(*digits)][::-1]


def _mutual_pair(up: Sequence[int], down: Sequence[int]) -> tuple[int, int] | None:
    """The first (i, j), i != j, with each in the other's up[] row, or None
    when the closed relation up is antisymmetric; down is its transpose."""
    for i, (u, d) in enumerate(zip(up, down)):
        if both := u & d & ~(1 << i):
            return i, (both & -both).bit_length() - 1
    return None


def build_quantale(
    elements: Sequence[str],
    leq_generators: Iterable[tuple[str, str]],
    mul_table: Sequence[Sequence[str]],
    *,
    name: str = "q",
) -> FiniteQuantale:
    """Assemble a carrier from labels, order generator pairs and a mul table.

    The order is the reflexive-transitive closure of the generator pairs
    (lo, hi), each read as lo <= hi.  The lattice part is certified here:
    every pair must have a least upper and greatest lower bound, so a
    nonempty carrier has global ones.  The algebra is left unchecked.

    mul_table rows are label sequences: row x, column j gives x & elements[j].
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise MissingBound("empty carrier has no bottom or top")
    index: dict[str, int] = {}
    for i, lbl in enumerate(elements):
        if lbl in index:
            raise DuplicateLabel(f"element {lbl!r} declared twice")
        index[lbl] = i

    # a KeyError names the first undeclared label, read in table order
    try:
        pairs = [(index[lo], index[hi]) for lo, hi in leq_generators]
    except KeyError as e:
        raise UndeclaredLabel(f"label {e.args[0]!r} is not a declared element") from None
    up = _closure_up(n, pairs)
    down = _transpose(up)
    if mutual := _mutual_pair(up, down):
        i, j = mutual
        raise NotAPartialOrder(
            f"{elements[i]!r} and {elements[j]!r} are below each other"
        )

    # A set of common upper bounds is an up-set, so it has a least member l
    # exactly when it equals up[l] (and dually for lower bounds and down);
    # the order is antisymmetric, so each cone belongs to one element.
    by_up = {u: i for i, u in enumerate(up)}.get
    by_down = {d: i for i, d in enumerate(down)}.get
    full = (1 << n) - 1
    join_rows: list[tuple[int, ...]] = []
    meet_rows: list[tuple[int, ...]] = []
    for i, (ui, di) in enumerate(zip(up, down)):
        # both tables are symmetric: below column i, row i repeats column i
        # of the rows before it, whose faults would have been found there
        jr = tuple([r[i] for r in join_rows] + [by_up(u & ui) for u in up[i:]])
        mr = tuple([r[i] for r in meet_rows] + [by_down(d & di) for d in down[i:]])
        if None in jr or None in mr:  # the first missing bound, lub before glb
            j = next(j for j in range(i, n) if jr[j] is None or mr[j] is None)
            kind = "least upper" if jr[j] is None else "greatest lower"
            raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no {kind} bound")
        join_rows.append(jr)
        meet_rows.append(mr)

    bottom = by_up(full)
    top = by_down(full)

    if len(mul_table) != n:
        raise RowArity(f"expected {n} multiplication rows, got {len(mul_table)}")
    mul_rows = []
    for i, row in enumerate(mul_table):
        if len(row) != n:
            raise RowArity(
                f"row {elements[i]!r} has {len(row)} entries, expected {n}"
            )
        try:
            mul_rows.append(tuple(map(index.__getitem__, row)))
        except KeyError as e:
            raise UndeclaredLabel(f"label {e.args[0]!r} is not a declared element") from None

    return FiniteQuantale(
        name=name,
        elements=elements,
        down=tuple(down),
        join=tuple(join_rows),
        meet=tuple(meet_rows),
        mul=tuple(mul_rows),
        bottom=bottom,
        top=top,
    )


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of check_axioms.

    counterexamples holds at most one witness per failed axiom tag, as
    (tag, element index tuple).  Flags are true iff no witness was found
    for the corresponding group of axioms.
    """

    lattice_ok: bool
    assoc_ok: bool
    comm_ok: bool
    distrib_ok: bool
    identity_ok: bool
    counterexamples: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return (
            self.lattice_ok
            and self.assoc_ok
            and self.comm_ok
            and self.distrib_ok
            and self.identity_ok
        )


def _reader(row: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """other -> tuple(other[k] for k in row), built once per row.  (An
    itemgetter of one index returns the item itself, not a 1-tuple.)"""
    if len(row) == 1:
        return lambda other: (other[row[0]],)
    return itemgetter(*row)


def _first_diff(a: Sequence[int], b: Sequence[int]) -> int:
    """The first index at which two rows of one length differ."""
    return next(z for z, (u, v) in enumerate(zip(a, b)) if u != v)


def check_axioms(q: FiniteQuantale) -> AxiomReport:
    """Re-derive every axiom from the tables alone.

    Nothing from construction is trusted: the order must be a partial
    order, the join/meet tables must hold actual lubs/glbs, bounds must be
    global, and the multiplication must be associative, commutative,
    distributive over binary joins (plus x & bottom == bottom, which on a
    finite carrier extends both to the empty and to arbitrary joins) with
    top as unit.

    Each group of axioms yields its faults as (tag, witness) in index
    order, and the report keeps the first fault of each group.
    Associativity and distributivity are the row identities of the module
    docstring, scanned only where their fast tests do not pass.
    """
    n = q.n
    down, up, join, meet, mul = q.down, q.up, q.join, q.meet, q.mul
    b, t = q.bottom, q.top
    mread = [_reader(r) for r in mul]

    def tables():  # join and meet hold genuine lubs and glbs
        for i in range(n):
            for j in range(n):
                commons, l = up[i] & up[j], join[i][j]
                if not commons >> l & 1 or commons & ~up[l]:
                    yield "lub", (i, j)
                commons, g = down[i] & down[j], meet[i][j]
                if not commons >> g & 1 or commons & ~down[g]:
                    yield "glb", (i, j)

    def assoc():
        for x, mx in enumerate(mul):
            for y in range(n):
                left, right = mul[mx[y]], mread[y](mx)
                if left != right:
                    yield "assoc", (x, y, _first_diff(left, right))

    def distrib():
        jread = [_reader(r) for r in join]
        for x, mx in enumerate(mul):
            for y, jy in enumerate(jread):
                left, right = jy(mx), mread[x](join[mx[y]])
                if left != right:
                    yield "distrib", (x, y, _first_diff(left, right))

    # the O(n^2) groups: the fast tests run only once all of them pass, and
    # the lub/glb tables are tested whole only on a partial order
    order_f, comm_f = q._order_fault, q._comm_fault
    bounds_f = (
        None
        if 0 <= b < n and 0 <= t < n and up[b] == down[t] == q.full
        else ("bounds", (b, t))
    )
    tables_f = None if order_f is None and _cones_match(q) else next(tables(), None)
    bot_f, identity_f = [
        next(g, None)
        for g in (
            (("bot_absorb", (x,)) for x in range(n) if mul[x][b] != b),  # the empty join
            (("identity", (x,)) for x in range(n) if mul[x][t] != x),
        )
    ]
    gate = not any((order_f, bounds_f, tables_f, comm_f, bot_f, identity_f))
    distrib_f = None if gate and q.residuals is not None else next(distrib(), None)
    assoc_f = (
        None
        if gate and distrib_f is None and _light_passes(q)
        else next(assoc(), None)
    )
    faults = (order_f, bounds_f, tables_f, assoc_f, comm_f, distrib_f, bot_f, identity_f)
    ce = tuple(fault for fault in faults if fault)
    tags = {tag for tag, _ in ce}
    return AxiomReport(
        lattice_ok=tags.isdisjoint(("partial_order", "bounds", "lub", "glb")),
        assoc_ok="assoc" not in tags,
        comm_ok="comm" not in tags,
        distrib_ok=tags.isdisjoint(("distrib", "bot_absorb")),
        identity_ok="identity" not in tags,
        counterexamples=ce,
    )


def _bottom_up(q: FiniteQuantale) -> list[int]:
    """The elements sorted by the size of their down-sets: a linear
    extension of the order when down is a partial order."""
    return sorted(range(q.n), key=lambda i: q.down[i].bit_count())


def _lower_covers(down: Sequence[int]) -> list[list[int]]:
    """covers[b] = the elements covered by b, the maximal ones strictly
    below it, on a partial order.  Each b visits the elements below it
    from the highest index down, skipping those below one already visited,
    so an index order that lists the carrier bottom-up visits only the
    covers."""
    covers = []
    for b, db in enumerate(down):
        below = rest = db & ~(1 << b)
        deeper = 0  # strictly below a visited element
        while rest:
            c = rest.bit_length() - 1
            deeper |= down[c] & ~(1 << c)
            rest &= ~(down[c] | 1 << c)
        covers.append(list(bits(below & ~deeper)))
    return covers


def _cones_match(q: FiniteQuantale) -> bool:
    """Whether every join cell is a least upper bound and every meet cell a
    greatest lower bound, tested a table at a time; exact on a carrier whose
    order is a partial order.  There the common upper bounds C = up[i] &
    up[j] have l as least member iff up[l] == C (l in C gives up[l] <= C by
    transitivity, and l in up[l]), and dually with down.  On a symmetric
    table the cells from the diagonal on decide the rest.  Where down[i]
    lacks its own bit, join[i][i] = i matches its cone but is no upper bound."""
    for table, cones in ((q.join, q.up), (q.meet, q.down)):
        if tuple(zip(*table)) != table:
            return False
        cone = dict(enumerate(cones)).get  # None for a cell out of range
        cells = [cone(l) for i, row in enumerate(table) for l in row[i:]]
        if cells != [c & d for i, c in enumerate(cones) for d in cones[i:]]:
            return False
    return True


def _light_passes(q: FiniteQuantale) -> bool:
    """Light's associativity test; exact on a carrier that passes every
    other axiom of check_axioms.

    The middles a with (x & a) & y == x & (a & y) for all x, y are closed
    under & (Clifford and Preston, vol. 1).  On such a carrier they also
    hold bottom and top and are closed under joins, so associativity
    follows once the row identity of a holds for each a in a set G that
    generates the carrier from bottom and top under joins and &.  G is
    greedy, top-down: an element joins G when the closure of the elements
    before it misses it.  Where & is the meet table it is the glb of a
    lattice, which is associative, and no row is compared.
    """
    if q.mul == q.meet:
        return True
    join, mul, n = q.join, q.mul, q.n
    inside: set[int] = set()
    members: list[int] = []
    gens = []

    def close(a: int) -> None:  # add a, closing under joins and &
        inside.add(a)
        todo = [a]
        while todo and len(inside) < n:
            e = todo.pop()
            members.append(e)
            je, me = join[e], mul[e]
            for c in members:
                for v in (je[c], me[c]):
                    if v not in inside:
                        inside.add(v)
                        todo.append(v)

    close(q.bottom)
    close(q.top)
    for a in reversed(_bottom_up(q)):
        if len(inside) == n:
            break
        if a not in inside:
            gens.append(a)
            close(a)
    for a in gens:
        read = _reader(mul[a])
        if any(mul[mx[a]] != read(mx) for mx in mul):
            return False
    return True


def power(q: FiniteQuantale, x: int, n: int) -> int:
    """x to the n-th multiplicative power; x^0 is top (the unit)."""
    if n < 0:
        raise ValueError("negative power")
    _require_element(q, x)
    acc = q.top
    row = q.mul[x]
    for _ in range(n):
        acc = row[acc]
    return acc


def power_of_join(q: FiniteQuantale, x: int, y: int, n: int) -> int:
    """Binomial expansion of (x v y)^n: the join of x^(n-k) & y^k, k = 0..n.

    The integer coefficients of the usual binomial formula collapse because
    join is idempotent.
    """
    if n < 0:
        raise ValueError("negative power")
    acc = q.bottom
    for k in range(n + 1):
        term = q.mul[power(q, x, n - k)][power(q, y, k)]
        acc = q.join[acc][term]
    return acc


def is_unit(q: FiniteQuantale, x: int) -> bool:
    """Whether some y has x & y == top.

    On an integral carrier this forces x == top, but the scan is the
    definition and stays honest on broken tables.
    """
    _require_element(q, x)
    row = q.mul[x]
    return any(row[y] == q.top for y in range(q.n))


@dataclass(frozen=True)
class HomReport:
    """check_hom outcome: ok, or the first violated condition with witness.

    condition is one of "arity", "order", "join", "meet", "mul"; the
    witness is a source-element index pair (or () for arity).
    """

    ok: bool
    condition: str | None = None
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True, eq=False)
class QuantaleHom:
    """A candidate structure map; mapping[i] is the target index of source i."""

    source: FiniteQuantale
    target: FiniteQuantale
    mapping: tuple[int, ...]
    name: str = "hom"

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def check(self) -> HomReport:
        """check_hom of this map, computed once per hom."""
        return self._report

    @cached_property
    def _report(self) -> HomReport:
        return check_hom(self.mapping, self.source, self.target)

    def then(self, other: "QuantaleHom") -> "QuantaleHom":
        """Composite map: self first, then other."""
        if other.source is not self.target:
            raise HomInvalid("composition requires matching middle carrier")
        return QuantaleHom(
            source=self.source,
            target=other.target,
            mapping=tuple(other.mapping[y] for y in self.mapping),
            name=f"{self.name};{other.name}",
        )

    @classmethod
    def identity(cls, q: FiniteQuantale) -> "QuantaleHom":
        return cls(source=q, target=q, mapping=tuple(range(q.n)), name="id")

    def __repr__(self) -> str:
        return f"<QuantaleHom {self.name}: {self.source.name} -> {self.target.name}>"


def check_hom(
    mapping: Sequence[int], q: FiniteQuantale, q2: FiniteQuantale
) -> HomReport:
    """Check a candidate map for order, join, meet and mul preservation.

    Returns the first violation in that fixed condition order, with the
    source pair that witnesses it.
    """
    n = q.n
    if len(mapping) != n or any(not (0 <= v < q2.n) for v in mapping):
        return HomReport(ok=False, condition="arity", witness=())
    for x in range(n):
        fx = mapping[x]
        for y in bits(q.up[x]):
            if not q2.leq(fx, mapping[y]):
                return HomReport(ok=False, condition="order", witness=(x, y))
    for condition, op, op2 in (("join", q.join, q2.join), ("meet", q.meet, q2.meet)):
        for x in range(n):
            row, row2 = op[x], op2[mapping[x]]
            for y in range(x, n):
                if mapping[row[y]] != row2[mapping[y]]:
                    return HomReport(ok=False, condition=condition, witness=(x, y))
    for x in range(n):
        fx = mapping[x]
        for y in range(n):
            if mapping[q.mul[x][y]] != q2.mul[fx][mapping[y]]:
                return HomReport(ok=False, condition="mul", witness=(x, y))
    return HomReport(ok=True)
