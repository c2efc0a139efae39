"""Plain-text exchange format for finite quantales and their homs.

A carrier file looks like:

    # product of two points
    quantale q4
    elements: bot a b top
    order:
      bot <= a
      bot <= b
      a <= top
      b <= top
    mul:
      bot: bot bot bot bot
      a:   bot a   bot a
      b:   bot bot b   b
      top: bot a   b   top
    end

Order lines are generators; the reflexive transitive closure is taken.
Comments run from '#' to end of line.  A name or element label is any
nonempty run of characters without whitespace, '#' or ':', other than the
reserved words '<=', '->' and 'end'.  The parser is liberal about
alignment and blank lines and reports every error with its line and
column; the labels, order pairs and rows it reads go straight to
core.build_quantale.  The writer refuses (ValueError) a name or label
that the parser would not read back, and otherwise emits the canonical
form (elements in index order, covering pairs only, single spaces), so
writing, parsing and writing again reproduces the first output byte for
byte.

A hom file names its endpoint files relative to its own location:

    hom collapse : q4.quant -> c2.quant
    map:
      bot -> bot
      a -> top
      b -> bot
      top -> top
    end
"""

from __future__ import annotations

import re
from pathlib import Path

from .core import ELEMENT_CAP, FiniteQuantale, QuantaleHom, _lower_covers, build_quantale
from .errors import (
    DuplicateLabel,
    QuantSyntaxError,
    RowArity,
    TooLarge,
    UndeclaredLabel,
)

_RESERVED = {"<=", "->", "end"}
_TOKEN = re.compile(r"\S+")


def _is_label(tok: str) -> bool:
    """The label rule of the parser and the writer, for names and elements."""
    return (
        _TOKEN.fullmatch(tok) is not None
        and "#" not in tok
        and ":" not in tok
        and tok not in _RESERVED
    )


def _check_label(tok: str, line: int, col: int) -> str:
    if not _is_label(tok):
        raise QuantSyntaxError(f"invalid label {tok!r}", line, col)
    return tok


class _Lines:
    """The non-blank lines of a text, each as (line number, [(token,
    1-based column), ...]) with its comment stripped, tokenized when taken."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.last = len(lines) or 1
        toks = ([(m.group(), m.start() + 1) for m in _TOKEN.finditer(raw.partition("#")[0])]
                for raw in lines)
        self.rows = ((k, t) for k, t in enumerate(toks, 1) if t)

    def take(self, what: str):
        """The next line; running out is an error naming what was expected."""
        row = next(self.rows, None)
        if row is None:
            raise QuantSyntaxError(f"unexpected end of file, expected {what}", self.last, 1)
        return row

    def done(self) -> None:
        """Refuse anything after the closing 'end'."""
        if row := next(self.rows, None):
            ln, toks = row
            raise QuantSyntaxError("content after 'end'", ln, toks[0][1])


def parse_quant(text: str) -> FiniteQuantale:
    """Parse a carrier file; the algebra is not certified (see check_axioms)."""
    lines = _Lines(text)
    ln, toks = lines.take("'quantale NAME'")
    if len(toks) != 2 or toks[0][0] != "quantale":
        raise QuantSyntaxError("expected 'quantale NAME'", ln, toks[0][1])
    name = _check_label(toks[1][0], ln, toks[1][1])

    ln, toks = lines.take("'elements:'")
    if toks[0][0] != "elements:":
        raise QuantSyntaxError("expected 'elements:'", ln, toks[0][1])
    # labels in declaration order, in a dict so membership is one lookup
    elements: dict[str, None] = {}
    labels = toks[1:]
    while True:
        for tok, col in labels:
            lbl = _check_label(tok, ln, col)
            if lbl in elements:
                raise DuplicateLabel(f"element {lbl!r} declared twice", ln, col)
            elements[lbl] = None
            if len(elements) > ELEMENT_CAP:
                raise TooLarge(f"line {ln}, col {col}: more than {ELEMENT_CAP} elements declared")
        # further element lines until the order section
        ln, toks = lines.take("'order:'")
        if toks[0][0] == "order:":
            break
        labels = toks
    if not elements:
        raise QuantSyntaxError("no elements declared", ln, toks[0][1])

    order: list[tuple[str, str]] = []
    while True:
        ln, toks = lines.take("an order pair or 'mul:'")
        if toks[0][0] == "mul:":
            break
        if len(toks) != 3 or toks[1][0] != "<=":
            raise QuantSyntaxError("expected 'A <= B'", ln, toks[0][1])
        for lbl, col in (toks[0], toks[2]):
            if lbl not in elements:
                raise UndeclaredLabel(f"label {lbl!r} is not a declared element", ln, col)
        order.append((toks[0][0], toks[2][0]))

    rows: dict[str, list[str]] = {}
    while True:
        ln, toks = lines.take("a multiplication row or 'end'")
        if toks[0][0] == "end":
            break
        head, head_col = toks[0]
        if not head.endswith(":") or len(head) < 2:
            raise QuantSyntaxError("expected 'X: ...' multiplication row", ln, head_col)
        row_label = head[:-1]
        if row_label not in elements:
            raise UndeclaredLabel(
                f"label {row_label!r} is not a declared element", ln, head_col
            )
        if row_label in rows:
            raise DuplicateLabel(f"row {row_label!r} given twice", ln, head_col)
        entries = []
        for tok, col in toks[1:]:
            if tok not in elements:
                raise UndeclaredLabel(f"label {tok!r} is not a declared element", ln, col)
            entries.append(tok)
        if len(entries) != len(elements):
            raise RowArity(
                f"row {row_label!r} has {len(entries)} entries, expected {len(elements)}",
                ln,
                head_col,
            )
        rows[row_label] = entries
    lines.done()

    for lbl in elements:
        if lbl not in rows:
            raise RowArity(f"no multiplication row for {lbl!r}", ln, 1)
    return build_quantale(list(elements), order, [rows[lbl] for lbl in elements], name=name)


def load_quant(path) -> FiniteQuantale:
    return parse_quant(Path(path).read_text(encoding="utf-8"))


def write_quant(q: FiniteQuantale) -> str:
    """Canonical text form; see the module docstring for the guarantees."""
    if not _is_label(q.name):
        raise ValueError(f"name {q.name!r} is not a single printable token")
    for lbl in q.elements:
        if not _is_label(lbl):
            raise ValueError(f"element label {lbl!r} cannot be written")
    lines = [f"quantale {q.name}", "elements: " + " ".join(q.elements), "order:"]
    for lo, upper in enumerate(_lower_covers(q.up)):  # lower covers of the dual order
        lines.extend(f"  {q.elements[lo]} <= {q.elements[hi]}" for hi in upper)
    lines.append("mul:")
    for i in range(q.n):
        row = " ".join(q.elements[v] for v in q.mul[i])
        lines.append(f"  {q.elements[i]}: {row}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_quant(q: FiniteQuantale, path) -> None:
    Path(path).write_text(write_quant(q), encoding="utf-8")


def parse_hom(text: str, base_dir) -> QuantaleHom:
    """Parse a hom file; endpoint files load relative to base_dir.

    The mapping is returned unvalidated so a deliberately wrong file can
    still be inspected; run .check() for the verdict.
    """
    base = Path(base_dir)
    lines = _Lines(text)
    ln, toks = lines.take("'hom NAME : SRC -> DST'")
    shape_ok = (
        len(toks) == 6
        and toks[0][0] == "hom"
        and toks[2][0] == ":"
        and toks[4][0] == "->"
    )
    if not shape_ok:
        raise QuantSyntaxError("expected 'hom NAME : SRC -> DST'", ln, toks[0][1])
    name = toks[1][0]
    src_path = base / toks[3][0]
    dst_path = base / toks[5][0]
    if not src_path.is_file():
        raise QuantSyntaxError(f"no such carrier file: {src_path}", ln, toks[3][1])
    if not dst_path.is_file():
        raise QuantSyntaxError(f"no such carrier file: {dst_path}", ln, toks[5][1])
    source = load_quant(src_path)
    target = load_quant(dst_path)

    ln, toks = lines.take("'map:'")
    if toks[0][0] != "map:":
        raise QuantSyntaxError("expected 'map:'", ln, toks[0][1])

    images: dict[int, int] = {}
    while True:
        ln, toks = lines.take("a 'x -> y' line or 'end'")
        if toks[0][0] == "end":
            break
        if len(toks) != 3 or toks[1][0] != "->":
            raise QuantSyntaxError("expected 'x -> y'", ln, toks[0][1])
        x_lbl, x_col = toks[0]
        y_lbl, y_col = toks[2]
        if x_lbl not in source.elements:
            raise UndeclaredLabel(
                f"label {x_lbl!r} is not an element of {source.name}", ln, x_col
            )
        if y_lbl not in target.elements:
            raise UndeclaredLabel(
                f"label {y_lbl!r} is not an element of {target.name}", ln, y_col
            )
        x = source.index(x_lbl)
        if x in images:
            raise DuplicateLabel(f"element {x_lbl!r} mapped twice", ln, x_col)
        images[x] = target.index(y_lbl)
    lines.done()
    missing = [source.elements[i] for i in range(source.n) if i not in images]
    if missing:
        raise RowArity(f"no image given for {missing[0]!r}", ln, 1)
    mapping = tuple(images[i] for i in range(source.n))
    return QuantaleHom(source=source, target=target, mapping=mapping, name=name)


def load_hom(path) -> QuantaleHom:
    p = Path(path)
    return parse_hom(p.read_text(encoding="utf-8"), p.parent)
