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


class _Lines:
    """The non-blank lines of a text, each as (line number, its words) with
    its comment stripped, split when taken.  str.split() cuts at the same
    whitespace as _TOKEN, so the words are its tokens; a token's column is
    found only for an error message."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.last = len(self.lines) or 1
        words = (raw.partition("#")[0].split() for raw in self.lines)
        self.rows = ((k, w) for k, w in enumerate(words, 1) if w)

    def take(self, what: str):
        """The next line; running out is an error naming what was expected."""
        row = next(self.rows, None)
        if row is None:
            raise QuantSyntaxError(f"unexpected end of file, expected {what}", self.last, 1)
        return row

    def col(self, ln: int, k: int) -> int:
        """The 1-based column of word k of line ln."""
        text = self.lines[ln - 1].partition("#")[0]
        return [m.start() for m in _TOKEN.finditer(text)][k] + 1

    def label(self, ln: int, words: list[str], k: int) -> str:
        """Word k of line ln, which must be a label."""
        if not _is_label(words[k]):
            raise QuantSyntaxError(f"invalid label {words[k]!r}", ln, self.col(ln, k))
        return words[k]

    def done(self) -> None:
        """Refuse anything after the closing 'end'."""
        if row := next(self.rows, None):
            raise QuantSyntaxError("content after 'end'", row[0], self.col(row[0], 0))


def parse_quant(text: str) -> FiniteQuantale:
    """Parse a carrier file; the algebra is not certified (see check_axioms)."""
    lines = _Lines(text)
    ln, words = lines.take("'quantale NAME'")
    if len(words) != 2 or words[0] != "quantale":
        raise QuantSyntaxError("expected 'quantale NAME'", ln, lines.col(ln, 0))
    name = lines.label(ln, words, 1)

    ln, words = lines.take("'elements:'")
    if words[0] != "elements:":
        raise QuantSyntaxError("expected 'elements:'", ln, lines.col(ln, 0))
    # labels in declaration order, in a dict so membership is one lookup
    elements: dict[str, None] = {}
    start = 1
    while True:
        for k in range(start, len(words)):
            lbl = lines.label(ln, words, k)
            if lbl in elements:
                raise DuplicateLabel(f"element {lbl!r} declared twice", ln, lines.col(ln, k))
            elements[lbl] = None
            if len(elements) > ELEMENT_CAP:
                raise TooLarge(
                    f"line {ln}, col {lines.col(ln, k)}: more than {ELEMENT_CAP} elements declared"
                )
        # further element lines until the order section
        ln, words = lines.take("'order:'")
        if words[0] == "order:":
            break
        start = 0
    if not elements:
        raise QuantSyntaxError("no elements declared", ln, lines.col(ln, 0))

    order: list[tuple[str, str]] = []
    while True:
        ln, words = lines.take("an order pair or 'mul:'")
        if words[0] == "mul:":
            break
        if len(words) != 3 or words[1] != "<=":
            raise QuantSyntaxError("expected 'A <= B'", ln, lines.col(ln, 0))
        for k in (0, 2):
            if words[k] not in elements:
                raise UndeclaredLabel(
                    f"label {words[k]!r} is not a declared element", ln, lines.col(ln, k)
                )
        order.append((words[0], words[2]))

    n = len(elements)
    declared = elements.keys()
    rows: dict[str, list[str]] = {}
    while True:
        ln, words = lines.take("a multiplication row or 'end'")
        head = words[0]
        if head == "end":
            break
        if not head.endswith(":") or len(head) < 2:
            raise QuantSyntaxError("expected 'X: ...' multiplication row", ln, lines.col(ln, 0))
        row_label = head[:-1]
        if row_label not in elements:
            raise UndeclaredLabel(
                f"label {row_label!r} is not a declared element", ln, lines.col(ln, 0)
            )
        if row_label in rows:
            raise DuplicateLabel(f"row {row_label!r} given twice", ln, lines.col(ln, 0))
        entries = words[1:]
        if len(entries) != n or not declared >= set(entries):
            # the first fault of the row: an undeclared label, else its length
            k = next((k for k in range(1, len(words)) if words[k] not in elements), None)
            if k is not None:
                raise UndeclaredLabel(
                    f"label {words[k]!r} is not a declared element", ln, lines.col(ln, k)
                )
            raise RowArity(
                f"row {row_label!r} has {len(entries)} entries, expected {n}",
                ln,
                lines.col(ln, 0),
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
    ln, words = lines.take("'hom NAME : SRC -> DST'")
    shape_ok = len(words) == 6 and words[0] == "hom" and words[2] == ":" and words[4] == "->"
    if not shape_ok:
        raise QuantSyntaxError("expected 'hom NAME : SRC -> DST'", ln, lines.col(ln, 0))
    name = words[1]
    src_path = base / words[3]
    dst_path = base / words[5]
    if not src_path.is_file():
        raise QuantSyntaxError(f"no such carrier file: {src_path}", ln, lines.col(ln, 3))
    if not dst_path.is_file():
        raise QuantSyntaxError(f"no such carrier file: {dst_path}", ln, lines.col(ln, 5))
    source = load_quant(src_path)
    target = load_quant(dst_path)

    ln, words = lines.take("'map:'")
    if words[0] != "map:":
        raise QuantSyntaxError("expected 'map:'", ln, lines.col(ln, 0))

    src = {lbl: i for i, lbl in enumerate(source.elements)}
    dst = {lbl: i for i, lbl in enumerate(target.elements)}
    images: dict[int, int] = {}
    while True:
        ln, words = lines.take("a 'x -> y' line or 'end'")
        if words[0] == "end":
            break
        if len(words) != 3 or words[1] != "->":
            raise QuantSyntaxError("expected 'x -> y'", ln, lines.col(ln, 0))
        x_lbl, _, y_lbl = words
        if x_lbl not in src:
            raise UndeclaredLabel(
                f"label {x_lbl!r} is not an element of {source.name}", ln, lines.col(ln, 0)
            )
        if y_lbl not in dst:
            raise UndeclaredLabel(
                f"label {y_lbl!r} is not an element of {target.name}", ln, lines.col(ln, 2)
            )
        x = src[x_lbl]
        if x in images:
            raise DuplicateLabel(f"element {x_lbl!r} mapped twice", ln, lines.col(ln, 0))
        images[x] = dst[y_lbl]
    lines.done()
    missing = [source.elements[i] for i in range(source.n) if i not in images]
    if missing:
        raise RowArity(f"no image given for {missing[0]!r}", ln, 1)
    mapping = tuple(images[i] for i in range(source.n))
    return QuantaleHom(source=source, target=target, mapping=mapping, name=name)


def load_hom(path) -> QuantaleHom:
    p = Path(path)
    return parse_hom(p.read_text(encoding="utf-8"), p.parent)
