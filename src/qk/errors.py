"""Exception hierarchy shared by every module in the package.

All domain failures derive from QuantaleError so callers can distinguish
"the mathematics said no" from programming errors.  Text-format problems
additionally carry a 1-based line/column location.
"""

from __future__ import annotations


class QuantaleError(Exception):
    """Base class for every domain error raised by this package."""


class NotAPartialOrder(QuantaleError):
    """The declared order relation is not antisymmetric."""


class NotALattice(QuantaleError):
    """Some pair of elements lacks a least upper or greatest lower bound."""


class MissingBound(QuantaleError):
    """The carrier is empty, so it has no bottom or top."""


class TooLarge(QuantaleError):
    """A construction or search would exceed a documented size cap
    (core.ELEMENT_CAP, classify.MC_SETS_MAX_N, decompose.MINIMAL_PICKS_MAX
    search nodes)."""


class NotCommutative(QuantaleError):
    """Ideal-theoretic operations require a commutative multiplication: no
    Ideal is made on a noncommutative carrier (see core.FiniteQuantale.interned)."""


class CarrierMismatch(QuantaleError):
    """Two ideals (or an ideal and a map) live over different carriers."""


class EmptyGeneratorSet(QuantaleError):
    """Generated ideals and annihilators need at least one generator."""


class HomInvalid(QuantaleError):
    """A candidate homomorphism failed validation."""


class HomRequired(QuantaleError):
    """The requested verification suite needs a homomorphism."""


class NotProper(QuantaleError):
    """An operation required a proper ideal."""


class Degenerate(QuantaleError):
    """The carrier has bottom == top, so maximal ideals do not exist."""


class NotMc(QuantaleError):
    """A subset was not multiplicatively closed (or missing the unit)."""


class NoAvoidingIdeal(QuantaleError):
    """No ideal is disjoint from the given set (it contains bottom)."""


class HypothesisViolated(QuantaleError):
    """A lemma's hypothesis failed; carries which one.

    This is a signal for the caller, not a bug: the avoidance lemma is
    only applicable when its side conditions hold.
    """

    def __init__(self, hypothesis: str, message: str = ""):
        self.hypothesis = hypothesis
        super().__init__(message or hypothesis)


class NotDecomposable(QuantaleError):
    """No intersection of primary ideals reaches the target; carries the gap.

    ``gap`` is the smallest intersection of primary ideals containing the
    target, as an Ideal.
    """

    def __init__(self, message: str, gap=None):
        self.gap = gap
        super().__init__(message)


class QuantFileError(QuantaleError):
    """Base for text-format errors; line/col are 1-based, None if unknown."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class QuantSyntaxError(QuantFileError):
    """Malformed line or section in a .quant or .hom file."""


class UndeclaredLabel(QuantFileError):
    """A label was used before being declared in the elements line."""


class DuplicateLabel(QuantFileError):
    """The same label was declared or assigned twice."""


class RowArity(QuantFileError):
    """A multiplication row has the wrong number of entries."""
