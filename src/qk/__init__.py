"""Finite integral commutative quantales and their ideal theory.

Carriers are finite lattices with a compatible multiplication whose unit
is the top element.  The package builds and certifies such structures,
computes their ideals, radicals, prime spectra and primary
decompositions, and can exhaustively re-prove the governing laws on any
loaded instance.  The qk command exposes the same operations on .quant
text files.
"""

import types

from .core import (
    AxiomReport,
    FiniteQuantale,
    HomReport,
    QuantaleHom,
    build_quantale,
    check_axioms,
    check_hom,
    is_unit,
    power,
    power_of_join,
)
from .errors import (
    CarrierMismatch,
    Degenerate,
    DuplicateLabel,
    EmptyGeneratorSet,
    HomInvalid,
    HomRequired,
    HypothesisViolated,
    MissingBound,
    NoAvoidingIdeal,
    NotALattice,
    NotAPartialOrder,
    NotCommutative,
    NotDecomposable,
    NotMc,
    NotProper,
    QuantFileError,
    QuantSyntaxError,
    QuantaleError,
    RowArity,
    TooLarge,
    UndeclaredLabel,
)
from .generators import (
    generate,
    lowersets_quantale,
    lukasiewicz_quantale,
    m3_quantale,
    opens_quantale,
    powerset_quantale,
)
from .ideals import (
    Ideal,
    IdealQuantale,
    annihilator,
    as_ideal,
    contraction,
    enumerate_ideals,
    extension,
    generated,
    ideal_quantale,
    is_ideal,
    join_ideals,
    meet_ideals,
    principal,
    product_ideals,
    residual,
    whole_ideal,
    zero_ideal,
)
from .classify import (
    Classification,
    McSet,
    classification,
    is_irreducible,
    is_local,
    is_primary,
    is_prime,
    is_semiprime,
    is_strongly_irreducible,
    jacobson,
    maximal_ideals,
    mc_generated,
    mc_set,
    minimal_primes_over,
    nilradical,
    prime_avoidance,
    primes_over,
    radical,
    saturation,
    spectrum,
)
from .decompose import (
    ArithmeticReport,
    Decomposition,
    UniquenessReport,
    all_minimal_decompositions,
    arithmetic_equivalence_check,
    irreducible_decomposition,
    is_arithmetic,
    primary_decomposition,
    uniqueness_report,
)
from .quantfile import (
    load_hom,
    load_quant,
    parse_hom,
    parse_quant,
    save_quant,
    write_quant,
)
from .verify import (
    LawResult,
    VerificationReport,
    run_suite,
    single_cell_mutants,
)

__version__ = "0.1.0"

# the export list is the imports above: every public name but the submodules
__all__ = sorted(
    k for k, v in globals().items() if k[0] != "_" and not isinstance(v, types.ModuleType)
)
