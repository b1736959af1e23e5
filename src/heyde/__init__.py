"""Exact conditional-symmetry machinery on odd-order model groups.

The package decides, in exact arithmetic, whether the conditional
distribution of one linear form of two independent group-valued random
variables given another is symmetric, verifies the equivalent dual
functional equation, and produces and checks the canonical structural
decomposition of symmetric pairs.  Groups are finite products of cyclic
components of pairwise distinct odd prime power orders; truncated p-adic
and quasicyclic components are tagged so the strengthened special cases
can be classified.
"""

from .cyclotomic import CycloElement, from_rational, from_terms
from .distributions import (
    Distribution,
    DualFunction,
    char_fn,
    char_fn_table,
    convolve,
    degenerate,
    dual_function,
    from_pmf,
    haar,
    has_haar_factor,
    invert_char_table,
    min_support_subgroup,
    reflect,
    shift,
    unit_modulus_set,
)
from .engine import (
    CorollaryCheck,
    CorollaryReport,
    DecompositionFlags,
    HeydeDecomposition,
    HeydeInstance,
    MixedProductReduction,
    QuasicyclicReduction,
    ReducedPair,
    classify_corollary,
    decompose,
    is_conditionally_symmetric,
    mixed_product_distribution,
    quasicyclic_distribution,
    quasicyclic_residue,
    reduce_mixed_product,
    reduce_quasicyclic,
    reduce_to_subgroup,
    satisfies_heyde_equation,
)
from .errors import VerificationFailure
from .fixtures import (
    ConstructedFixture,
    construct_instance,
    construction_admissible,
    enumerate_automorphisms,
    enumerate_distributions,
    random_distribution,
    random_instance,
)
from .groups import (
    Component,
    ComponentKind,
    GroupSpec,
    Subgroup,
    enumerate_subgroups,
    validate_spec,
)
from .lemmas import (
    squared_modulus_table,
    verify_difference_lemma,
    verify_fixed_point_lemma,
)
from .morphisms import (
    Endomorphism,
    PAdicUnit,
    identity,
    kappa_of,
    make_endo,
    minus_identity,
)
from .rng import DeterministicStream
from .sweep import SweepConfig, SweepReport, run_sweep

__version__ = "0.1.0"
