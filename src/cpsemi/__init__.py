"""cpsemi: generators of completely positive semigroups on matrix algebras.

Heisenberg-picture conventions throughout: maps act on observables, "unital"
means P(1) = 1 and a generator of a unital semigroup satisfies L(1) = 0.
"""

from .errors import (
    ConstraintViolated,
    CpsemiError,
    DimensionMismatch,
    LogBranch,
    NotCCP,
    NotCP,
    NotHermitian,
    NotHermiticityPreserving,
    NotMember,
    OwnerMismatch,
    Overflow,
    ParseError,
)
from .generator import (
    GaugeRelation,
    GklsForm,
    decompose,
    dominates,
    extract_gauge,
    gauge_check,
    gauge_shift,
    hamiltonian_lindblad,
    rebuild,
    same_generator,
)
from .numerics import DEFAULT_TOL, Tolerances
from .opspace import MetricOperatorSpace, space_from_cp_map
from .semigroup import (
    Unit,
    covariance,
    covariance_estimate,
    covariance_kernel,
    evolve,
    gram_dimension,
    index,
    make_unit,
    product_system_check,
    sample_units,
    space_at,
    unit_matrix,
    verify_units,
)
from .superop import (
    Flow,
    ad_superop,
    apply_superop,
    choi_spectrum,
    identity_superop,
    is_completely_positive,
    is_hermiticity_preserving,
    kraus_from_spectrum,
    kraus_to_superop,
    superop_to_choi,
    unvec,
    vec,
)
from .symbols import (
    block_positivity_witness,
    check_block_positivity,
    is_conditionally_cp,
    rank,
    symbols_equal,
)

__version__ = "0.1.0"
