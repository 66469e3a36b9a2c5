"""Uniformity norms on cyclic groups, hypergraph box norms, and the
verification engines for the inequalities relating them.

The package is organized bottom-up: functions on Z_N and measures
(:mod:`.cyclic`), uniformity and box norms (:mod:`.gowersnorm`), the
weighted-hypergraph representation of a measure (:mod:`.hypersystem`),
centered product expectations and Cauchy-Schwarz chains (:mod:`.linform`),
progression counting (:mod:`.apcount`), seeded measure generators
(:mod:`.genmeasure`), and the command-line front-end (:mod:`.cli`).

The package namespace holds what the command line, the scripts and the
tests import from it; every other name comes from its module, e.g.
``gowers.report.VerificationReport``.
"""

from .cyclic import CyclicFn, Measure, from_set
from .errors import (
    AllZeroPattern,
    BudgetExceeded,
    CapViolation,
    CompositeModulus,
    EmptySet,
    EmptySetGenerated,
    InvalidSubset,
    ModulusTooSmall,
    NotRepresentation,
    NumericalInconsistency,
    OutOfRange,
    ShapeMismatch,
    SupBelowOneWarning,
)
from .gowersnorm import (
    EdgeFn,
    box_norm,
    box_norm_brute,
    clamp_cube_average,
    cube_vertices,
    gcs_verify,
    u_norm_brute,
    u_norm_fast,
)
from .hypersystem import (
    HypergraphSystem,
    WeightedHypergraph,
    ap_values,
    is_prime,
    progression_count_check,
    relabel,
    represent,
    represent_charged,
    sup_norm,
)
from .linform import (
    Cap,
    CubePattern,
    Lf2Exponents,
    SlfInstance,
    binomial_expansion_identity,
    chain_verify,
    cube_centered_expectation,
    cube_expectation,
    expect_product,
    lf2_chain_verify,
    lf2_expectation,
    lf2_telescoping,
    lf2_term,
    nu_prime,
    nu_prime_l2_dev,
    q_value,
    random_slf_instance,
    single_chain_verify,
)
from .apcount import ap_density, hypothesis_ratio, relsz_experiment, telescoping_check
from .genmeasure import KINDS, GeneratorSpec, generate, generate_set

__version__ = "0.1.0"
