"""entrocert: certify or refute entropy properties of convex trace functions.

Spectral calculus for Hermitian matrices (matrix functions, Fréchet
differentials and their superoperators), quantum channels and partial traces,
plus randomized certification suites for the hierarchy of convexity
properties that singles out t*log(t) among convex functions on (0, inf).
"""

from .certify import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    SKIPPED,
    SUITE_TOKENS,
    PipelineResult,
    TestConfig,
    TestOutcome,
    reverify_counterexample,
    run_suite,
    test_condition13,
    test_entropic,
    test_entropy_gain_convexity,
    test_equivalence_13_vs_hessian,
    test_gap_concavity,
    test_gap_superadditive,
    test_matrix_entropy,
    test_principle1_concavity,
    test_subentropic_order_k,
    uniqueness_pipeline,
    worst_exit_code,
)
from .expr import FunctionExpression, ParseError, lookup, parse, registry
from .frechet import (
    NotInvertibleError,
    Superoperator,
    frechet_diff,
    frechet_inverse,
    frechet_superoperator,
    second_diff_G,
    unvec,
    vec,
)
from .functions import (
    DegenerateFunctionError,
    ScalarFunction,
    divided_difference,
    gap_function,
)
from .hermitian import (
    EighError,
    SpectralDecomposition,
    apply_function,
    eigh,
    entropy,
    hermitize,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    psd_margin,
    random_hermitian,
    random_pd,
    random_unitary,
    trace_of_function,
)
from .jets import DomainError, Jet
from .quantum import (
    KrausChannel,
    StinespringIsometry,
    apply_channel,
    channel_from_json,
    channel_to_json,
    depolarizing_channel,
    entropy_gain,
    harmonic_mean,
    harmonic_mean_block_margin,
    midpoint_channel,
    partial_trace_1,
    partial_trace_channel,
    random_channel,
    stinespring_from_kraus,
    unitary_channel,
)
from .report import TOOL_VERSION, CertificationReport

__version__ = TOOL_VERSION
