"""Time-local quantum master equations and non-Markovianity witnesses.

The package simulates finite-dimensional dynamical maps from time-local
generators, extracts intermediate propagators and Choi matrices, evaluates
the full bank of non-Markovianity witnesses (trace-norm, information flow,
entropic, fidelity, skew-information, Heisenberg-picture) and aggregates them
into scalar measures with a step-divisibility verdict.
"""

__version__ = "0.1.0"

from .operators import (
    NotPSDError,
    fidelity,
    max_entangled_projector,
    relative_entropy,
    renyi_relative_entropy,
    skew_information,
    trace_distance,
    trace_norm,
    tsallis_relative_entropy,
)
from .volterra import AmplitudeSolution, ExponentialKernel, solve_memory_kernel
from .dynamics import (
    BlochZSineTarget,
    Constant,
    ConstantTarget,
    Dephasing,
    Lindblad,
    OffsetSine,
    Sine,
    SingularPropagatorError,
    SpinBoson,
    Table,
    TraceReplacement,
    Trajectory,
    apply_superop,
    choi_matrix,
    dual_superop,
    evolve,
    generator,
    generator_superoperator,
    intermediate_map,
    load_trajectory,
    save_trajectory,
    vec,
)
from .witnesses import (
    DualOperatorNormWitness,
    ExtendedTraceNormWitness,
    FidelityPair,
    HeisenbergSkew,
    InformationFlowPair,
    InvarianceError,
    InvariantOverlap,
    PlainTraceNormWitness,
    RelativeEntropyPair,
    RenyiPair,
    SchrodingerSkew,
    TsallisPair,
    WitnessSeries,
    series,
    spectral_modes,
    verify_invariance,
)
from .measures import (
    BlpMeasureResult,
    SearchConfig,
    Verdict,
    WitnessMeasureResult,
    blp_measure,
    divisibility_verdict,
    rhp_measure,
    rhp_rate,
    witness_measure,
)
