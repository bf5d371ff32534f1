"""Linear-depth state-preparation circuits for smooth amplitude functions.

The package factors a smooth target density into a staircase of real
orthogonal two-qubit gates: fit the amplitude piecewise by polynomials,
encode the piecewise polynomial analytically as one matrix product
state, compress it to bond dimension two, and read the gates off the
compressed cores. Every step is verifiable against exact dense oracles.
"""

from .linalg import (
    SvdConvergenceError,
    SvdResult,
    truncated_svd,
)
from .mps import (
    CompressionOptions,
    Mps,
    bipartite_vne,
    compress_als,
    dense_qubit_limit,
    overlap,
    to_mps_exact,
    tt_round,
    unfolding_spectra,
)
from .functions import (
    DistributionSpec,
    Grid,
    PiecewisePoly,
    assemble,
    fit_piecewise,
    pdf,
    pdf_derivative,
    poly_mps,
    target_amplitudes,
)
from .circuits import (
    Circuit,
    Gate,
    ValidationReport,
    circuit_to_mps,
    extract_circuit,
    validate_circuit,
)
from .simulate import (
    ErrorDecomposition,
    PipelineResult,
    RunConfig,
    build_pipeline,
    error_decomposition,
    fidelity,
    run,
)
from .analysis import (
    DecayFit,
    chi_bound,
    fit_decay,
    max_derivative,
)
from .pipeline import (
    CSV_COLUMNS,
    OptimalityReport,
    RunReport,
    SchemaError,
    SpectraSummary,
    SweepRow,
    deserialize_circuit,
    encode,
    oracle_compare,
    render_csv,
    serialize_circuit,
    spectra,
    sweep_degree,
    sweep_sigma,
)

__version__ = "0.1.0"
