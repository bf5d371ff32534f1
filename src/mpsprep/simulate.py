"""Exact statevector simulation and stage-by-stage error accounting.

States are dense big-endian float vectors. The simulator applies each
gate as a contraction over the targeted qubit axes, which is exact and
norm preserving for orthogonal gates. Error accounting takes one run of
the construction (fit, assemble, compress, extract) and attributes its
final infidelity to the three sources by successive overlap drops;
shares are each drop divided by the total infidelity. Figures against
the exact target are dense; compression and gate drops are exact MPS
overlaps, with no 2^N vector.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, circuit_to_mps, extract_circuit
from .functions import (
    DistributionSpec,
    Grid,
    PiecewisePoly,
    fit_piecewise,
    assemble,
    target_amplitudes,
)
from .mps import CompressionOptions, Mps, compress_als, dense_qubit_limit, overlap

__all__ = [
    "run",
    "fidelity",
    "PipelineResult",
    "build_pipeline",
    "ErrorDecomposition",
    "error_decomposition",
]


def run(c: Circuit) -> np.ndarray:
    """Apply a circuit to |0...0> and return the dense state."""
    if c.n_qubits > dense_qubit_limit():
        raise ValueError(
            f"{c.n_qubits} qubits exceeds the dense limit of {dense_qubit_limit()} "
            "(set MPSPREP_DENSE_LIMIT to raise it)"
        )
    psi = np.zeros((2,) * c.n_qubits)
    psi[(0,) * c.n_qubits] = 1.0
    for gate in c.gates:
        axes = gate.qubits
        if len(set(axes)) != len(axes):
            raise ValueError(f"gate qubits must be distinct, got {axes}")
        k = len(axes)
        g = gate.matrix.reshape((2,) * (2 * k))
        psi = np.tensordot(g, psi, axes=(tuple(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, tuple(range(k)), axes)
    return psi.reshape(-1)


def fidelity(a, b) -> float:
    """Overlap magnitude |<a|b>| of two normalized real states."""
    va = np.asarray(a, dtype=float).reshape(-1)
    vb = np.asarray(b, dtype=float).reshape(-1)
    if va.shape != vb.shape:
        raise ValueError(f"state size mismatch: {va.size} vs {vb.size}")
    return float(min(abs(np.dot(va, vb)), 1.0))


@contextmanager
def _stage(name: str):
    # Prefix failures with the pipeline stage, preserving the exception type.
    try:
        yield
    except Exception as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"{name} stage: {exc.args[0]}",) + exc.args[1:]
        else:
            exc.args = (f"{name} stage failed",) + exc.args
        raise


@dataclass(frozen=True)
class PipelineResult:
    """Everything the construction produces, one stage at a time."""

    spec: DistributionSpec
    grid: Grid
    piecewise: PiecewisePoly
    assembled: Mps
    compressed: Mps
    circuit: Circuit
    t_fit_ms: float
    t_compress_ms: float
    t_extract_ms: float


def build_pipeline(
    spec: DistributionSpec,
    n_qubits: int,
    support_bit: int = 3,
    degree: int = 3,
    samples_per_region: int = 64,
    compression: CompressionOptions = CompressionOptions(),
) -> PipelineResult:
    """Run fit, assembly, compression, and gate extraction for one target."""
    grid = Grid.for_spec(spec, n_qubits)

    t0 = time.perf_counter()
    with _stage("fit"):
        pp = fit_piecewise(spec, grid, support_bit, degree, samples_per_region)
        assembled = assemble(pp, grid)
    t1 = time.perf_counter()
    with _stage("compress"):
        compressed = compress_als(assembled, compression)
    t2 = time.perf_counter()
    with _stage("extract"):
        circuit = extract_circuit(compressed)
    t3 = time.perf_counter()

    return PipelineResult(
        spec=spec,
        grid=grid,
        piecewise=pp,
        assembled=assembled,
        compressed=compressed,
        circuit=circuit,
        t_fit_ms=(t1 - t0) * 1e3,
        t_compress_ms=(t2 - t1) * 1e3,
        t_extract_ms=(t3 - t2) * 1e3,
    )


@dataclass(frozen=True)
class ErrorDecomposition:
    """Infidelity split by construction stage.

    ``pp_error`` is 1 - F(exact target, normalized piecewise values) and
    ``total`` is 1 - F(exact target, circuit output), both dense.
    ``mps_error`` = 1 - |<assembled|compressed>| / ||assembled|| and
    ``gate_error`` = 1 - |<compressed|circuit state>| are exact MPS
    overlaps. Shares are drops normalized by the total infidelity (zero
    when the pipeline is lossless).
    """

    pp_error: float
    mps_error: float
    gate_error: float
    total: float
    fidelity: float

    @property
    def shares(self) -> dict[str, float]:
        if self.total <= 0.0:
            return {"pp": 0.0, "mps": 0.0, "gate": 0.0}
        return {
            "pp": self.pp_error / self.total,
            "mps": self.mps_error / self.total,
            "gate": self.gate_error / self.total,
        }


def _gate_fidelity(result: PipelineResult) -> float:
    # |<compressed|circuit state>| by core contraction, valid at any N.
    return min(abs(overlap(result.compressed, circuit_to_mps(result.circuit))), 1.0)


def error_decomposition(result: PipelineResult) -> ErrorDecomposition:
    """Attribute a run's end-to-end infidelity to fit, compression, and gates."""
    circ_state = run(result.circuit)  # first: it enforces the dense limit
    exact = target_amplitudes(result.spec, result.grid.n_qubits)
    pp_values = result.piecewise.values(result.grid)

    f_pp = fidelity(exact, pp_values / np.linalg.norm(pp_values))
    a = result.assembled
    f_compress = min(abs(overlap(a, result.compressed)) / a.norm(), 1.0)
    f_total = fidelity(exact, circ_state)
    return ErrorDecomposition(
        pp_error=1.0 - f_pp,
        mps_error=1.0 - f_compress,
        gate_error=1.0 - _gate_fidelity(result),
        total=1.0 - f_total,
        fidelity=f_total,
    )
