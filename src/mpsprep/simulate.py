"""The run driver, exact statevector simulation, and per-stage error accounting.

:class:`RunConfig` holds every knob of one run. :func:`build_pipeline`
checks them and runs fit, assembly, compression and extraction, each
stage in one ``_stage`` block that times it into
``PipelineResult.timings_ms`` and prefixes a failure with its name.

States are dense big-endian float vectors. The simulator applies the
gates one at a time and stores only the qubits some gate has touched:
an untouched qubit is |0> and joins the state when a gate first acts on
it. Every gate takes one path: its qubits are moved to the last axes
and it is applied as one reshape and matmul, exact up to rounding and
norm preserving for orthogonal gates. A staircase gate already sits on
the last axes, so the move is free and a staircase costs about as much
as its output.

Error accounting takes one run of the construction (fit, assemble,
compress, extract) and attributes its final infidelity to the three
sources by successive overlap drops; shares are each drop divided by
the total infidelity. It never simulates the gates: the circuit's state
is the rank-2 MPS that :func:`circuit_to_mps` reads off them. That MPS
and the assembled one are each cut at qubit N // 2, and the exact
target is read once, against both tails stacked, for the fit and the
total. So the target is the only 2^N vector. Compression and gate drops
are MPS overlaps.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, circuit_to_mps, extract_circuit
from .functions import (
    _SAMPLES_PER_REGION,
    DistributionSpec,
    Grid,
    PiecewisePoly,
    fit_piecewise,
    assemble,
    target_amplitudes,
)
from .linalg import _int_field
from .mps import CompressionOptions, Mps, _check_dense, _halves, compress_als, overlap

__all__ = [
    "run",
    "fidelity",
    "RunConfig",
    "PipelineResult",
    "build_pipeline",
    "ErrorDecomposition",
    "error_decomposition",
]


def run(c: Circuit) -> np.ndarray:
    """Apply a circuit to |0...0> and return the dense big-endian state.

    Gates are applied one by one, in list order, on any qubits. A qubit
    that no gate has touched yet is |0> and is not stored; it joins the
    state as a new last axis when a gate first acts on it. Each gate's
    qubits are then moved to the last k axes, in gate order (a no-op view
    when they are already there, as in a staircase), and the gate is one
    matmul ``(2^a, 2^k) @ G.T`` on the reshaped state. Untouched qubits
    are appended at the end and the axes put in big-endian qubit order.
    """
    _check_dense(c.n_qubits, "run")
    psi, held = np.ones(()), []  # held: the qubit on each axis of psi
    for gate in c.gates:
        qubits = list(gate.qubits)
        joining = [q for q in qubits if q not in held]
        psi = _join_zero(psi, len(joining))
        held = held + joining
        rest = [q for q in held if q not in qubits]
        psi = psi.transpose([held.index(q) for q in rest + qubits])
        held = rest + qubits
        psi = (psi.reshape(-1, 2 ** len(qubits)) @ gate.matrix.T).reshape(psi.shape)
    idle = [q for q in range(c.n_qubits) if q not in held]
    order = [(held + idle).index(q) for q in range(c.n_qubits)]
    return _join_zero(psi, len(idle)).transpose(order).reshape(-1)


def _join_zero(psi: np.ndarray, count: int) -> np.ndarray:
    # psi (x) |0...0> on `count` new last axes.
    if count == 0:
        return psi
    out = np.zeros(psi.shape + (2,) * count)
    out[(...,) + (0,) * count] = psi
    return out


def fidelity(a, b) -> float:
    """Overlap magnitude |<a|b>| of two normalized real states."""
    va = np.asarray(a, dtype=float).reshape(-1)
    vb = np.asarray(b, dtype=float).reshape(-1)
    if va.shape != vb.shape:
        raise ValueError(f"state size mismatch: {va.size} vs {vb.size}")
    return float(min(abs(np.dot(va, vb)), 1.0))


@contextmanager
def _stage(name: str, timings_ms: dict[str, float]):
    # Time the block into timings_ms[name]; prefix a failure with the
    # stage name, preserving the exception type. A message that is not a
    # str (OverflowError(34, '...') from a float power) is kept as str(exc).
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"{name} stage: {exc.args[0]}",) + exc.args[1:]
        else:
            exc.args = (f"{name} stage: {exc}" if exc.args else f"{name} stage failed",)
        raise
    timings_ms[name] = (time.perf_counter() - t0) * 1e3


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one encoding run; the pipeline is fully deterministic."""

    spec: DistributionSpec
    n_qubits: int
    support_bit: int = 3
    degree: int = 3
    samples_per_region: int = _SAMPLES_PER_REGION
    compression: CompressionOptions = CompressionOptions()

    def __post_init__(self):
        for name in ("n_qubits", "support_bit", "degree", "samples_per_region"):
            _int_field(self, name)
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if not 0 <= self.support_bit < self.n_qubits:
            raise ValueError("need 0 <= support_bit < n_qubits")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")


@dataclass(frozen=True)
class PipelineResult:
    """Everything the construction produces, one stage at a time.

    ``timings_ms`` maps each stage name to its wall time, in run order.
    """

    spec: DistributionSpec
    grid: Grid
    piecewise: PiecewisePoly
    assembled: Mps
    compressed: Mps
    circuit: Circuit
    timings_ms: dict[str, float]


def build_pipeline(
    spec: DistributionSpec,
    n_qubits: int,
    support_bit: int = RunConfig.support_bit,
    degree: int = RunConfig.degree,
    samples_per_region: int = RunConfig.samples_per_region,
    compression: CompressionOptions = RunConfig.compression,
) -> PipelineResult:
    """Run fit, assembly, compression, and gate extraction for one target.

    The arguments are the fields of :class:`RunConfig`, which checks them
    before any stage runs.
    """
    cfg = RunConfig(
        spec, n_qubits, support_bit, degree, samples_per_region, compression
    )
    grid = Grid.for_spec(spec, cfg.n_qubits)
    timings_ms: dict[str, float] = {}
    with _stage("fit", timings_ms):
        pp = fit_piecewise(
            spec, grid, cfg.support_bit, cfg.degree, cfg.samples_per_region
        )
        assembled = assemble(pp, grid)
    with _stage("compress", timings_ms):
        compressed = compress_als(assembled, compression)
    with _stage("extract", timings_ms):
        circuit = extract_circuit(compressed)
    return PipelineResult(spec, grid, pp, assembled, compressed, circuit, timings_ms)


@dataclass(frozen=True)
class ErrorDecomposition:
    """Infidelity split by construction stage.

    ``pp_error`` = 1 - |<exact target|assembled>| / ||assembled||, the fit
    as the MPS encodes it, and ``total`` = 1 - |<exact target|circuit
    state>|, both read off one product of the target with the two MPS
    cut at qubit N // 2.
    ``mps_error`` = 1 - |<assembled|compressed>| / ||assembled|| and
    ``gate_error`` = 1 - |<compressed|circuit state>| are MPS overlaps.
    ||assembled|| is :meth:`Mps.norm`, taken once for both.
    Each share is one drop divided by the total infidelity (zero when the
    pipeline is lossless). The drops start from different baselines, so
    the shares need not sum to 1 when the infidelity is large.
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


def _gate_fidelity(compressed: Mps, circuit_state: Mps) -> float:
    # |<compressed|circuit state>| by core contraction, valid at any N.
    return min(abs(overlap(compressed, circuit_state)), 1.0)


def error_decomposition(result: PipelineResult) -> ErrorDecomposition:
    """Attribute a run's end-to-end infidelity to fit, compression, and gates.

    The circuit's state is read off its gates by :func:`circuit_to_mps`.
    It and the assembled MPS are each cut at qubit h = N // 2, and the
    exact target, the one 2^N vector, is read once: its (2^h, 2^(N-h))
    view times both tails stacked gives the fit and the total together.
    """
    a = result.assembled
    circ = circuit_to_mps(result.circuit)
    h = a.n_sites // 2
    a_head, a_tail = _halves(a, h)
    c_head, c_tail = _halves(circ, h)
    exact = target_amplitudes(result.spec, result.grid.n_qubits)
    cut = exact.reshape(len(a_head), -1) @ np.vstack([a_tail, c_tail]).T
    a_norm = a.norm()
    bond = len(a_tail)
    f_pp = min(abs(float(np.sum(a_head * cut[:, :bond]))) / a_norm, 1.0)
    f_total = min(abs(float(np.sum(c_head * cut[:, bond:]))), 1.0)
    f_compress = min(abs(overlap(a, result.compressed)) / a_norm, 1.0)
    return ErrorDecomposition(
        pp_error=1.0 - f_pp,
        mps_error=1.0 - f_compress,
        gate_error=1.0 - _gate_fidelity(result.compressed, circ),
        total=1.0 - f_total,
        fidelity=f_total,
    )
