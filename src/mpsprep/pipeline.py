"""End-to-end encoding runs, sweep campaigns, and serialization.

The encode entry point drives the full construction for one target
(fit, assemble, compress, extract) and returns the circuit together with
a report carrying fidelity, the per-stage error split, bond profiles,
and stage timings. Sweep helpers fan the same run out over standard
deviations, polynomial degrees, or system sizes and emit rows with a
stable column order, so repeated campaigns diff cleanly (timing columns
excepted). Circuits round-trip losslessly through a small JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analysis import DecayFit, chi_bound, fit_decay, max_derivative, optimality_ratio
from .circuits import Circuit, Gate
from .functions import DistributionSpec, target_amplitudes
from .mps import CompressionOptions, dense_qubit_limit, to_mps_exact, unfolding_spectra
from .linalg import TruncationPolicy
from .simulate import (
    ErrorDecomposition,
    _gate_fidelity,
    build_pipeline,
    error_decomposition,
    fidelity,
)

__all__ = [
    "RunConfig",
    "RunReport",
    "SweepRow",
    "SpectraSummary",
    "OptimalityReport",
    "SchemaError",
    "encode",
    "sweep_sigma",
    "sweep_degree",
    "spectra",
    "oracle_compare",
    "serialize_circuit",
    "deserialize_circuit",
    "render_csv",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "distribution",
    "mu",
    "sigma",
    "N",
    "k",
    "p",
    "chi",
    "fidelity",
    "pp_err",
    "mps_err",
    "gate_err",
    "gate_count",
    "t_fit_ms",
    "t_compress_ms",
    "t_extract_ms",
)

FORMAT_VERSION = "1"


def _sig12(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one encoding run; the pipeline is fully deterministic."""

    spec: DistributionSpec
    n_qubits: int
    support_bit: int = 3
    degree: int = 3
    samples_per_region: int = 64
    compression: CompressionOptions = CompressionOptions()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if not 0 <= self.support_bit < self.n_qubits:
            raise ValueError("need 0 <= support_bit < n_qubits")


@dataclass(frozen=True)
class RunReport:
    """Outcome of one encoding run, JSON friendly via :meth:`to_dict`."""

    config: dict
    fidelity: float
    fidelity_vs: str  # "exact_target" or "compressed_mps" above the dense limit
    errors: ErrorDecomposition | None
    assembled_bonds: tuple[int, ...]
    compressed_bonds: tuple[int, ...]
    gate_count: int
    t_fit_ms: float
    t_compress_ms: float
    t_extract_ms: float
    decay_fit: DecayFit | None = None

    def to_dict(self) -> dict:
        out = {
            "config": self.config,
            "fidelity": self.fidelity,
            "fidelity_vs": self.fidelity_vs,
            "assembled_bonds": list(self.assembled_bonds),
            "compressed_bonds": list(self.compressed_bonds),
            "gate_count": self.gate_count,
            "timings_ms": {
                "fit": self.t_fit_ms,
                "compress": self.t_compress_ms,
                "extract": self.t_extract_ms,
            },
        }
        if self.errors is not None:
            out["errors"] = {
                "pp": self.errors.pp_error,
                "mps": self.errors.mps_error,
                "gate": self.errors.gate_error,
                "total": self.errors.total,
                "shares": self.errors.shares,
            }
        if self.decay_fit is not None:
            out["decay_fit"] = {
                "alpha": self.decay_fit.joint[0],
                "beta": self.decay_fit.joint[1],
                "r_squared": self.decay_fit.r_squared,
            }
        return out


def _config_echo(config: RunConfig) -> dict:
    spec, opts = config.spec, config.compression
    return {
        "distribution": spec.kind,
        "mu": spec.mu,
        "sigma": spec.sigma,
        "domain": list(spec.domain),
        "n_qubits": config.n_qubits,
        "support_bit": config.support_bit,
        "degree": config.degree,
        "samples_per_region": config.samples_per_region,
        "target_chi": opts.target_chi,
        "max_sweeps": opts.max_sweeps,
        "convergence_tol": opts.convergence_tol,
    }


def encode(config: RunConfig, include_decay_fit: bool = False) -> tuple[Circuit, RunReport]:
    """Run the full construction and report fidelity plus error sources.

    When the register fits the dense limit, fidelity is measured against
    the exact target state; otherwise only against the compressed MPS,
    by the same MPS overlap that gives ``gate_error`` below the limit,
    and the report says so.
    """
    result = build_pipeline(
        config.spec,
        config.n_qubits,
        config.support_bit,
        config.degree,
        config.samples_per_region,
        config.compression,
    )
    dense_ok = config.n_qubits <= dense_qubit_limit()
    errors = None
    decay = None
    if dense_ok:
        errors = error_decomposition(result)
        fid = errors.fidelity
        fid_vs = "exact_target"
        if include_decay_fit:
            decay = fit_decay(
                unfolding_spectra(target_amplitudes(result.spec, config.n_qubits))
            )
    else:
        fid = _gate_fidelity(result)
        fid_vs = "compressed_mps"

    report = RunReport(
        config=_config_echo(config),
        fidelity=fid,
        fidelity_vs=fid_vs,
        errors=errors,
        assembled_bonds=result.assembled.bond_dims,
        compressed_bonds=result.compressed.bond_dims,
        gate_count=len(result.circuit.gates),
        t_fit_ms=result.t_fit_ms,
        t_compress_ms=result.t_compress_ms,
        t_extract_ms=result.t_extract_ms,
        decay_fit=decay,
    )
    return result.circuit, report


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell in the pinned CSV column order."""

    distribution: str
    mu: float
    sigma: float
    N: int
    k: int
    p: int
    chi: int
    fidelity: float
    pp_err: float
    mps_err: float
    gate_err: float
    gate_count: int
    t_fit_ms: float
    t_compress_ms: float
    t_extract_ms: float
    error: str = ""  # non-empty when the cell failed; excluded from CSV

    def csv_values(self) -> list[str]:
        return [_sig12(getattr(self, col)) for col in CSV_COLUMNS]


def render_csv(rows: Sequence[SweepRow]) -> str:
    """Header plus one line per row; always includes the header."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row.csv_values()) for row in rows)
    return "\n".join(lines) + "\n"


def _run_cell(config: RunConfig) -> SweepRow:
    spec = config.spec
    base = {
        "distribution": spec.kind,
        "mu": spec.mu,
        "sigma": spec.sigma,
        "N": config.n_qubits,
        "k": config.support_bit,
        "p": config.degree,
        "chi": config.compression.target_chi,
    }
    try:
        _, report = encode(config)
        err = report.errors
        return SweepRow(
            **base,
            fidelity=report.fidelity,
            pp_err=err.pp_error if err else float("nan"),
            mps_err=err.mps_error if err else float("nan"),
            gate_err=err.gate_error if err else float("nan"),
            gate_count=report.gate_count,
            t_fit_ms=report.t_fit_ms,
            t_compress_ms=report.t_compress_ms,
            t_extract_ms=report.t_extract_ms,
        )
    except Exception as exc:  # record the failure, keep sweeping
        nan = float("nan")
        return SweepRow(
            **base,
            fidelity=nan,
            pp_err=nan,
            mps_err=nan,
            gate_err=nan,
            gate_count=0,
            t_fit_ms=nan,
            t_compress_ms=nan,
            t_extract_ms=nan,
            error=str(exc),
        )


def sweep_sigma(
    config: RunConfig,
    sigmas: Sequence[float],
    specs: Sequence[DistributionSpec] | None = None,
    n_values: Sequence[int] | None = None,
) -> list[SweepRow]:
    """One row per (distribution, sigma, N), in deterministic order.

    ``specs`` supplies the distribution templates (defaults to the
    config's); each template keeps its own domain and mu while sigma is
    swept. Failed cells carry NaNs and the error message.
    """
    specs = list(specs) if specs is not None else [config.spec]
    n_values = list(n_values) if n_values is not None else [config.n_qubits]
    rows = []
    for spec in specs:
        for sigma in sigmas:
            for n in n_values:
                cfg = replace(
                    config, spec=replace(spec, sigma=sigma), n_qubits=n
                )
                rows.append(_run_cell(cfg))
    return rows


def sweep_degree(config: RunConfig, degrees: Sequence[int]) -> list[SweepRow]:
    """One row per polynomial degree at the configured target."""
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be >= 1")
    return [_run_cell(replace(config, degree=d)) for d in degrees]


@dataclass(frozen=True)
class SpectraSummary:
    """Spectral analysis of one target: spectra, decay fit, bound, slope."""

    sigma: float
    spectra: tuple[np.ndarray, ...]
    decay: DecayFit
    chi_bound_value: float
    max_pdf_derivative: float


def spectra(
    spec: DistributionSpec,
    n_qubits: int,
    sigmas: Sequence[float],
    chi: int = CompressionOptions.target_chi,
) -> list[SpectraSummary]:
    """Unfolding spectra and decay fits across a sigma sweep."""
    if n_qubits > dense_qubit_limit():
        raise ValueError(
            f"spectral analysis needs the dense path (limit {dense_qubit_limit()})"
        )
    out = []
    for sigma in sigmas:
        s = replace(spec, sigma=sigma)
        amps = target_amplitudes(s, n_qubits)
        specs = unfolding_spectra(amps)
        decay = fit_decay(specs)
        out.append(
            SpectraSummary(
                sigma=sigma,
                spectra=tuple(specs),
                decay=decay,
                chi_bound_value=chi_bound(decay.beta, chi, n_qubits),
                max_pdf_derivative=max_derivative(s, n_qubits),
            )
        )
    return out


@dataclass(frozen=True)
class OptimalityReport:
    """Circuit fidelity against the best rank-chi truncation's fidelity."""

    f_circuit: float
    f_optimal: float
    ratio: float
    exceeds_one: bool


def oracle_compare(config: RunConfig) -> OptimalityReport:
    """Compare the construction against the exact-SVD rank-chi baseline.

    The baseline truncates the exact target by successive SVDs at the
    same bond budget, with no function approximation anywhere. A ratio
    slightly above 1 is possible (the variational state may align better
    with the exact target than the per-cut-optimal truncation) and is
    flagged.
    """
    if config.n_qubits > dense_qubit_limit():
        raise ValueError(
            f"oracle comparison needs the dense path (limit {dense_qubit_limit()})"
        )
    exact = target_amplitudes(config.spec, config.n_qubits)
    chi = config.compression.target_chi
    baseline = to_mps_exact(exact, TruncationPolicy.rank(chi))
    f_optimal = fidelity(exact, baseline.normalize().to_statevector())

    circuit, report = encode(config)
    f_circuit = report.fidelity
    ratio = optimality_ratio(f_circuit, f_optimal)
    return OptimalityReport(
        f_circuit=f_circuit,
        f_optimal=f_optimal,
        ratio=ratio,
        exceeds_one=ratio > 1.0 + 1e-9,
    )


class SchemaError(ValueError):
    """A circuit file violates the JSON schema; ``path`` locates the field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def serialize_circuit(circuit: Circuit, path) -> None:
    """Write a circuit as JSON (row-major matrices, application order)."""
    payload = {
        "n_qubits": circuit.n_qubits,
        "format_version": FORMAT_VERSION,
        "gates": [
            {"qubits": list(g.qubits), "matrix": g.matrix.tolist()}
            for g in circuit.gates
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def deserialize_circuit(path) -> Circuit:
    """Read a circuit JSON file, validating the schema field by field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from exc

    version = _require(payload, "format_version", "$")
    if version != FORMAT_VERSION:
        raise SchemaError(
            "$.format_version",
            f"unsupported version {version!r}; this reader handles {FORMAT_VERSION!r}",
        )
    n_qubits = _require(payload, "n_qubits", "$")
    if not isinstance(n_qubits, int) or n_qubits < 1:
        raise SchemaError("$.n_qubits", f"expected a positive integer, got {n_qubits!r}")
    gates_raw = _require(payload, "gates", "$")
    if not isinstance(gates_raw, list):
        raise SchemaError("$.gates", "expected a list")

    gates = []
    for i, entry in enumerate(gates_raw):
        gpath = f"$.gates[{i}]"
        qubits = _require(entry, "qubits", gpath)
        if (
            not isinstance(qubits, list)
            or len(qubits) not in (1, 2)
            or not all(isinstance(q, int) for q in qubits)
        ):
            raise SchemaError(f"{gpath}.qubits", "expected a list of 1 or 2 integers")
        matrix = _require(entry, "matrix", gpath)
        want = 2 ** len(qubits)
        if (
            not isinstance(matrix, list)
            or len(matrix) != want
            or any(not isinstance(r, list) or len(r) != want for r in matrix)
        ):
            raise SchemaError(
                f"{gpath}.matrix", f"expected a {want}x{want} row-major matrix"
            )
        try:
            gates.append(Gate(tuple(qubits), np.array(matrix, dtype=float)))
        except ValueError as exc:
            raise SchemaError(gpath, str(exc)) from exc
    try:
        return Circuit(n_qubits=n_qubits, gates=tuple(gates))
    except ValueError as exc:
        raise SchemaError("$.gates", str(exc)) from exc
