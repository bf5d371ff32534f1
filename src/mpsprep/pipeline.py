"""End-to-end encoding runs, sweep campaigns, and serialization.

The encode entry point drives the full construction for one target
(fit, assemble, compress, extract) and returns the circuit together with
a report carrying the run it was made from, whose bond profiles and
stage timings the report reads, and, where the register fits the dense
limit, the per-stage error split and the fidelity.
Sweep helpers fan the same run out over standard deviations, polynomial
degrees, or system sizes and emit rows with a stable column order, so
repeated campaigns diff cleanly (timing columns excepted). Circuits
round-trip losslessly through a small JSON schema.

A circuit file is read in one pass: each gate's qubits, matrix shape,
element types and int range are checked as it is read, up to the first
failure; the gates before it are checked for finiteness and distinct
qubits over one float stack per gate size. The error is the first a
gate-by-gate reading meets. Checked gates skip the public :class:`Gate`
checks; :class:`Circuit` checks the register range last. Writing
renders each distinct matrix once.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain, product
from typing import Sequence

import numpy as np

from .analysis import DecayFit, _check_chi, chi_bound, fit_decay, max_derivative
from .circuits import Circuit, Gate, _distinct, _gate
from .functions import DistributionSpec, target_amplitudes
from .mps import (
    CompressionOptions,
    _check_dense,
    dense_qubit_limit,
    to_mps_exact,
    unfolding_spectra,
)
from .simulate import (
    ErrorDecomposition,
    PipelineResult,
    RunConfig,
    _stage,
    build_pipeline,
    error_decomposition,
)

__all__ = [
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

FORMAT_VERSION = "1"


def _sig12(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv(columns: Sequence[str], rows) -> str:
    # The one CSV writer: the header, then one line per row of values.
    lines = [",".join(columns)]
    lines.extend(",".join(map(_sig12, row)) for row in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunReport:
    """Outcome of one encoding run, JSON friendly via :meth:`to_dict`.

    ``result`` is the run itself: every stage's output and timing, from
    which the bond profiles, the gate count and the timings are read.
    The report adds only what verification measured, the per-stage
    ``errors`` against the exact target, and ``fidelity`` and
    ``fidelity_vs`` are read off them. Above the dense limit nothing is
    measured: all three are ``None``.
    """

    config: RunConfig
    result: PipelineResult
    errors: ErrorDecomposition | None

    @property
    def fidelity(self) -> float | None:
        return None if self.errors is None else self.errors.fidelity

    @property
    def fidelity_vs(self) -> str | None:
        return None if self.errors is None else "exact_target"

    def to_dict(self) -> dict:
        res = self.result
        run = {f.name: getattr(self.config, f.name) for f in fields(self.config)}
        spec, opts = run.pop("spec"), run.pop("compression")
        out = {
            "config": {
                "distribution": spec.kind,
                "mu": spec.mu,
                "sigma": spec.sigma,
                "domain": list(spec.domain),
                **run,
                **asdict(opts),
            },
            "fidelity": self.fidelity,
            "fidelity_vs": self.fidelity_vs,
            "assembled_bonds": list(res.assembled.bond_dims),
            "compressed_bonds": list(res.compressed.bond_dims),
            "gate_count": len(res.circuit.gates),
            "timings_ms": dict(res.timings_ms),
        }
        if self.errors is not None:
            out["errors"] = {
                "pp": self.errors.pp_error,
                "mps": self.errors.mps_error,
                "gate": self.errors.gate_error,
                "total": self.errors.total,
                "shares": self.errors.shares,
            }
        return out


def encode(config: RunConfig) -> tuple[Circuit, RunReport]:
    """Run the full construction and report fidelity plus error sources.

    When the register fits the dense limit, the run is verified against
    the exact target state by :func:`error_decomposition`, timed as a
    fourth stage, ``verify``, in ``report.result.timings_ms``. Above it
    no stage verifies the run, and the report's ``errors``, ``fidelity``
    and ``fidelity_vs`` are ``None``. The report keeps the run's
    :class:`PipelineResult` as ``report.result``.
    """
    result = build_pipeline(
        config.spec,
        config.n_qubits,
        config.support_bit,
        config.degree,
        config.samples_per_region,
        config.compression,
    )
    errors = None
    if config.n_qubits <= dense_qubit_limit():
        with _stage("verify", result.timings_ms):
            errors = error_decomposition(result)
    return result.circuit, RunReport(config, result, errors)


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
    # Results; a failed cell keeps these defaults, and an unverified one
    # (above the dense limit) its four NaN figures.
    fidelity: float = float("nan")
    pp_err: float = float("nan")
    mps_err: float = float("nan")
    gate_err: float = float("nan")
    gate_count: int = 0
    t_fit_ms: float = float("nan")
    t_compress_ms: float = float("nan")
    t_extract_ms: float = float("nan")
    error: str = ""  # non-empty when the cell failed; excluded from CSV


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow) if f.name != "error")


def render_csv(rows: Sequence[SweepRow]) -> str:
    """Header plus one line per row; always includes the header."""
    return _csv(CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS] for r in rows))


def _run_cell(config: RunConfig, spec: DistributionSpec, sigma, n, degree) -> SweepRow:
    # The one path from a sweep cell to its row: the cell is built in the
    # try that records stage failures, so a value a rule rejects fails its
    # row alone, whose leading columns are then the requested values.
    base = {
        "distribution": spec.kind,
        "mu": spec.mu,
        "sigma": sigma,
        "N": n,
        "k": config.support_bit,
        "p": degree,
        "chi": config.compression.target_chi,
    }
    try:
        spec = replace(spec, sigma=sigma)
        cell = replace(config, spec=spec, n_qubits=n, degree=degree)
        base.update(sigma=cell.spec.sigma, N=cell.n_qubits, p=cell.degree)
        circuit, report = encode(cell)
    except Exception as exc:  # record the failure, keep sweeping
        return SweepRow(**base, error=str(exc))
    err, t = report.errors, report.result.timings_ms
    figures = {} if err is None else {
        "fidelity": err.fidelity,
        "pp_err": err.pp_error,
        "mps_err": err.mps_error,
        "gate_err": err.gate_error,
    }
    return SweepRow(
        **base,
        **figures,
        gate_count=len(circuit.gates),
        t_fit_ms=t["fit"],
        t_compress_ms=t["compress"],
        t_extract_ms=t["extract"],
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
    swept. Failed cells, a rejected sigma or N among them, carry NaNs and
    the error message; cells above the dense limit, which are not
    verified, carry NaN figures.
    """
    specs = [config.spec] if specs is None else specs
    n_values = [config.n_qubits] if n_values is None else n_values
    cells = product(specs, sigmas, n_values)  # reads each input once
    return [_run_cell(config, spec, s, n, config.degree) for spec, s, n in cells]


def sweep_degree(config: RunConfig, degrees: Sequence[int]) -> list[SweepRow]:
    """One row per degree at the configured target; a bad one fails its row."""
    spec, n = config.spec, config.n_qubits
    return [_run_cell(config, spec, spec.sigma, n, d) for d in degrees]


@dataclass(frozen=True)
class SpectraSummary:
    """Spectral analysis of one target: spectra, decay fit, the decay
    model's rank-chi error estimate (not a bound; ROADMAP item 11), slope."""

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
    _check_chi(chi, n_qubits)
    _check_dense(n_qubits, "spectra")
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

    @property
    def ratio(self) -> float:
        return self.f_circuit / self.f_optimal

    @property
    def exceeds_one(self) -> bool:
        return self.ratio > 1.0 + 1e-9


def oracle_compare(config: RunConfig) -> OptimalityReport:
    """Compare the construction against the exact-SVD rank-chi baseline.

    The baseline b truncates the exact unit target t by successive SVDs
    at the same bond budget, with no function approximation anywhere. It
    is an orthogonal projection of t, so its fidelity <t|b>/||b|| is ||b||.
    A ratio slightly above 1 is possible (the variational state may align
    better with the exact target than the per-cut-optimal truncation) and
    is flagged.
    """
    exact = target_amplitudes(config.spec, config.n_qubits)
    f_optimal = min(to_mps_exact(exact, config.compression.target_chi).norm(), 1.0)
    return OptimalityReport(f_circuit=encode(config)[1].fidelity, f_optimal=f_optimal)


class SchemaError(ValueError):
    """A circuit file violates the JSON schema; ``path`` locates the field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def serialize_circuit(circuit: Circuit, path) -> None:
    """Write a circuit as JSON (row-major matrices, application order),
    one gate per line. Each distinct matrix is rendered once."""
    head = {"n_qubits": circuit.n_qubits, "format_version": FORMAT_VERSION}
    # Distinct by bytes, so -0.0 and 0.0 render apart; a 2x2 and a 4x4
    # matrix differ in length. Qubits are Python ints, which json renders
    # as str does.
    mats, rows = _distinct([g.matrix for g in circuit.gates], np.ndarray.tobytes)
    rendered = [json.dumps(m.tolist()) for m in mats]
    lines = []
    for g, r in zip(circuit.gates, rows):
        qubits = ", ".join(map(str, g.qubits))
        lines.append(f'{{"qubits": [{qubits}], "matrix": {rendered[r]}}}')
    gates = ",\n".join(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{json.dumps(head)[:-1]}, "gates": [\n{gates}\n]}}\n')


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def _gate_fields(entry, gpath: str) -> tuple[tuple[int, ...], list]:
    """The qubits and matrix rows of one gate entry, checked in order: qubits,
    matrix shape, entry types (first offender row-major), then int range."""
    qubits = _require(entry, "qubits", gpath)
    if (
        not isinstance(qubits, list)
        or len(qubits) not in (1, 2)
        or not all(type(q) is int for q in qubits)
    ):
        raise SchemaError(f"{gpath}.qubits", "expected a list of 1 or 2 integers")
    matrix = _require(entry, "matrix", gpath)
    want = 2 ** len(qubits)
    if (
        not isinstance(matrix, list)
        or len(matrix) != want
        or any(not isinstance(r, list) or len(r) != want for r in matrix)
    ):
        raise SchemaError(f"{gpath}.matrix", f"expected a {want}x{want} row-major matrix")
    if not {float}.issuperset(map(type, chain.from_iterable(matrix))):
        # Not all floats (the writer's entries): find the first offender.
        cells = [
            (f"{gpath}.matrix[{r}][{c}]", x)
            for r, row in enumerate(matrix)
            for c, x in enumerate(row)
        ]
        for path, x in cells:
            if type(x) not in (int, float):
                raise SchemaError(path, f"expected a number, got {x!r}")
        for path, x in cells:
            try:
                float(x)
            except OverflowError:
                msg = f"expected a number that fits a float, got a {x.bit_length()}-bit int"
                raise SchemaError(path, msg) from None
    return tuple(qubits), matrix


def _parse_gates(gates_raw: list) -> list[Gate]:
    """The gates of a circuit file's ``gates`` list, read in one pass.

    Each gate is checked by :func:`_gate_fields` as it is read, up to the
    first failure. The gates before it become one float stack per gate
    size; the first of them that is non-finite or repeats a qubit is
    refused by the public :class:`Gate` with its own message, and only
    then is that failure raised. So the error is the one a gate-by-gate
    reading meets first.
    """
    fields, first = [], None
    try:
        for i, entry in enumerate(gates_raw):
            fields.append(_gate_fields(entry, f"$.gates[{i}]"))
    except SchemaError as exc:
        first = exc
    matrices, finite = [None] * len(fields), np.ones(len(fields), dtype=bool)
    for k in (1, 2):
        idx = [i for i, (q, _) in enumerate(fields) if len(q) == k]
        rows = chain.from_iterable(fields[i][1] for i in idx)
        stack = np.fromiter(chain.from_iterable(rows), float, 4**k * len(idx))
        stack = stack.reshape(-1, 2**k, 2**k)
        finite[idx] = np.isfinite(stack).all(axis=(1, 2))
        for i, mat in zip(idx, stack):
            matrices[i] = mat
    repeated = np.array([len(q) == 2 and q[0] == q[1] for q, _ in fields], dtype=bool)
    bad = np.flatnonzero(~finite | repeated)
    if bad.size:
        t = int(bad[0])
        try:
            Gate(*fields[t])
        except ValueError as exc:
            raise SchemaError(f"$.gates[{t}]", str(exc)) from exc
    if first is not None:
        raise first
    return [_gate(q, mat) for (q, _), mat in zip(fields, matrices)]


def deserialize_circuit(path) -> Circuit:
    """Read a circuit JSON file, validating the schema field by field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from exc

    version = _require(payload, "format_version", "$")
    if version != FORMAT_VERSION:
        raise SchemaError(
            "$.format_version",
            f"unsupported version {version!r}; this reader handles {FORMAT_VERSION!r}",
        )
    n_qubits = _require(payload, "n_qubits", "$")
    if type(n_qubits) is not int or n_qubits < 1:
        raise SchemaError("$.n_qubits", f"expected a positive integer, got {n_qubits!r}")
    gates_raw = _require(payload, "gates", "$")
    if not isinstance(gates_raw, list):
        raise SchemaError("$.gates", "expected a list")
    gates = _parse_gates(gates_raw)
    try:
        return Circuit(n_qubits=n_qubits, gates=tuple(gates))
    except ValueError as exc:
        raise SchemaError("$.gates", str(exc)) from exc
