"""Conversion of rank-2 matrix product states into staircase circuits.

A normalized MPS with all bonds at most 2 maps exactly onto one layer of
real orthogonal gates: one two-qubit gate per bond, applied top to
bottom, plus a final single-qubit gate. Gate t acts on qubits (t, t+1)
and moves the running bond state one qubit down the chain; the specified
gate columns come straight from the right-canonical cores and the rest
are filled with a deterministic kernel completion, so identical inputs
yield bit-identical circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import null_space_completion
from .mps import Mps

__all__ = [
    "Gate",
    "Circuit",
    "ValidationReport",
    "extract_circuit",
    "circuit_to_mps",
    "validate_circuit",
]


@dataclass(frozen=True)
class Gate:
    """A real orthogonal gate on one qubit or an ordered pair of qubits."""

    qubits: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        want = 2 ** len(self.qubits)
        if len(self.qubits) not in (1, 2):
            raise ValueError("gates act on one or two qubits")
        if mat.shape != (want, want):
            raise ValueError(
                f"{len(self.qubits)}-qubit gate needs a {want}x{want} matrix, "
                f"got {mat.shape}"
            )
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "matrix", mat)

    def orthogonality_deviation(self) -> float:
        g = self.matrix
        return float(np.max(np.abs(g.T @ g - np.eye(g.shape[0]))))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list, applied left to right to the all-zeros state."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            for q in gate.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(
                        f"gate qubit {q} outside register of size {self.n_qubits}"
                    )


def _gate_from_core(core: np.ndarray) -> np.ndarray:
    """Two-qubit gate whose (bond, |0>) columns reproduce a rank<=2 core.

    Column (b*2 + 0) carries core[b, s, r] at row (s*2 + r): feeding the
    bond state on the upper qubit and |0> on the lower one emits the
    physical bit upward and the next bond state downward. The remaining
    columns are a deterministic orthonormal kernel completion.
    """
    al, _, ar = core.shape
    gate = np.zeros((4, 4))
    specified_cols = []
    for b in range(al):
        col = np.zeros(4)
        for s in range(2):
            col[s * 2 : s * 2 + ar] = core[b, s, :]
        gate[:, b * 2] = col
        specified_cols.append(col)
    completion = null_space_completion(np.array(specified_cols))
    free_slots = [b * 2 + 1 for b in range(2)] + [b * 2 for b in range(al, 2)]
    for slot, row in zip(sorted(free_slots), completion):
        gate[:, slot] = row
    return gate


def _final_gate_from_core(core: np.ndarray) -> np.ndarray:
    """Single-qubit gate mapping the residual bond state to the last bit."""
    al = core.shape[0]
    gate = np.zeros((2, 2))
    for b in range(al):
        gate[:, b] = core[b, :, 0]
    if al == 1:
        gate[:, 1] = null_space_completion(gate[:, :1].T)[0]
    return gate


def extract_circuit(m: Mps) -> Circuit:
    """Build the staircase preparation circuit for a normalized rank<=2 MPS.

    The input is right-canonicalized internally, since public input may
    come in any gauge; its norm is then the norm of core 0, which must be
    1 to within 1e-8. Gate t (t < N-1) is a two-qubit gate on (t, t+1);
    the last gate is a single-qubit gate on qubit N-1. Applying them in
    list order to |0...0> reproduces every amplitude of the input exactly,
    up to floating point, because a single staircase layer is exact
    whenever no bond exceeds the physical dimension.
    """
    if m.max_bond > 2:
        raise ValueError(
            f"max bond dimension is {m.max_bond}; compress to 2 or less "
            "(e.g. with compress_als) before extracting gates"
        )
    canon = m.canonicalize("right")
    nrm = float(np.linalg.norm(canon.cores[0]))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"input must be normalized, got norm {nrm!r}")

    gates = []
    for i in range(canon.n_sites - 1):
        gates.append(Gate((i, i + 1), _gate_from_core(canon.cores[i])))
    gates.append(
        Gate((canon.n_sites - 1,), _final_gate_from_core(canon.cores[-1]))
    )
    return Circuit(n_qubits=canon.n_sites, gates=tuple(gates))


def circuit_to_mps(c: Circuit) -> Mps:
    """State produced by a staircase circuit, as a rank<=2 MPS.

    Inverts the extraction map without touching any dense vector: each
    two-qubit gate's (bond, |0>) columns become one core, the terminal
    single-qubit gate becomes the last core. Only valid for circuits with
    the staircase layout produced by :func:`extract_circuit`.
    """
    report = validate_circuit(c, tol=np.inf)  # structure only, skip numerics
    if not report.staircase or report.gate_count != c.n_qubits:
        raise ValueError("not a staircase circuit; cannot invert to an MPS")
    cores = []
    for i, gate in enumerate(c.gates[:-1]):
        al = 1 if i == 0 else 2
        ar = 2
        core = np.zeros((al, 2, ar))
        for b in range(al):
            col = gate.matrix[:, b * 2]
            for s in range(2):
                core[b, s, :] = col[s * 2 : s * 2 + ar]
        cores.append(core)
    final = c.gates[-1].matrix
    al = 1 if c.n_qubits == 1 else 2
    cores.append(final[:, :al].T.reshape(al, 2, 1))
    return Mps(cores)


@dataclass(frozen=True)
class ValidationReport:
    """Structural and numerical checks of a circuit."""

    n_qubits: int
    gate_count: int
    two_qubit_count: int
    max_orthogonality_deviation: float
    staircase: bool
    issues: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_circuit(c: Circuit, tol: float = 1e-10) -> ValidationReport:
    """Check gate orthogonality, staircase ordering, and gate count.

    Never raises; all failures are reported as issues. An empty circuit
    is trivially valid.
    """
    issues = []
    max_dev = 0.0
    for idx, gate in enumerate(c.gates):
        dev = gate.orthogonality_deviation()
        max_dev = max(max_dev, dev)
        if dev > tol:
            issues.append(
                f"gate {idx} on {gate.qubits} deviates from orthogonality by {dev:.3e}"
            )

    two_qubit = [g for g in c.gates if len(g.qubits) == 2]
    staircase = True
    for t, gate in enumerate(two_qubit):
        if gate.qubits != (t, t + 1):
            staircase = False
            issues.append(
                f"two-qubit gate {t} acts on {gate.qubits}, expected ({t}, {t + 1})"
            )
    for idx, gate in enumerate(c.gates):
        if len(gate.qubits) == 1 and idx != len(c.gates) - 1:
            staircase = False
            issues.append(f"single-qubit gate at position {idx} is not terminal")

    if len(c.gates) > c.n_qubits + 1:
        issues.append(
            f"{len(c.gates)} gates exceeds the linear budget of {c.n_qubits + 1}"
        )

    return ValidationReport(
        n_qubits=c.n_qubits,
        gate_count=len(c.gates),
        two_qubit_count=len(two_qubit),
        max_orthogonality_deviation=max_dev,
        staircase=staircase,
        issues=tuple(issues),
    )
