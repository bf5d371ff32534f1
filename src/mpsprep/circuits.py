"""Conversion of rank-2 matrix product states into staircase circuits.

A normalized MPS with all bonds at most 2 maps exactly onto one layer of
real orthogonal gates: one two-qubit gate per bond, applied top to
bottom, plus a final single-qubit gate. The layout is stated once, in
``_staircase_qubits``: gate t acts on qubits (t, t+1) and moves the
running bond state one qubit down the chain, and the last gate acts on
qubit N-1 alone. Extraction emits it, and inversion and validation
compare against it. Gate columns come straight from right-canonical
cores (other input is canonicalized first). One complete Householder QR
fills the rest, and each gate's free columns depend only on its own
columns; identical inputs yield bit-identical circuits.

Each check runs once, at the boundary, over stacks. A public
:class:`Gate` checks its own qubits and matrix, and a :class:`Circuit`
its register. Extraction checks the finiteness of all its gate matrices
at once and builds its records with ``_gate``, which skips the per-gate
checks; so does deserialization, after its own schema checks.
:func:`circuit_to_mps` reads all the cores off one stack of the gate
matrices, and :func:`validate_circuit` takes the orthogonality of all
gates of a size in one batched product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _as_int, _as_real, _int_field
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
        if not np.isfinite(mat).all():
            raise ValueError("gate matrix contains non-finite entries")
        qubits = tuple(_as_int(q, "qubits") for q in self.qubits)
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise ValueError(
                f"gate qubits must be distinct; qubit {qubits[0]} is repeated"
            )
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "matrix", mat)

    def orthogonality_deviation(self) -> float:
        g = self.matrix
        return float(np.max(np.abs(g.T @ g - np.eye(g.shape[0]))))


def _gate(qubits: tuple[int, ...], matrix: np.ndarray) -> Gate:
    """A :class:`Gate` built without its checks: ``qubits`` are one or two
    distinct Python ints and ``matrix`` is a finite float64 array of the
    matching shape, as the caller has checked over all its gates at once."""
    gate = object.__new__(Gate)
    object.__setattr__(gate, "qubits", qubits)
    object.__setattr__(gate, "matrix", matrix)
    return gate


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list, applied left to right to the all-zeros state."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        _int_field(self, "n_qubits")
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            for q in gate.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(
                        f"gate qubit {q} outside register of size {self.n_qubits}"
                    )


def _staircase_qubits(n: int, count: int) -> list[tuple[int, ...]]:
    # The first `count` slots of the one staircase layout on n qubits:
    # (t, t+1) for t < n-1, then (n-1,) alone.
    return [(t, t + 1) if t < n - 1 else (t,) for t in range(min(count, n))]


def _distinct(objs, key=id) -> tuple[list, list[int]]:
    """The objects of ``objs`` distinct by ``key`` (identity by default),
    in first-seen order, and each entry's row among them: a chain that
    repeats one core or gate (the |+> tail of a compressed chain) is
    worked on once per distinct one."""
    slot = {}
    rows = [slot.setdefault(key(o), (len(slot), o))[0] for o in objs]
    return [o for _, o in slot.values()], rows


def _gates_from_cores(cores) -> np.ndarray:
    """Two-qubit gates whose (bond, |0>) columns reproduce rank<=2 cores.

    Column (b*2 + 0) of gate t carries cores[t][b, s, r] at row (s*2 + r):
    feeding the bond state on the upper qubit and |0> on the lower one
    emits the physical bit upward and the next bond state downward. The
    remaining columns come from one complete QR of all gates' (b, 0)
    columns, zero-padded past the left bond: on a zero column the second
    Householder reflector is the identity. Each gate's free columns
    depend only on its own columns, so a repeated core object is
    factored once.
    """
    cores, rows = _distinct(cores)
    cols = np.zeros((len(cores), 4, 2))  # cols[t, s*2 + r, b]
    for col, core in zip(cols.reshape(-1, 2, 2, 2), cores):
        col[:, : core.shape[2], : len(core)] = core.transpose(1, 2, 0)
    gates = np.linalg.qr(cols, mode="complete")[0][:, :, [0, 2, 1, 3]]
    # Q spans each column up to sign and round-off; store the exact entries.
    gates[:, :, 0] = cols[:, :, 0]
    two = np.array([len(core) == 2 for core in cores], dtype=bool)
    gates[two, :, 2] = cols[two, :, 1]
    return gates[rows]


def _final_gate_from_core(core: np.ndarray) -> np.ndarray:
    """Single-qubit gate mapping the residual bond state to the last bit."""
    al = core.shape[0]
    gate = np.linalg.qr(core[:, :, 0].T, mode="complete")[0]
    gate[:, :al] = core[:, :, 0].T
    return gate


def _right_canonical(cores) -> bool:
    """Whether cores 1..N-1 (bonds <= 2) are right isometries to 1e-13: one
    batched A A^T of the distinct cores' (left, 2*right) unfoldings,
    zero-padded to 2x4."""
    cores = _distinct(cores[1:])[0]
    rows = np.zeros((len(cores), 2, 4))
    for row, core in zip(rows.reshape(-1, 2, 2, 2), cores):
        row[: len(core), :, : core.shape[2]] = core
    gram = rows @ rows.swapaxes(1, 2)
    gram[[len(core) == 1 for core in cores], 1, 1] = 1.0  # the padding row
    return bool(np.all(np.abs(gram - np.eye(2)) <= 1e-13))


def extract_circuit(m: Mps) -> Circuit:
    """Build the staircase preparation circuit for a normalized rank<=2 MPS.

    Input in any gauge is accepted; unless right-canonical already (as
    ``compress_als`` leaves it), it is canonicalized first. Its norm, core
    0's, must be 1 to within 1e-8. Gate t (t < N-1) is a two-qubit gate on (t, t+1);
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
    canon = m if _right_canonical(m.cores) else m.canonicalize("right")
    nrm = float(np.linalg.norm(canon.cores[0]))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"input must be normalized, got norm {nrm!r}")

    pairs = _gates_from_cores(canon.cores[:-1])
    final = _final_gate_from_core(canon.cores[-1])
    if not (np.isfinite(pairs).all() and np.isfinite(final).all()):
        raise ValueError("gate matrix contains non-finite entries")
    layout = _staircase_qubits(canon.n_sites, canon.n_sites)
    return Circuit(canon.n_sites, tuple(map(_gate, layout, [*pairs, final])))


def circuit_to_mps(c: Circuit) -> Mps:
    """State produced by a staircase circuit, as a rank<=2 MPS.

    Inverts the extraction map without touching any dense vector: each
    two-qubit gate's (bond, |0>) columns become one core, the terminal
    single-qubit gate becomes the last core. Only valid for circuits with
    the staircase layout produced by :func:`extract_circuit`; gate
    orthogonality is not checked.
    """
    qubits = [g.qubits for g in c.gates]
    if len(qubits) != c.n_qubits or qubits != _staircase_qubits(c.n_qubits, c.n_qubits):
        raise ValueError("not a staircase circuit; cannot invert to an MPS")
    # Gates with the same bytes share one core object, so the MPS copies
    # each distinct gate once. Inverse of _gates_from_cores: core[b, s, r] =
    # gate[s*2 + r, b*2], read off one stack of the distinct gates.
    mats, rows = _distinct([g.matrix for g in c.gates[:-1]], np.ndarray.tobytes)
    pairs = np.array(mats).reshape(-1, 2, 2, 2, 2)
    distinct = list(pairs[..., 0].transpose(0, 3, 1, 2))
    cores = [distinct[r] for r in rows]
    if cores:
        cores[0] = cores[0][:1]
    al = 1 if c.n_qubits == 1 else 2
    cores.append(c.gates[-1].matrix[:, :al].T.reshape(al, 2, 1))
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
    """Check gate orthogonality and the staircase layout.

    The circuit is a staircase when its gate list is a prefix of the
    layout :func:`extract_circuit` emits. Never raises on a bad circuit;
    all its failures are reported as issues. An empty circuit is trivially
    valid. A NaN or negative ``tol`` is a ValueError. Each gate's
    deviation is :meth:`Gate.orthogonality_deviation`'s, taken for all
    gates of a size in one batched product.
    """
    if not _as_real(tol, "tol") >= 0:  # NaN fails too
        raise ValueError(f"tol must be >= 0, got {tol}")
    devs = np.zeros(len(c.gates))
    sizes = np.array([len(g.matrix) for g in c.gates])
    for size in (2, 4):
        idx = np.flatnonzero(sizes == size)
        if idx.size:
            mats = np.array([c.gates[i].matrix for i in idx])
            gram = mats.swapaxes(1, 2) @ mats
            devs[idx] = np.abs(gram - np.eye(size)).max(axis=(1, 2))
    devs = devs.tolist()
    issues = []
    layout = _staircase_qubits(c.n_qubits, len(c.gates))
    staircase = True
    for idx, (gate, dev) in enumerate(zip(c.gates, devs)):
        if dev > tol:
            issues.append(
                f"gate {idx} on {gate.qubits} deviates from orthogonality by {dev:.3e}"
            )
        want = layout[idx] if idx < len(layout) else None
        if gate.qubits != want:
            staircase = False
            issues.append(
                f"gate {idx} acts on {gate.qubits}; the staircase expects "
                f"{want or 'no gate'} there"
            )

    return ValidationReport(
        n_qubits=c.n_qubits,
        gate_count=len(c.gates),
        two_qubit_count=sum(len(g.qubits) == 2 for g in c.gates),
        max_orthogonality_deviation=max(devs, default=0.0),
        staircase=staircase,
        issues=tuple(issues),
    )
