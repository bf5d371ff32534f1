"""Reference computations written apart from mpsprep.

Nothing here imports mpsprep. Densities use their own closed forms, the
grid follows the documented convention x_k = a + k (b - a) / (2^N - 1)
with qubit 0 as the most significant bit, and circuits are read only
through their gates' ``qubits`` and ``matrix`` attributes.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the oracle or a required property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- densities ---------------------------------------------------------------

_SQRT2PI = math.sqrt(2.0 * math.pi)


def density(kind: str, mu: float, sigma: float, x):
    """Normalized density on the real line (lognormal on x > 0)."""
    x = np.asarray(x, dtype=float)
    if kind == "gaussian":
        return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (_SQRT2PI * sigma)
    if kind == "lognormal":
        return np.exp(-0.5 * ((np.log(x) - mu) / sigma) ** 2) / (_SQRT2PI * sigma * x)
    if kind == "lorentzian":
        return (sigma / math.pi) / ((x - mu) ** 2 + sigma**2)
    raise ValueError(f"unknown family {kind!r}")


def cdf(kind: str, mu: float, sigma: float, x: float) -> float:
    if kind == "gaussian":
        return 0.5 * math.erfc(-(x - mu) / (sigma * math.sqrt(2.0)))
    if kind == "lognormal":
        return 0.5 * math.erfc(-(math.log(x) - mu) / (sigma * math.sqrt(2.0)))
    if kind == "lorentzian":
        return 0.5 + math.atan((x - mu) / sigma) / math.pi
    raise ValueError(f"unknown family {kind!r}")


def grid_points(a: float, b: float, n: int) -> np.ndarray:
    return a + (b - a) * (np.arange(2**n, dtype=float) / (2**n - 1))


def target_state(kind, mu, sigma, a, b, n) -> np.ndarray:
    """Unit-norm sqrt(f) on the 2^n grid, built densely."""
    amps = np.sqrt(density(kind, mu, sigma, grid_points(a, b, n)))
    return amps / np.linalg.norm(amps)


def grid_norm_sq(kind, mu, sigma, a, b, n) -> float:
    """sum_k f(x_k) from the trapezoid rule read backwards.

    h * (sum_k f(x_k) - (f(a) + f(b)) / 2) is the trapezoid sum, which
    equals the integral of f over [a, b] up to O(h^2); for n >= 64 that
    term is far below double precision.
    """
    h = (b - a) / (2**n - 1)
    integral = cdf(kind, mu, sigma, b) - cdf(kind, mu, sigma, a)
    ends = density(kind, mu, sigma, np.array([a, b]))
    return integral / h + 0.5 * float(ends.sum())


def grid_point(a: float, b: float, n: int, k: int) -> float:
    return a + (b - a) * (k / (2**n - 1))


# -- circuits ----------------------------------------------------------------


def check_staircase(circuit, n: int) -> None:
    """N gates: two-qubit gate t on (t, t+1), then one gate on qubit N-1, all orthogonal."""
    gates = circuit.gates
    require(circuit.n_qubits == n, f"register has {circuit.n_qubits} qubits, want {n}")
    require(len(gates) == n, f"{len(gates)} gates, want {n}")
    for t, g in enumerate(gates):
        want = (t, t + 1) if t < n - 1 else (n - 1,)
        require(tuple(g.qubits) == want, f"gate {t} acts on {tuple(g.qubits)}, want {want}")
        m = np.asarray(g.matrix, dtype=float)
        dev = float(np.max(np.abs(m.T @ m - np.eye(m.shape[0]))))
        require(dev <= 1e-10, f"gate {t} deviates from orthogonality by {dev:.2e}")


def apply_circuit(circuit) -> np.ndarray:
    """Dense state of the circuit applied to |0...0>, any gate layout."""
    n = circuit.n_qubits
    psi = np.zeros(2**n)
    psi[0] = 1.0
    for g in circuit.gates:
        psi = apply_gate(psi, n, tuple(g.qubits), np.asarray(g.matrix, dtype=float))
    return psi


def apply_gate(psi: np.ndarray, n: int, qubits: tuple, matrix: np.ndarray) -> np.ndarray:
    if len(qubits) == 1 or qubits[1] == qubits[0] + 1:
        # Adjacent block: one batched (2^q, d, rest) matrix product, no transpose.
        q, d = qubits[0], matrix.shape[0]
        view = psi.reshape(2**q, d, -1)
        return np.matmul(matrix, view).reshape(-1)
    # General pair: move the two target axes to the front, apply, move back.
    i, j = qubits
    t = np.moveaxis(psi.reshape((2,) * n), (i, j), (0, 1))
    shape = t.shape
    t = (matrix @ t.reshape(4, -1)).reshape(shape)
    return np.ascontiguousarray(np.moveaxis(t, (0, 1), (i, j))).reshape(-1)


def staircase_amplitude(circuit, bits) -> float:
    """<bits| U |0...0> for a staircase circuit, by one pass along the chain.

    Before gate t, qubit t+1 is still |0> and qubit t holds the carried
    two-dimensional state; after it, qubit t is final, so projecting it on
    bits[t] leaves the carry for the next gate.
    """
    gates = circuit.gates
    carry = np.array([1.0, 0.0])
    for t, s in enumerate(bits[:-1]):
        m = np.asarray(gates[t].matrix, dtype=float)
        # rows (s, r), columns (b, 0): carry'[r] = sum_b m[2s + r, 2b] carry[b]
        carry = m[2 * s : 2 * s + 2, 0::2] @ carry
    final = np.asarray(gates[-1].matrix, dtype=float)
    return float(final[bits[-1]] @ carry)


def bits_of(k: int, n: int) -> list[int]:
    return [(k >> (n - 1 - i)) & 1 for i in range(n)]


# -- matrix product states ---------------------------------------------------


def staircase_cores(circuit) -> list[np.ndarray]:
    """Cores (left, bit, right) of the state a staircase circuit prepares."""
    gates = circuit.gates
    cores = [np.asarray(gates[0].matrix, dtype=float)[:, 0].reshape(1, 2, 2)]
    for g in gates[1:-1]:
        m = np.asarray(g.matrix, dtype=float)
        cores.append(m[:, 0::2].T.reshape(2, 2, 2))
    cores.append(np.asarray(gates[-1].matrix, dtype=float).T.reshape(2, 2, 1))
    return cores


def cores_inner(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    env = np.ones((1, 1))
    for ca, cb in zip(a, b):
        env = np.tensordot(np.tensordot(env, ca, axes=([0], [0])), cb, axes=([0, 1], [0, 1]))
    return float(env[0, 0])


def mps_fidelity(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    """|<a|b>| / (|a| |b|) by left-to-right contraction."""
    return abs(cores_inner(a, b)) / math.sqrt(cores_inner(a, a) * cores_inner(b, b))


def rank_truncated(v: np.ndarray, chi: int) -> np.ndarray:
    """Successive rank-chi SVD truncation of a dense vector, returned densely."""
    n = int(v.size).bit_length() - 1
    cores = []
    rest = v.reshape(1, -1)
    for _ in range(n - 1):
        left = rest.shape[0]
        u, s, vt = np.linalg.svd(rest.reshape(left * 2, -1), full_matrices=False)
        r = min(chi, int(np.count_nonzero(s)) or 1)
        cores.append(u[:, :r].reshape(left, 2, r))
        rest = s[:r, None] * vt[:r]
    out = rest.reshape(-1, 2)
    for core in reversed(cores):
        out = np.tensordot(core, out.reshape(core.shape[2], -1), axes=([2], [0]))
    return out.reshape(-1)


# -- spectra -----------------------------------------------------------------


def unfolding_spectra(v: np.ndarray) -> list[np.ndarray]:
    n = int(v.size).bit_length() - 1
    return [np.linalg.svd(v.reshape(2**j, -1), compute_uv=False) for j in range(1, n)]


def decay_rate(spectra, floor: float = 1e-13) -> float:
    """Pooled slope of -log(sigma_k) against k over values above floor * sigma_1."""
    ks, logs = [], []
    for s in spectra:
        keep = s > floor * s[0]
        if keep.sum() < 2:
            continue
        ks.append(np.arange(1, s.size + 1)[keep])
        logs.append(np.log(s[keep]))
    k = np.concatenate(ks).astype(float)
    y = np.concatenate(logs)
    slope = np.sum((k - k.mean()) * (y - y.mean())) / np.sum((k - k.mean()) ** 2)
    return -float(slope)


def rank_bound(beta: float, chi: int, n: int) -> float:
    """exp(-beta chi) sinh(beta (n - chi)) / sinh(beta n), evaluated in logs."""
    def log_sinh(x):
        return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)

    return math.exp(-beta * chi + log_sinh(beta * (n - chi)) - log_sinh(beta * n))
