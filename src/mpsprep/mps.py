"""Matrix product states over qubit chains.

An :class:`Mps` factors a length 2^N real vector into N three-index cores
``core[i]`` of shape ``(left_bond, 2, right_bond)`` with boundary bonds of
size one. Indexing is big-endian: site 0 carries the most significant bit,
so a bitstring ``s_0 ... s_{N-1}`` addresses dense index
``sum(s_i * 2^(N-1-i))``.

Provided here: exact construction from dense vectors by successive SVDs,
evaluation, addition, inner products, canonical forms, rank reduction by
truncated-SVD sweeps, and variational fixed-rank compression by
alternating single-site overlap maximization.

Mps values are treated as immutable: all operations return new instances
and stored cores are marked read-only, so instances are safe to share
across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .linalg import TruncationPolicy, _qr_signed, truncated_svd

__all__ = [
    "Mps",
    "CompressionOptions",
    "dense_qubit_limit",
    "to_mps_exact",
    "add",
    "overlap",
    "tt_round",
    "compress_als",
    "unfolding_spectra",
    "bipartite_vne",
]

_DEFAULT_DENSE_LIMIT = 24


def dense_qubit_limit() -> int:
    """Qubit cap for dense 2^N paths; override with MPSPREP_DENSE_LIMIT."""
    raw = os.environ.get("MPSPREP_DENSE_LIMIT")
    if raw is None:
        return _DEFAULT_DENSE_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"MPSPREP_DENSE_LIMIT must be an integer, got {raw!r}") from exc


def _check_dense(n: int, what: str) -> None:
    limit = dense_qubit_limit()
    if n > limit:
        raise ValueError(
            f"{what} needs a dense 2^{n} vector, above the configured "
            f"limit of {limit} qubits (set MPSPREP_DENSE_LIMIT to raise it)"
        )


class Mps:
    """Chain of ``(left, bit, right)`` cores encoding a 2^N-entry vector.

    Parameters
    ----------
    cores:
        Sequence of 3-d arrays. Core ``i`` has shape ``(a_i, 2, a_{i+1})``
        with ``a_0 = a_N = 1`` and matching interior bonds.

    No norm or gauge is recorded; the stage that needs one establishes it.
    """

    __slots__ = ("cores",)

    def __init__(self, cores):
        stored = []
        for i, c in enumerate(cores):
            arr = np.array(c, dtype=float)
            if arr.ndim != 3 or arr.shape[1] != 2:
                raise ValueError(
                    f"core {i} must have shape (left, 2, right), got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"core {i} contains non-finite entries")
            arr.flags.writeable = False
            stored.append(arr)
        if not stored:
            raise ValueError("an MPS needs at least one core")
        if stored[0].shape[0] != 1 or stored[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for i in range(len(stored) - 1):
            if stored[i].shape[2] != stored[i + 1].shape[0]:
                raise ValueError(
                    f"bond mismatch between cores {i} and {i + 1}: "
                    f"{stored[i].shape[2]} vs {stored[i + 1].shape[0]}"
                )
        self.cores = tuple(stored)

    @property
    def n_sites(self) -> int:
        return len(self.cores)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """All N+1 bond dimensions, including the unit boundaries."""
        return (1,) + tuple(c.shape[2] for c in self.cores)

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims)

    def amplitude(self, bits) -> float:
        """Contract the chain along one bitstring (str of 0/1 or int sequence)."""
        b = [int(ch) for ch in bits]
        if len(b) != self.n_sites:
            raise ValueError(f"expected {self.n_sites} bits, got {len(b)}")
        if any(x not in (0, 1) for x in b):
            raise ValueError("bits must be 0 or 1")
        v = np.ones((1,))
        for core, s in zip(self.cores, b):
            v = v @ core[:, s, :]
        return float(v[0])

    def to_statevector(self) -> np.ndarray:
        """Dense big-endian 2^N vector of all amplitudes."""
        _check_dense(self.n_sites, "to_statevector")
        psi = self.cores[0].reshape(2, -1)
        for core in self.cores[1:]:
            right = core.shape[2]
            psi = psi.reshape(-1, core.shape[0]) @ core.reshape(core.shape[0], -1)
            psi = psi.reshape(-1, right)
        return psi.reshape(-1)

    def norm(self) -> float:
        return float(np.sqrt(max(overlap(self, self), 0.0)))

    def normalize(self) -> "Mps":
        """Rescale core 0 to unit 2-norm, which keeps right-canonical form.

        The norm comes from ``overlap(self, self)``, so it must be below ~1e154.
        """
        nrm = self.norm()
        if nrm <= 0.0 or not np.isfinite(nrm):
            raise ValueError(f"cannot normalize an MPS with norm {nrm}")
        return Mps((self.cores[0] / nrm,) + self.cores[1:])

    def canonicalize(self, form: str) -> "Mps":
        """Return an equivalent MPS in left or right canonical form.

        Left form: every core but the last is a left isometry (orthonormal
        columns of its ``(left*2, right)`` unfolding). Right form is the
        mirror image. Amplitudes are preserved; redundant bonds may shrink.
        """
        if form not in ("left", "right"):
            raise ValueError(f"form must be 'left' or 'right', got {form!r}")
        cores = list(self.cores)
        n = len(cores)
        if form == "left":
            for i in range(n - 1):
                al, _, ar = cores[i].shape
                q, r = _qr_signed(cores[i].reshape(al * 2, ar))
                k = q.shape[1]
                cores[i] = q.reshape(al, 2, k)
                nxt = cores[i + 1]
                cores[i + 1] = np.tensordot(r, nxt, axes=([1], [0]))
        else:
            for i in range(n - 1, 0, -1):
                al, _, ar = cores[i].shape
                q, r = _qr_signed(cores[i].reshape(al, 2 * ar).T)
                k = q.shape[1]
                cores[i] = q.T.reshape(k, 2, ar)
                prev = cores[i - 1]
                cores[i - 1] = np.tensordot(prev, r.T, axes=([2], [0]))
        return Mps(cores)

    def __repr__(self) -> str:
        return f"Mps(n_sites={self.n_sites}, max_bond={self.max_bond})"


@dataclass(frozen=True)
class CompressionOptions:
    """Settings for variational fixed-rank compression.

    ``convergence_tol`` is the relative change in overlap with the target
    between consecutive sweeps below which the iteration stops. Sweeps
    start from the truncated-SVD rounding of the input.
    """

    target_chi: int = 2
    max_sweeps: int = 50
    convergence_tol: float = 1e-10

    def __post_init__(self):
        if self.target_chi < 1:
            raise ValueError("target_chi must be >= 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be > 0")


def to_mps_exact(v, policy: TruncationPolicy | None = None) -> Mps:
    """Factor a dense vector into an MPS by successive truncated SVDs.

    With the default exact policy the reconstruction is exact up to
    round-off. With truncation, the squared dense-vector error is bounded
    by the sum of all squared omitted singular values across the sweeps.
    The result is left-canonical by construction.
    """
    vec = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise ValueError("input vector contains non-finite entries")
    n = int(vec.size).bit_length() - 1
    if vec.size < 2 or vec.size != 2**n:
        raise ValueError(f"length must be a power of two >= 2, got {vec.size}")
    if not np.any(vec):
        raise ValueError("cannot factor the zero vector")
    _check_dense(n, "to_mps_exact")
    if policy is None:
        policy = TruncationPolicy.exact()

    cores = []
    c = vec.reshape(1, -1)
    left = 1
    for _ in range(n - 1):
        c = c.reshape(left * 2, -1)
        res = truncated_svd(c, policy)
        # Exactly-zero singular values carry no weight; dropping them keeps
        # the factorization exact while giving product states unit bonds.
        keep = max(1, int(np.count_nonzero(res.s)))
        cores.append(res.u[:, :keep].reshape(left, 2, keep))
        c = res.s[:keep, None] * res.vt[:keep, :]
        left = keep
    cores.append(c.reshape(left, 2, 1))
    return Mps(cores)


def add(a: Mps, b: Mps) -> Mps:
    """Sum of two MPS; amplitudes add exactly, interior bonds concatenate."""
    if a.n_sites != b.n_sites:
        raise ValueError(f"site count mismatch: {a.n_sites} vs {b.n_sites}")
    n = a.n_sites
    if n == 1:
        return Mps([a.cores[0] + b.cores[0]])
    cores = []
    for i, (ca, cb) in enumerate(zip(a.cores, b.cores)):
        la, _, ra = ca.shape
        lb, _, rb = cb.shape
        if i == 0:
            core = np.concatenate([ca, cb], axis=2)
        elif i == n - 1:
            core = np.concatenate([ca, cb], axis=0)
        else:
            core = np.zeros((la + lb, 2, ra + rb))
            core[:la, :, :ra] = ca
            core[la:, :, ra:] = cb
        cores.append(core)
    return Mps(cores)


def overlap(a: Mps, b: Mps) -> float:
    """Inner product <a|b> by left-to-right pairwise core contraction."""
    if a.n_sites != b.n_sites:
        raise ValueError(f"site count mismatch: {a.n_sites} vs {b.n_sites}")
    env = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        tmp = np.tensordot(env, ca, axes=([0], [0]))  # (b, s, c)
        env = np.tensordot(tmp, cb, axes=([0, 1], [0, 1]))  # (c, d)
    return float(env[0, 0])


def tt_round(m: Mps, policy: TruncationPolicy) -> Mps:
    """Reduce bond dimensions by a sweep of truncated SVDs.

    The input is right-canonicalized first so each local truncation is
    optimal for the whole state; the result is left-canonical.
    """
    work = list(m.canonicalize("right").cores)
    n = len(work)
    for i in range(n - 1):
        al, _, ar = work[i].shape
        res = truncated_svd(work[i].reshape(al * 2, ar), policy)
        work[i] = res.u.reshape(al, 2, res.rank)
        carry = res.s[:, None] * res.vt
        work[i + 1] = np.tensordot(carry, work[i + 1], axes=([1], [0]))
    return Mps(work)


def compress_als(m: Mps, opts: CompressionOptions) -> Mps:
    """Best fixed-rank approximation by alternating single-site updates.

    Sweeps maximize the overlap with the input, taken in any gauge and
    unnormalized: the cached boundary environments are linear in it and
    each half sweep divides its end core by that core's norm, so a norm
    of order 2^(N/2) (assembled states up to N = 1023) is never squared.
    Each local problem contracts the environments with one target core;
    a sweep costs O(N) contractions sized by the bond dimensions. The
    result is normalized, right-canonical, and never worse than the
    truncated-SVD rounding it starts from. A zero input is rejected.
    """
    n = m.n_sites
    guess = tt_round(m, TruncationPolicy.rank(opts.target_chi))
    work = list(guess.canonicalize("right").cores)
    if not np.any(work[0]):
        raise ValueError("cannot compress the zero state")

    t_cores = m.cores
    right_env: list[np.ndarray | None] = [None] * (n + 1)
    left_env: list[np.ndarray | None] = [None] * (n + 1)
    right_env[n] = np.ones((1, 1))
    left_env[0] = np.ones((1, 1))
    for i in range(n - 1, 0, -1):
        tmp = np.tensordot(work[i], right_env[i + 1], axes=([2], [0]))  # (a, s, d)
        right_env[i] = np.tensordot(tmp, t_cores[i], axes=([1, 2], [1, 2]))  # (a, b)

    def local_target(i: int) -> np.ndarray:
        tmp = np.tensordot(left_env[i], t_cores[i], axes=([1], [0]))  # (a, s, d)
        return np.tensordot(tmp, right_env[i + 1], axes=([2], [1]))  # (a, s, c)

    def unit_end_core(i: int) -> tuple[np.ndarray, float]:
        b = local_target(i)
        nrm = np.linalg.norm(b)
        if nrm == 0.0:
            raise ValueError("target is orthogonal to the compression ansatz")
        return b / nrm, float(nrm)

    ovl = -np.inf
    for _ in range(opts.max_sweeps):
        # Left-to-right half sweep.
        for i in range(n - 1):
            b = local_target(i)
            al, _, ar = b.shape
            q, _ = _qr_signed(b.reshape(al * 2, ar))
            work[i] = q.reshape(al, 2, q.shape[1])
            tmp = np.tensordot(left_env[i], work[i], axes=([0], [0]))  # (b, s, c)
            left_env[i + 1] = np.tensordot(tmp, t_cores[i], axes=([0, 1], [0, 1]))
        work[n - 1], _ = unit_end_core(n - 1)

        # Right-to-left half sweep.
        for i in range(n - 1, 0, -1):
            b = local_target(i)
            al, _, ar = b.shape
            q, _ = _qr_signed(b.reshape(al, 2 * ar).T)
            work[i] = q.T.reshape(q.shape[1], 2, ar)
            tmp = np.tensordot(work[i], right_env[i + 1], axes=([2], [0]))
            right_env[i] = np.tensordot(tmp, t_cores[i], axes=([1, 2], [1, 2]))
        work[0], nrm = unit_end_core(0)

        prev, ovl = ovl, nrm
        if prev > -np.inf and abs(ovl - prev) <= opts.convergence_tol * max(
            abs(ovl), 1e-300
        ):
            break

    return Mps(work)


def unfolding_spectra(v) -> list[np.ndarray]:
    """Singular spectra of all N-1 big-endian matrix reshapings of a vector."""
    vec = np.asarray(v, dtype=float).reshape(-1)
    n = int(vec.size).bit_length() - 1
    if vec.size < 2 or vec.size != 2**n:
        raise ValueError(f"length must be a power of two >= 2, got {vec.size}")
    return [
        np.linalg.svd(vec.reshape(2**j, -1), compute_uv=False) for j in range(1, n)
    ]


def bipartite_vne(spectrum) -> float:
    """Von Neumann entropy of a Schmidt spectrum (natural log).

    The squared singular values are normalized to a probability vector
    internally; zero weights contribute nothing.
    """
    s = np.asarray(spectrum, dtype=float)
    weights = s**2
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("spectrum has no weight")
    lam = weights / total
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))
