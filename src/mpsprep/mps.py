"""Matrix product states over qubit chains.

An :class:`Mps` factors a length 2^N real vector into N three-index cores
``core[i]`` of shape ``(left_bond, 2, right_bond)`` with boundary bonds of
size one. Indexing is big-endian: site 0 carries the most significant bit,
so a bitstring ``s_0 ... s_{N-1}`` addresses dense index
``sum(s_i * 2^(N-1-i))``.

Provided here: exact construction from dense vectors by successive SVDs,
evaluation, inner products, canonical forms, rank reduction by
truncated-SVD sweeps (each bond cut to its numerical rank, optionally
capped at ``max_rank``, by the rank rule of
:func:`~mpsprep.linalg.truncated_svd`), and
variational fixed-rank compression by alternating single-site overlap
maximization. Compression works on the head of the chain only: a
trailing run of cores whose two slices agree to ``PRODUCT_TOL`` of the
core's largest entry is |+> on every site of the run times one matrix,
so it is folded into the head and handed on as exact |+> cores.

Every pass over the chain is written once, left to right; a right-to-left
pass runs it on the mirrored chain (cores reversed, bond axes swapped).
The mirror of a left-canonical chain is right-canonical, and environments
keep their (work bond, target bond) layout.

Mps values are treated as immutable: all operations return new instances
and stored cores are marked read-only, so instances are safe to share
across threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PRODUCT_TOL,
    _as_int,
    _check_max_rank,
    _int_field,
    _qr_signed,
    _real_field,
    _svd_cut,
)

__all__ = [
    "Mps",
    "CompressionOptions",
    "dense_qubit_limit",
    "to_mps_exact",
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


def _dense_vector(v) -> tuple[np.ndarray, int]:
    """``v`` flattened to floats, with its qubit count n; it must be
    finite and of length 2^n with n >= 1."""
    vec = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise ValueError("input vector contains non-finite entries")
    n = int(vec.size).bit_length() - 1
    if vec.size < 2 or vec.size != 2**n:
        raise ValueError(f"length must be a power of two >= 2, got {vec.size}")
    return vec, n


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
        # A run of one core object (a compressed chain repeats one |+> core
        # along its tail) is copied and checked once. `prev` holds the
        # run's source, so the identity test cannot be fooled.
        stored, distinct, prev = [], [], None
        for i, c in enumerate(cores):
            if i == 0 or c is not prev:
                # C order: cores made on the mirrored chain arrive transposed.
                arr = np.array(c, dtype=float, order="C")
                if arr.ndim != 3 or arr.shape[1] != 2:
                    raise ValueError(
                        f"core {i} must have shape (left, 2, right), got {arr.shape}"
                    )
                arr.flags.writeable = False
                distinct.append(arr)
                prev = c
            stored.append(arr)
        if not stored:
            raise ValueError("an MPS needs at least one core")
        if not np.isfinite(np.concatenate([a.reshape(-1) for a in distinct])).all():
            i = next(i for i, a in enumerate(stored) if not np.isfinite(a).all())
            raise ValueError(f"core {i} contains non-finite entries")
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
        """Contract the chain along one bitstring: a str of 0/1 or a
        sequence of ints (a bool, float or other character is a ValueError)."""
        b = [x if isinstance(x, str) else _as_int(x, "bits") for x in bits]
        if len(b) != self.n_sites:
            raise ValueError(f"expected {self.n_sites} bits, got {len(b)}")
        if any(x not in (0, 1, "0", "1") for x in b):
            raise ValueError("bits must be 0 or 1")
        v = np.ones((1,))
        for core, s in zip(self.cores, b):
            v = v @ core[:, int(s), :]
        return float(v[0])

    def to_statevector(self) -> np.ndarray:
        """Dense big-endian 2^N vector of all amplitudes."""
        _check_dense(self.n_sites, "to_statevector")
        return _contract(self.cores).reshape(-1)

    def norm(self) -> float:
        """The 2-norm by the walk of ``overlap(self, self)``, its environment
        scaled at each site by the power of 4 that brings its largest entry
        to [1/2, 2): exact, so the unscaled walk's result wherever that is
        finite, and no overflow where the squared norm would overflow."""
        env, twos = np.ones((1, 1)), 0  # <self|self> is env * 4^twos
        for core in self.cores:
            env = _env_step(env, core, core)
            k = math.frexp(float(np.abs(env).max()))[1] // 2
            env, twos = np.ldexp(env, -2 * k), twos + k
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.sqrt(max(float(env[0, 0]), 0.0)), twos))

    def normalize(self) -> "Mps":
        """Rescale core 0 to unit 2-norm, which keeps right-canonical form."""
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
        if form == "left":
            return Mps(_left_sweep(list(self.cores), _qr_signed))
        return Mps(_mirror(_left_sweep(_mirror(self.cores), _qr_signed)))

    def __repr__(self) -> str:
        return f"Mps(n_sites={self.n_sites}, max_bond={self.max_bond})"


@dataclass(frozen=True)
class CompressionOptions:
    """Settings for variational fixed-rank compression.

    ``convergence_tol`` is the relative change in overlap with the target
    between consecutive sweeps below which the iteration stops. Sweeps
    start from the truncated-SVD rounding of the input, which counts as
    sweep 0, so a converged start costs one sweep.
    """

    target_chi: int = 2
    max_sweeps: int = 50
    convergence_tol: float = 1e-10

    def __post_init__(self):
        _int_field(self, "target_chi")
        _int_field(self, "max_sweeps")
        if self.target_chi < 1:
            raise ValueError("target_chi must be >= 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        _real_field(self, "convergence_tol")
        if not self.convergence_tol > 0:  # NaN fails too
            raise ValueError(f"convergence_tol must be > 0, got {self.convergence_tol}")


def to_mps_exact(v, max_rank: int | None = None) -> Mps:
    """Factor a dense vector into an MPS by successive truncated SVDs.

    Each bond is the cut's numerical rank, capped at ``max_rank`` (see
    :func:`truncated_svd`). The squared dense-vector error is bounded by
    the sum of all squared omitted singular values across the sweep. The
    result is left-canonical.
    """
    _check_max_rank(max_rank)
    vec, n = _dense_vector(v)
    if not np.any(vec):
        raise ValueError("cannot factor the zero vector")
    _check_dense(n, "to_mps_exact")

    cores, c = [], vec.reshape(1, -1)
    for _ in range(n - 1):
        u, c = _svd_step(c.reshape(2 * len(c), -1), max_rank)
        cores.append(u.reshape(-1, 2, u.shape[1]))
    cores.append(c.reshape(-1, 2, 1))
    return Mps(cores)


def _svd_step(mat: np.ndarray, max_rank: int | None):
    """``(u, s vt)`` of ``mat`` cut as ``truncated_svd(mat, max_rank)`` cuts
    it; ``mat`` is a finite unfolding the sweep has just built."""
    u, s, vt, _ = _svd_cut(mat, max_rank)
    return u, s[:, None] * vt


def overlap(a: Mps, b: Mps) -> float:
    """Inner product <a|b> by left-to-right pairwise core contraction."""
    if a.n_sites != b.n_sites:
        raise ValueError(f"site count mismatch: {a.n_sites} vs {b.n_sites}")
    env = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        env = _env_step(env, ca, cb)
    return float(env[0, 0])


def tt_round(m: Mps, max_rank: int | None = None) -> Mps:
    """Cut each bond to its numerical rank, capped at ``max_rank``, by an
    SVD sweep.

    A left-canonicalizing QR pass makes each truncation of the right-to-left
    SVD sweep optimal for the whole state; the result is right-canonical.
    """
    _check_max_rank(max_rank)
    cores = _mirror(_left_sweep(list(m.cores), _qr_signed))
    return Mps(_mirror(_left_sweep(cores, lambda mat: _svd_step(mat, max_rank))))


def compress_als(m: Mps, opts: CompressionOptions) -> Mps:
    """Best fixed-rank approximation by alternating single-site updates.

    Only the head of the chain is compressed. The trailing run of cores
    whose two slices agree to ``PRODUCT_TOL`` (1e-16) of the core's
    largest entry is |+> on each of its t sites times one matrix; that
    matrix is folded into the last head core, and the result ends in t
    exact |+> cores. The overlap with a fixed unit product factorizes, so
    the best approximation of head (x) |+>^t is the best one of the head
    with |+>^t appended. Without such a run the head is the whole chain.
    An assembled state at k=3, p=3 has a 58-site head for every N >= 59,
    so a run whose first sweep converges makes 3 * 57 QR factorizations,
    the start's pass included. At ``target_chi`` <= 2 the sweeps' have
    at most two columns and take the closed form of
    :func:`~mpsprep.linalg._qr_signed`.

    Sweeps maximize the overlap with the input, taken in any gauge and
    unnormalized: the cached boundary environments are linear in it,
    sweep 0's overlap is taken with the start's core 0 scaled to unit
    norm, and each half sweep divides its end core by that core's norm,
    each norm from ``math.hypot``. So the input's norm is never squared:
    one of order 2^(N/2) (assembled states up to N = 1023), or a core
    scaled by 2^±1000, gives the compression of the unscaled input.
    Each local problem contracts the environments with one target core;
    a sweep costs O(head) contractions sized by the bond dimensions. The
    truncated-SVD start counts as sweep 0, so a converged start costs one
    sweep; it is right-canonical as ``tt_round`` leaves it. The result is
    normalized, right-canonical (``extract_circuit`` takes it as it
    stands), and never worse than that start. A zero input is rejected.
    """
    h, fold = _split_product_tail(m.cores)
    head = m
    if h < m.n_sites:
        last = m.cores[h - 1]
        folded = (last.reshape(-1, last.shape[2]) @ fold).reshape(len(last), 2, 1)
        head = Mps(m.cores[: h - 1] + (folded,))
    plus = np.full((1, 2, 1), np.sqrt(0.5))
    return Mps(_compress_head(head, opts) + [plus] * (m.n_sites - h))


def _compress_head(m: Mps, opts: CompressionOptions) -> list[np.ndarray]:
    """The compressed cores of ``m``, every site swept: :func:`compress_als`
    once the tail is set aside."""
    start = tt_round(m, opts.target_chi)
    if not np.any(start.cores[0]):
        raise ValueError("cannot compress the zero state")

    # env[j] is the environment at bond j; the initial right environments
    # are left ones of the mirrored chain.
    work, target = _mirror(start.cores), _mirror(m.cores)
    env = [np.ones((1, 1))] * (m.n_sites + 1)
    for i in range(m.n_sites - 1):
        env[i + 1] = _env_step(env[i], work[i], target[i])
    # Sweep 0 is the start itself: |<start|m>| over its norm, core 0's,
    # taken with core 0 scaled to unit norm first.
    ovl = abs(_env_step(env[-2], work[-1] / _norm(work[-1]), target[-1])[0, 0])
    for _ in range(opts.max_sweeps):
        for _half in ("left to right", "right to left"):
            work, target, env = _mirror(work), _mirror(target), env[::-1]
            nrm = _als_half_sweep(work, target, env)
        prev, ovl = ovl, nrm
        if abs(ovl - prev) <= opts.convergence_tol * ovl:  # a norm, > 0
            break
    return _mirror(work)


def _split_product_tail(cores) -> tuple[int, np.ndarray]:
    """``(h, fold)``: cores h.. (h >= 1) are the longest trailing run whose
    two slices agree to ``PRODUCT_TOL`` of the core's largest entry, and
    ``fold`` (bond h, 1) is the product of their slice means, so the chain
    is cores[:h] @ fold times |+>^(N-h) up to a factor 2^((N-h)/2).

    The slices are compared, and the means multiplied, over stacks of
    cores that share a shape, not core by core.
    """
    h, fold = len(cores), np.ones((1, 1))
    while h > 1:
        lo = h - 1
        while lo > 1 and cores[lo - 1].shape == cores[h - 1].shape:
            lo -= 1
        group = np.stack(cores[lo:h])  # (g, a, 2, b)
        s0, s1 = group[:, :, 0], group[:, :, 1]
        scale = np.abs(group).max(axis=(1, 2, 3))
        same = np.abs(s0 - s1).max(axis=(1, 2)) <= PRODUCT_TOL * scale
        differ = np.flatnonzero(~same)
        run = lo + (differ[-1] + 1 if differ.size else 0)
        if run < h:
            fold = _chain_product((s0 + s1)[run - lo :] / 2) @ fold
        if differ.size:
            return run, fold
        h = run
    return h, fold


def _chain_product(mats: np.ndarray) -> np.ndarray:
    """``mats[0] @ mats[1] @ ...`` by batched pairwise products."""
    while len(mats) > 1:
        even = len(mats) // 2 * 2
        mats = np.concatenate([mats[0:even:2] @ mats[1:even:2], mats[even:]])
    return mats[0]


def _contract(cores) -> np.ndarray:
    """Cores contracted in order into one (left bond * 2^len, right bond) matrix."""
    psi = cores[0]
    for core in cores[1:]:
        psi = psi.reshape(-1, len(core)) @ core.reshape(len(core), -1)
    return psi.reshape(-1, cores[-1].shape[2])


def _halves(m: Mps, h: int) -> tuple[np.ndarray, np.ndarray]:
    """``(head, tail)``, (2^h, bond) and (bond, 2^(N-h)) for 0 <= h <= N:
    the chain contracted on either side of bond h, so the state is head @ tail."""
    head = _contract(m.cores[:h]) if h > 0 else np.ones((1, 1))
    tail = _contract(m.cores[h:]) if h < m.n_sites else np.ones((1, 1))
    return head, tail.reshape(head.shape[1], -1)


def _mirror(cores) -> list[np.ndarray]:
    """The chain read from its other end (see the module docstring)."""
    return [c.transpose(2, 1, 0) for c in reversed(cores)]


def _left_sweep(cores: list[np.ndarray], factor) -> list[np.ndarray]:
    """Replace each core but the last by ``q`` of ``factor(unfolding) ->
    (q, carry)`` and absorb ``carry`` into the next core, in place."""
    for i in range(len(cores) - 1):
        al, _, ar = cores[i].shape
        q, carry = factor(cores[i].reshape(al * 2, ar))
        cores[i] = q.reshape(al, 2, q.shape[1])
        nxt = cores[i + 1]
        cores[i + 1] = (carry @ nxt.reshape(len(nxt), -1)).reshape(len(carry), 2, -1)
    return cores


def _env_step(env: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Extend a ``(a bond, b bond)`` environment by one pair of cores."""
    tmp = (env.T @ a.reshape(len(a), -1)).reshape(-1, a.shape[2])  # (b s, c)
    return tmp.T @ b.reshape(-1, b.shape[2])  # (c, d)


def _env_target(env: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A ``(a bond, t bond)`` environment contracted with target core ``t``
    into an (a * 2, right bond of t) matrix."""
    return (env @ t.reshape(len(t), -1)).reshape(-1, t.shape[2])


def _norm(a: np.ndarray) -> float:
    """The 2-norm of ``a`` by ``math.hypot``, so no square overflows or
    underflows."""
    return math.hypot(*a.ravel().tolist())


def _als_half_sweep(work: list, target: list, env: list) -> float:
    """Left-to-right ALS half sweep over right-canonical ``work``; each
    ``env[j]`` turns from right to left environment as the sweep passes.
    At each site the left environment times the target core, ``lt``, gives
    both the best core, ``lt`` times the right environment, and, once that
    core is replaced by its QR isometry q, the next left environment
    q^T @ ``lt``: three products per site. Updates in place; returns the
    end core's norm before it is scaled to 1."""
    n = len(work)
    for i in range(n - 1):
        lt = _env_target(env[i], target[i])
        q, _ = _qr_signed(lt @ env[i + 1].T)  # of the best core given both sides
        work[i] = q.reshape(len(env[i]), 2, q.shape[1])
        env[i + 1] = q.T @ lt
    b = _env_target(env[n - 1], target[n - 1]) @ env[n].T
    nrm = _norm(b)
    if nrm == 0.0:
        raise ValueError("target is orthogonal to the compression ansatz")
    work[n - 1] = (b / nrm).reshape(len(env[n - 1]), 2, -1)
    return nrm


def unfolding_spectra(v) -> list[np.ndarray]:
    """Singular spectra of all N-1 big-endian matrix reshapings of a vector."""
    vec, n = _dense_vector(v)
    return [
        np.linalg.svd(vec.reshape(2**j, -1), compute_uv=False) for j in range(1, n)
    ]


def bipartite_vne(spectrum) -> float:
    """Von Neumann entropy of a Schmidt spectrum (natural log).

    The squared singular values are normalized to a probability vector
    internally, after scaling by the largest one so that no square
    overflows or underflows; zero weights contribute nothing.
    """
    s = np.asarray(spectrum, dtype=float)
    if not np.all(np.isfinite(s) & (s >= 0.0)):
        raise ValueError("singular values must be finite and non-negative")
    if not np.any(s):
        raise ValueError("spectrum has no weight")
    lam = (s / s.max()) ** 2
    lam /= lam.sum()
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))
