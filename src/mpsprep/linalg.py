"""Dense real linear algebra with fixed sign conventions.

Everything here operates on plain float64 ``numpy`` arrays. The MPS stages
use two deterministic factorizations: the SVD cut :func:`_svd_cut`, whose
left singular vectors have a positive first nonzero entry, and the reduced
QR of the MPS sweeps, whose R diagonal is non-negative. These conventions
make every downstream artifact (cores, gates, serialized circuits)
reproducible bit for bit.

The sweeps' QR factors a matrix of at most two columns, and no more
columns than rows, in closed form: Gram-Schmidt applied twice on Python
floats, each column divided first by its norm from ``math.hypot``, so no
square overflows or underflows. At full column rank the QR with a
positive R diagonal is unique, so this is LAPACK's Householder result up
to rounding, and the sign rule is unchanged; it skips LAPACK's per-call
overhead, which dominates at these sizes. A zero or numerically
dependent column, and every wider matrix, take the Householder path with
the same sign rule.

The rank rule lives in :func:`_svd_cut` alone: a cut keeps its
numerical rank, the values strictly above ``RANK_FLOOR`` of its largest,
optionally capped at a maximum rank. The floor is relative, so the
kept ranks do not change when the matrix is scaled. The MPS sweeps call
it on the matrices they have just built from checked cores, and their
public entry points check ``max_rank`` with :func:`_check_max_rank`.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

__all__ = ["SvdConvergenceError"]

_SIGN_EPS = 1e-12

# A singular value counts toward a cut's numerical rank only when it is
# strictly above this fraction of the cut's largest; the rest is round-off.
RANK_FLOOR = 1e-13

# An MPS core whose two slices differ by at most this fraction of its
# largest entry counts as a product with |+>: replacing both slices by
# their mean moves each slice by at most half of it, relative. Over
# a trailing run of up to 1023 such sites the errors add to ~1e-13, below
# RANK_FLOOR, so no cut sees them. An assembled state at k=3, p=3
# reaches this from site 58 on, where one bit moves the region
# coordinate by less than a float can resolve.
PRODUCT_TOL = 1e-16


def _as_int(value, name: str) -> int:
    """``value`` as a Python int; numpy integers are accepted, and a bool,
    float, str or any other type is a ValueError that names ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_real(value, name: str) -> float:
    """``value`` as a Python float; Python and numpy reals are accepted, and
    a bool, str, int beyond float range or any other type is a ValueError
    that names ``name``. Other range rules, NaN included, are the caller's."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        msg = f"{name} must fit a float, got a {value.bit_length()}-bit int"
        raise ValueError(msg) from None


def _int_field(obj, name: str) -> None:
    """Store field ``name`` of the frozen dataclass ``obj`` via ``_as_int``."""
    object.__setattr__(obj, name, _as_int(getattr(obj, name), name))


def _real_field(obj, name: str) -> None:
    """Store field ``name`` of the frozen dataclass ``obj`` via ``_as_real``."""
    object.__setattr__(obj, name, _as_real(getattr(obj, name), name))


class SvdConvergenceError(RuntimeError):
    """Raised when the iterative SVD solver exhausts its iteration budget."""

    def __init__(self, rows: int, cols: int):
        super().__init__(f"SVD failed to converge on a {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols


def _fix_svd_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # First nonzero entry of each left singular vector made positive,
    # compensated in the matching right singular vector.
    big = np.abs(u) > _SIGN_EPS
    first, cols = np.argmax(big, axis=0), np.arange(u.shape[1])
    sign = np.where(big[first, cols] & (u[first, cols] < 0), -1.0, 1.0)
    return u * sign, vt * sign[:, None]  # exact: flips signs only


def _raw_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    # gesvd is slower but converges on matrices that defeat gesdd. scipy is
    # imported on this rare path only, which keeps it out of package import.
    import scipy.linalg

    try:
        return scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(m.shape[0], m.shape[1]) from exc


def _check_max_rank(max_rank) -> None:
    """A rank cap is None (no cap) or an integer >= 1."""
    if max_rank is not None and _as_int(max_rank, "max_rank") < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")


def _svd_cut(m: np.ndarray, max_rank: int | None):
    """``(u, s, vt)``: the leading triplets of ``m``'s SVD whose value is
    strictly above ``RANK_FLOOR`` times the largest, at least one (a zero
    matrix keeps one null triplet, so shapes stay valid) and at most
    ``max_rank``. Left singular vectors have a positive first nonzero
    entry. ``m`` must be a finite 2-d float array and ``max_rank`` None
    or >= 1; neither is checked here."""
    u, s, vt = _raw_svd(m)
    keep = max(1, int(np.count_nonzero(s > RANK_FLOOR * s[0])))
    keep = keep if max_rank is None else min(keep, max_rank)
    u, vt = _fix_svd_signs(u[:, :keep], vt[:keep])
    return u, s[:keep], vt


def _qr_signed(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a finite 2-d ``m`` of any shape, R's diagonal
    non-negative: in closed form up to two columns (see the module
    docstring), else by LAPACK's Householder QR with its signs fixed."""
    rows, cols = m.shape
    if cols <= 2 and rows >= cols:
        qr = _gram_schmidt(m)
        if qr is not None:
            return qr
    q, r = np.linalg.qr(m, mode="reduced")
    sign = np.where(np.diagonal(r) < 0, -1.0, 1.0)  # exact: flips signs only
    return q * sign, r * sign[:, None]


def _gram_schmidt(m: np.ndarray):
    """``(q, r)`` of a (rows, 1 or 2) ``m``, rows >= columns, by Gram-Schmidt
    applied twice on Python floats, R's diagonal positive; None where a
    column is zero or its norm overflows, or where the second column's part
    off the first is at most ``RANK_FLOOR`` of its norm. Each column is
    divided by its norm first, so no step leaves the normal floats and the
    result scales exactly with a column's power-of-two scale."""
    a, *rest = m.T.tolist()  # the columns
    ra = math.hypot(*a)
    if not 0.0 < ra < math.inf:
        return None
    qa = [x / ra for x in a]
    if not rest:
        return np.array(qa)[:, None], np.array([[ra]])
    rb = math.hypot(*rest[0])
    if not 0.0 < rb < math.inf:
        return None
    b = [y / rb for y in rest[0]]
    c = math.fsum(map(mul, qa, b))
    v = [y - c * x for x, y in zip(qa, b)]
    d = math.fsum(map(mul, qa, v))
    v = [y - d * x for x, y in zip(qa, v)]
    rv = math.hypot(*v)
    if not rv > RANK_FLOOR:
        return None
    q = np.array([[x, y / rv] for x, y in zip(qa, v)])
    return q, np.array([[ra, (c + d) * rb], [0.0, rv * rb]])
