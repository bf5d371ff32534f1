"""Target amplitude functions and their MPS encodings.

A :class:`DistributionSpec` names a probability density on an interval;
the amplitude to prepare is the square root of that density sampled on a
uniform 2^N-point grid and normalized. The grid is split into 2^k
regions addressed by the leading k bits, and each region gets an
independent least-squares polynomial fit of the amplitude, divided by
its largest fit sample, in the region coordinate v = 2 (x - x_start) /
span - 1 in [-1, 1], so neither the domain's position nor its scale
reaches the coefficients. No other module knows this coordinate.

The piecewise polynomial is encoded as one MPS directly: the first k
sites route the region's bit prefix to that region's coefficients, and
the remaining sites are binomial-transfer cores that expand powers of v
bit by bit. The transfer cores are shared by all regions, so every bond
past cut k is at most degree+1, the TT rank of a degree-p polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import _as_int, _as_real, _int_field, _real_field
from .mps import Mps, _check_dense

__all__ = [
    "DistributionSpec",
    "Grid",
    "PiecewisePoly",
    "pdf",
    "pdf_derivative",
    "target_amplitudes",
    "fit_piecewise",
    "poly_mps",
    "assemble",
]

_KINDS = ("gaussian", "lognormal", "lorentzian", "custom")
_TINY = float(np.finfo(float).tiny)
_BLOCK = 2**16  # grid points per block of the target
_SAMPLES_PER_REGION = 64  # the fit's default, also RunConfig's


@dataclass(frozen=True)
class DistributionSpec:
    """A target density: one of the built-in families or a custom callable.

    ``domain`` is the closed interval the state discretizes. A lognormal
    whose lower bound is exactly 0 is pinned at construction to start at
    2.5 percent of the domain width: enough to clear the singularity and
    the vanishing left tail at any grid resolution, and independent of
    the qubit count so targets are comparable across system sizes.
    ``mu``, ``sigma`` and the two bounds are stored as floats; a bool,
    str or other non-real value is a ValueError that names the field.
    """

    kind: str
    mu: float = 0.0
    sigma: float = 1.0
    domain: tuple[float, float] = (0.0, 1.0)
    pdf_fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        try:
            a, b = self.domain
        except (TypeError, ValueError):
            msg = f"domain must be a pair (a, b), got {self.domain!r}"
            raise ValueError(msg) from None
        a, b = _as_real(a, "domain bound"), _as_real(b, "domain bound")
        if not (a < b):
            raise ValueError(f"domain must satisfy a < b, got {self.domain}")
        _real_field(self, "mu")
        _real_field(self, "sigma")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not math.isfinite(self.sigma) or (self.kind != "custom" and self.sigma <= 0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.kind == "custom" and self.pdf_fn is None:
            raise ValueError("custom distributions need a pdf_fn")
        if self.kind == "lognormal" and a < 0:
            raise ValueError("lognormal support starts at 0; domain must not")
        if self.kind == "lognormal" and a == 0.0:
            a = (b - a) / 40.0
        object.__setattr__(self, "domain", (a, b))


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of [a, b] into 2^N points, endpoints included.

    The spacing width / (2^N - 1) is formed as 2^-N width / (1 - 2^-N), so
    its floor, checked here, is the only limit on N.
    """

    n_qubits: int
    a: float
    b: float

    def __post_init__(self):
        _int_field(self, "n_qubits")
        _real_field(self, "a")
        _real_field(self, "b")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if not (self.a < self.b):
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not math.isfinite(self.width):
            raise ValueError(f"domain width {self.width} is not finite")
        # width / (2^N - 1) < _TINY = 2^-1022, exactly: 2^N - 1 overflows a float.
        p, q = self.width.as_integer_ratio()
        if p << 1022 < (self.size - 1) * q:
            raise ValueError(
                f"{self.n_qubits} qubits on a domain of width {self.width:g} give a "
                f"grid spacing below the smallest normal float ({_TINY:.3g})"
            )

    @classmethod
    def for_spec(cls, spec: DistributionSpec, n_qubits: int) -> "Grid":
        return cls(n_qubits, *spec.domain)

    @property
    def size(self) -> int:
        return 2**self.n_qubits

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def spacing(self) -> float:
        n = self.n_qubits
        return math.ldexp(self.width, -n) / (1 - math.ldexp(1.0, -n))

    def points(self) -> np.ndarray:
        _check_dense(self.n_qubits, "Grid.points")
        return np.linspace(self.a, self.b, self.size)


def _ln_x(xs: np.ndarray) -> np.ndarray:
    """ln x for the lognormal, which requires x > 0."""
    if np.any(xs <= 0):
        raise ValueError("lognormal density requires x > 0")
    return np.log(xs)


def _z(
    spec: DistributionSpec, xs: np.ndarray, ln_x: np.ndarray | None = None
) -> np.ndarray:
    """(x - mu) / sigma for a built-in density; the lognormal's is
    (ln x - mu) / sigma, from ``ln_x`` when the caller has taken it."""
    if spec.kind == "lognormal":
        xs = _ln_x(xs) if ln_x is None else ln_x
    z = xs - spec.mu
    z /= spec.sigma
    return z


def pdf(spec: DistributionSpec, x):
    """Evaluate the density at x (scalar or array); a built-in in z, never sigma^2.

    Where z^2 overflows, the Gaussian and lognormal are 0 and the Lorentzian
    is its tail c/|z|/|z|, with no warning; where z overflows, all are 0.
    """
    xs = np.asarray(x, dtype=float)
    if spec.kind == "custom":
        out = np.asarray(spec.pdf_fn(xs), dtype=float)
    else:
        with np.errstate(over="ignore"):
            z = _z(spec, xs)
            if spec.kind == "lorentzian":
                h = np.hypot(1.0, z)  # sqrt(1 + z^2), and |z| where z^2 overflows
                out = (1 / math.pi / spec.sigma) / h / h
            else:
                out = np.exp(-0.5 * z**2) * (1 / math.sqrt(math.tau) / spec.sigma)
                if spec.kind == "lognormal":
                    out = out / xs
    return out if out.ndim else float(out)


def pdf_derivative(spec: DistributionSpec, x):
    """Closed-form density derivative for the built-ins: pdf times its log-slope.

    Where the density is 0 (z^2 overflowed, say), so is its derivative:
    a nonnegative density has its minimum there.
    """
    xs = np.asarray(x, dtype=float)
    if spec.kind == "custom":
        raise ValueError("no closed-form derivative for custom distributions")
    p = np.asarray(pdf(spec, xs))
    with np.errstate(over="ignore", invalid="ignore"):
        z = _z(spec, xs)
        if spec.kind == "lognormal":
            out = -p * (1.0 + z / spec.sigma) / xs
        else:
            slope = z if spec.kind == "gaussian" else 2.0 * z / (1.0 + z * z)
            out = -p * slope / spec.sigma
    out = np.where(p == 0.0, 0.0, out)
    return out if out.ndim else float(out)


def _sqrt_density(spec: DistributionSpec, xs: np.ndarray) -> np.ndarray:
    """sqrt(pdf) at xs, up to a constant for a built-in.

    A built-in is its shape in z, in place: exp(-z^2/4) for the Gaussian,
    1/sqrt(1 + z^2) for the Lorentzian and exp(-z^2/4 - ln(x)/2) for the
    lognormal; it is never negative or NaN. Where z^2 overflows, the
    Gaussian and lognormal are 0, and a block where the Lorentzian's z^2
    overflows anywhere is 1/hypot(1, z), its tail 1/|z| to rounding; the
    overflow is read off the floating-point flags, not by a pass over z.
    A custom density is ``pdf_fn``, broadcast to the shape of xs, and a
    negative, infinite or NaN value of it is an error naming x.
    """
    if spec.kind == "custom":
        vals = np.broadcast_to(np.asarray(pdf(spec, xs), dtype=float), xs.shape)
        bad = ~((vals >= 0) & (vals < np.inf))
        if np.any(bad):
            i = int(np.argmax(bad))
            v, x = vals.flat[i], xs.flat[i]
            raise ValueError(
                f"density {spec.kind!r} is {'negative' if v < 0 else v} at x={x:g}"
            )
        return np.sqrt(vals)
    ln_x = _ln_x(xs) if spec.kind == "lognormal" else None
    with np.errstate(over="ignore"):
        z = _z(spec, xs, ln_x)
        if spec.kind == "lorentzian":
            try:
                with np.errstate(over="raise"):
                    np.square(z, out=z)
            except FloatingPointError:
                return np.reciprocal(np.hypot(1.0, _z(spec, xs)))
            z += 1.0
            np.sqrt(z, out=z)
            return np.reciprocal(z, out=z)
        np.square(z, out=z)
        z *= -0.25
        if ln_x is not None:
            ln_x *= 0.5
            z -= ln_x
        return np.exp(z, out=z)


def _target_blocks(spec: DistributionSpec, n_qubits: int, row: int = 1):
    """The target's sqrt(pdf) on the grid, up to a constant for a built-in,
    as ``(lo, values)`` at grid indices lo, lo + 1, ...

    A block is as many whole rows of ``row`` points as fit in ``_BLOCK``,
    and at least one row. The points are ``np.linspace(a, b, 2^N)``'s,
    made as it makes them: ``arange(lo, hi) * spacing + a``, and ``b``
    last.
    """
    grid = Grid.for_spec(spec, n_qubits)
    step = max(_BLOCK // row, 1) * row
    for lo in range(0, grid.size, step):
        xs = np.arange(lo, min(lo + step, grid.size), dtype=float)
        xs *= grid.spacing
        xs += grid.a
        if lo + xs.size == grid.size:
            xs[-1] = grid.b
        yield lo, _sqrt_density(spec, xs)


def _unit_target(
    spec: DistributionSpec, n_qubits: int, tails: np.ndarray | None = None
) -> np.ndarray:
    """The unit-norm target: the 2^N vector, or given ``tails`` of shape
    (m, w) its (2^N / w, w) row view times ``tails.T``, with no 2^N vector.

    The target is read once, in blocks of whole rows, and divided by the
    blocks' summed squares. Where that sum overflows, or is below 2^N
    times the smallest normal float (squares flushed under the normal
    range may then move it by more than its rounding), the target is
    read again scaled by 2^-e, 2^(e-1) <= its largest value < 2^e, which
    moves no figure.
    """
    size = 2**n_qubits
    width = 1 if tails is None else tails.shape[1]
    shape = size if tails is None else (size // width, len(tails))

    def read(exponent: int) -> tuple[np.ndarray, float]:
        out, sq = np.empty(shape), 0.0
        with np.errstate(over="ignore"):  # an overflowed sum is read again
            for lo, ys in _target_blocks(spec, n_qubits, width):
                if exponent:
                    ys = np.ldexp(ys, -exponent)
                sq += ys @ ys
                rows = ys if tails is None else ys.reshape(-1, width) @ tails.T
                out[lo // width : lo // width + len(rows)] = rows
        return out, sq

    out, sq = read(0)
    if not size * _TINY <= sq < math.inf:
        top = max(float(np.max(ys)) for _, ys in _target_blocks(spec, n_qubits, width))
        if top == 0.0:
            raise ValueError("density vanishes on the entire grid")
        out, sq = read(math.frexp(top)[1])
    out /= np.sqrt(sq)
    return out


def target_amplitudes(spec: DistributionSpec, n_qubits: int) -> np.ndarray:
    """Exact normalized amplitude vector: sqrt(pdf) on the grid, unit norm.

    It is :func:`_unit_target`'s vector, the verify stage's read of the
    target, its norm and power-of-two rescale included.
    """
    _check_dense(n_qubits, "target_amplitudes")
    return _unit_target(spec, n_qubits)


def _support_bit(n_qubits: int, support_bit) -> int:
    """The support bit k, checked to be an int in [0, N)."""
    support_bit = _as_int(support_bit, "support_bit")
    if not 0 <= support_bit < n_qubits:
        raise ValueError(f"support_bit must be in [0, {n_qubits}), got {support_bit}")
    return support_bit


@dataclass(frozen=True)
class PiecewisePoly:
    """Independent degree-p fits of the amplitude, one per bit-prefix region.

    Coefficients are lowest-degree first in the region coordinate
    v = 2 (x - x_start) / span - 1, span being the region's first-to-last
    grid distance: v runs over -1, -1 + 2/(2^(N-k) - 1), ..., 1 in every
    region. No continuity is enforced at region boundaries.
    """

    support_bit: int
    degree: int
    regions: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for name in ("support_bit", "degree"):
            _int_field(self, name)
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if len(self.regions) != 2**self.support_bit:
            raise ValueError(
                f"expected {2**self.support_bit} regions, got {len(self.regions)}"
            )
        for coeffs in self.regions:
            if len(coeffs) != self.degree + 1:
                raise ValueError("every region needs degree+1 coefficients")


def fit_piecewise(
    spec: DistributionSpec,
    grid: Grid,
    support_bit: int,
    degree: int,
    samples_per_region: int = _SAMPLES_PER_REGION,
) -> PiecewisePoly:
    """Least-squares fit of sqrt(pdf) over each region separately.

    Region r starts at x_r = a + r 2^-k width / (1 - 2^-N) and spans
    (1 - 2^(k-N)) 2^(N-k) spacing, so no 2^N or grid index becomes a
    float. Every region is sampled at the same ``samples_per_region``
    values of u = linspace(0, 1), i.e. at x = x_r + u * span, and the
    samples are divided by the largest one. All regions are then fit in
    one least-squares solve for the powers of v = 2u - 1, one right-hand
    side per region. Regions are fit independently and may be
    discontinuous at the seams.
    """
    degree = _as_int(degree, "degree")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if _as_int(samples_per_region, "samples_per_region") < degree + 1:
        raise ValueError(
            f"need at least degree+1={degree + 1} samples per region, "
            f"got {samples_per_region}"
        )
    n, k = grid.n_qubits, _support_bit(grid.n_qubits, support_bit)
    step = math.ldexp(grid.width, -k)  # r * step first: rounds as i * width / (2^N - 1)
    starts = grid.a + np.arange(2**k) * step / (1 - math.ldexp(1.0, -n))
    span = (1 - math.ldexp(1.0, k - n)) * math.ldexp(grid.spacing, n - k)
    us = np.linspace(0.0, 1.0, samples_per_region)
    ys = _sqrt_density(spec, starts[:, None] + us * span)
    peak = ys.max()
    if peak == 0.0:
        raise ValueError("density vanishes on every fit sample")
    design = np.polynomial.polynomial.polyvander(2.0 * us - 1.0, degree)
    coeffs = np.linalg.lstsq(design, (ys / peak).T, rcond=None)[0]
    return PiecewisePoly(k, degree, tuple(map(tuple, coeffs.T)))


def _binomial_shift(tau, degree: int) -> np.ndarray:
    """M[..., d, e] = C(d, e) * tau^(d - e), zero above the diagonal.

    A row of coefficients c of a polynomial in tau + t times M gives the
    coefficients of the same polynomial in t. ``tau`` may be an array;
    its shape becomes the leading shape of the result.
    """
    d = np.arange(degree + 1)
    binom = np.array([[math.comb(i, j) for j in d] for i in d], dtype=float)
    powers = np.clip(d[:, None] - d[None, :], 0, None)
    return binom * np.asarray(tau, dtype=float)[..., None, None] ** powers


def poly_mps(coeffs, grid: Grid) -> Mps:
    """Encode a polynomial of the grid coordinate x as an MPS, exactly.

    ``coeffs`` are lowest-degree first in x. They are re-expanded about the
    domain midpoint, x = a + width / 2 * (1 + v), and encoded as one region
    by :func:`assemble`, so the bond dimension is at most degree+1.
    """
    a = np.asarray(coeffs, dtype=float).reshape(-1)
    if a.size == 0:
        raise ValueError("need at least one coefficient")
    half = grid.width / 2  # the midpoint as a + half: a + b may overflow
    local = a @ _binomial_shift(grid.a + half, a.size - 1) * half ** np.arange(a.size)
    return assemble(PiecewisePoly(0, a.size - 1, (tuple(local),)), grid)


def assemble(pp: PiecewisePoly, grid: Grid) -> Mps:
    """Encode the piecewise polynomial as one MPS, exactly.

    Sites 0..k-2 route the region's bit prefix (bond 2^(j+1)); site k-1
    emits each region's coefficients; sites k..N-1 carry the monomial
    basis of the region coordinate v through shared binomial-transfer
    cores of bond degree+1. Bit s of site j moves v by (2s - 1) * tau_j,
    tau_j = 2^(k-1-j) / (1 - 2^(k-N)); the tau_j sum to 1, so v spans
    [-1, 1] and the fit's coefficients enter unchanged. The
    result is the fit itself, read by the verify stage for the fit error.
    It is not normalized; normalization happens once, before gate
    extraction.
    """
    n, width = grid.n_qubits, pp.degree + 1
    k = _support_bit(n, pp.support_bit)
    coeffs = np.array(pp.regions, dtype=float)
    taus = np.ldexp(1.0, np.arange(-1, k - n - 1, -1)) / (1 - math.ldexp(1.0, k - n))
    shift = _binomial_shift(taus, pp.degree)
    # The shift by -tau flips the odd powers of tau: exact, and it spares
    # numpy's pow its slow path for negative bases.
    odd = np.subtract.outer(np.arange(width), np.arange(width)) % 2 == 1
    tail = np.stack([np.where(odd, -shift, shift), shift], axis=2)

    cores = [np.eye(2 ** (j + 1)).reshape(2**j, 2, 2 ** (j + 1)) for j in range(k - 1)]
    if k:
        cores.append(coeffs.reshape(2 ** (k - 1), 2, width))
        cores.extend(tail)
    else:
        cores.append(np.tensordot(coeffs, tail[0], axes=1))
        cores.extend(tail[1:])
    cores[-1] = cores[-1][:, :, :1]  # the offset past the last site is 0
    return Mps(cores)
