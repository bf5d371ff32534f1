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
from fractions import Fraction
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
_BLOCK = 2**16  # grid points per block of target_amplitudes
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
    """Uniform discretization of [a, b] into 2^N points, endpoints included."""

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
        # Exact rational test: 2^N - 1 overflows a float from N = 1024 on.
        if Fraction(self.width) < Fraction(_TINY) * self.n_intervals:
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
    def n_intervals(self) -> int:
        return self.size - 1

    @property
    def spacing(self) -> float:
        return self.width / self.n_intervals

    def points(self) -> np.ndarray:
        _check_dense(self.n_qubits, "Grid.points")
        return np.linspace(self.a, self.b, self.size)


def pdf(spec: DistributionSpec, x):
    """Evaluate the density at x (scalar or array)."""
    xs = np.asarray(x, dtype=float)
    mu, sigma = spec.mu, spec.sigma
    if spec.kind == "gaussian":
        out = np.exp(-((xs - mu) ** 2) / (2 * sigma**2)) / (np.sqrt(2 * np.pi) * sigma)
    elif spec.kind == "lognormal":
        if np.any(xs <= 0):
            raise ValueError("lognormal density requires x > 0")
        g = np.exp(-((np.log(xs) - mu) ** 2) / (2 * sigma**2)) / (
            np.sqrt(2 * np.pi) * sigma
        )
        out = g / xs
    elif spec.kind == "lorentzian":
        out = (sigma / np.pi) / ((xs - mu) ** 2 + sigma**2)
    else:
        out = np.asarray(spec.pdf_fn(xs), dtype=float)
    return out if out.ndim else float(out)


def pdf_derivative(spec: DistributionSpec, x):
    """Closed-form density derivative for the built-ins (array friendly)."""
    xs = np.asarray(x, dtype=float)
    mu, sigma = spec.mu, spec.sigma
    if spec.kind == "gaussian":
        out = -pdf(spec, xs) * (xs - mu) / sigma**2
    elif spec.kind == "lognormal":
        if np.any(xs <= 0):
            raise ValueError("lognormal density requires x > 0")
        g = np.exp(-((np.log(xs) - mu) ** 2) / (2 * sigma**2)) / (
            np.sqrt(2 * np.pi) * sigma
        )
        out = -g * (1.0 + (np.log(xs) - mu) / sigma**2) / xs**2
    elif spec.kind == "lorentzian":
        out = -(2 * sigma / np.pi) * (xs - mu) / ((xs - mu) ** 2 + sigma**2) ** 2
    else:
        raise ValueError("no closed-form derivative for custom distributions")
    return out if out.ndim else float(out)


def _sqrt_density(spec: DistributionSpec, xs: np.ndarray) -> np.ndarray:
    """sqrt(pdf) at xs; a negative, infinite or NaN density is an error naming x."""
    vals = np.asarray(pdf(spec, xs), dtype=float)
    bad = ~((vals >= 0) & (vals < np.inf))
    if np.any(bad):
        i = int(np.argmax(bad))
        v, x = vals.flat[i], xs.flat[i]
        raise ValueError(
            f"density {spec.kind!r} is {'negative' if v < 0 else v} at x={x:g}"
        )
    return np.sqrt(vals)


def target_amplitudes(spec: DistributionSpec, n_qubits: int) -> np.ndarray:
    """Exact normalized amplitude vector: sqrt(pdf) on the grid, unit norm.

    Made block by block, with grid points as ``np.linspace`` makes them.
    """
    _check_dense(n_qubits, "target_amplitudes")
    grid = Grid.for_spec(spec, n_qubits)
    out = np.empty(grid.size)
    for lo in range(0, grid.size, _BLOCK):
        xs = np.arange(lo, min(lo + _BLOCK, grid.size)) * grid.spacing + grid.a
        if lo + xs.size == grid.size:
            xs[-1] = grid.b
        out[lo : lo + xs.size] = _sqrt_density(spec, xs)
    nrm = np.linalg.norm(out)
    if nrm == 0.0:
        raise ValueError("density vanishes on the entire grid")
    out /= nrm
    return out


def _block(n_qubits: int, support_bit: int) -> int:
    """Grid points per region, 2^(N-k), for a valid support bit k."""
    support_bit = _as_int(support_bit, "support_bit")
    if not 0 <= support_bit < n_qubits:
        raise ValueError(f"support_bit must be in [0, {n_qubits}), got {support_bit}")
    return 2 ** (n_qubits - support_bit)


@dataclass(frozen=True)
class PiecewisePoly:
    """Independent degree-p fits of the amplitude, one per bit-prefix region.

    Coefficients are lowest-degree first in the region coordinate
    v = 2 (x - x_start) / span - 1, span being the region's first-to-last
    grid distance: v runs over -1, -1 + 2/(block-1), ..., 1 in every
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

    Every region is sampled at the same ``samples_per_region`` values of
    u = linspace(0, 1), i.e. at x = x_start + u * span, and the samples
    are divided by the largest one. All regions are then fit in one
    least-squares solve for the powers of v = 2u - 1, one right-hand side
    per region. Regions are fit independently and may be discontinuous at
    the seams.
    """
    degree = _as_int(degree, "degree")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if _as_int(samples_per_region, "samples_per_region") < degree + 1:
        raise ValueError(
            f"need at least degree+1={degree + 1} samples per region, "
            f"got {samples_per_region}"
        )
    block = _block(grid.n_qubits, support_bit)
    # Region starts in Python scalars: an int64 grid index overflows from N = 64.
    firsts = range(0, grid.size, block)
    starts = np.array([grid.a + i * grid.width / grid.n_intervals for i in firsts])
    span = (block - 1) * grid.spacing
    us = np.linspace(0.0, 1.0, samples_per_region)
    ys = _sqrt_density(spec, starts[:, None] + us * span)
    peak = ys.max()
    if peak == 0.0:
        raise ValueError("density vanishes on every fit sample")
    design = np.polynomial.polynomial.polyvander(2.0 * us - 1.0, degree)
    coeffs = np.linalg.lstsq(design, (ys / peak).T, rcond=None)[0]
    return PiecewisePoly(support_bit, degree, tuple(map(tuple, coeffs.T)))


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
    tau_j = 2^(N-1-j) / (block-1) with block = 2^(N-k); the tau_j sum to 1,
    so v spans [-1, 1] and the fit's coefficients enter unchanged. The
    result is the fit itself, read by the verify stage for the fit error.
    It is not normalized; normalization happens once, before gate
    extraction.
    """
    k, n, width = pp.support_bit, grid.n_qubits, pp.degree + 1
    block = _block(n, k)
    coeffs = np.array(pp.regions, dtype=float)
    taus = 2.0 ** np.arange(n - 1 - k, -1, -1) / (block - 1)
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
