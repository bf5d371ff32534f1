"""Spectral decay regression and rank-2 accuracy estimation.

Schmidt spectra of smooth amplitude vectors decay near-exponentially at
every cut. Fitting sigma_k = alpha * exp(-beta * k) (k counted from 1)
per cut and jointly over all cuts gives a decay rate beta. Summing the
model geometrically gives a closed-form estimate of the normalized
squared error of a rank-chi truncation. It is an estimate, not a bound:
at N=12 the measured rank-2 truncation weight exceeds it 12 to 13,000
times over the built-in families (ROADMAP item 11). A decay rate of
ln(100)/(2*chi) marks the 99 percent accuracy threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .functions import DistributionSpec, Grid, pdf, pdf_derivative
from .linalg import RANK_FLOOR, _as_int
from .mps import _check_dense

__all__ = [
    "DecayFit",
    "fit_decay",
    "chi_bound",
    "max_derivative",
]

@dataclass(frozen=True)
class DecayFit:
    """Exponential decay parameters per cut and pooled over all cuts.

    ``per_cut[j]`` is an (alpha, beta) pair, or None when that cut kept
    fewer than two values above the noise floor. ``joint`` pools every
    usable (k, log sigma) point with equal weight; ``r_squared`` is the
    pooled fit's coefficient of determination.
    """

    per_cut: tuple[tuple[float, float] | None, ...]
    joint: tuple[float, float]
    r_squared: float

    @property
    def beta(self) -> float:
        return self.joint[1]


def _loglinear(ks: np.ndarray, logs: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(ks, logs, 1)
    return float(np.exp(intercept)), float(-slope)


def fit_decay(spectra) -> DecayFit:
    """Fit the exponential decay model to singular spectra.

    Only values above ``RANK_FLOOR`` of each cut's largest, the cut's
    numerical rank, enter the fit. Cuts left with fewer than two points
    are skipped with a warning; if every cut is skipped this raises.
    """
    per_cut = []
    all_ks: list[np.ndarray] = []
    all_logs: list[np.ndarray] = []
    for j, spectrum in enumerate(spectra):
        s = np.asarray(spectrum, dtype=float)
        if s.size == 0 or s[0] <= 0.0:
            warnings.warn(f"cut {j}: empty or zero spectrum, skipped")
            per_cut.append(None)
            continue
        keep = s > RANK_FLOOR * s[0]
        ks = np.arange(1, s.size + 1, dtype=float)[keep]
        vals = s[keep]
        if ks.size < 2:
            warnings.warn(f"cut {j}: fewer than 2 usable singular values, skipped")
            per_cut.append(None)
            continue
        logs = np.log(vals)
        per_cut.append(_loglinear(ks, logs))
        all_ks.append(ks)
        all_logs.append(logs)
    if not all_ks:
        raise ValueError("no cut kept enough singular values to fit")
    ks = np.concatenate(all_ks)
    logs = np.concatenate(all_logs)
    alpha, beta = _loglinear(ks, logs)
    predicted = np.log(alpha) - beta * ks
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(per_cut=tuple(per_cut), joint=(alpha, beta), r_squared=r2)


def _log_sinh(x: float) -> float:
    # log(sinh(x)) for x > 0 without overflow.
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def _check_chi(chi, n: int) -> None:
    """The rule for :func:`chi_bound`'s rank and chain length."""
    if _as_int(chi, "chi") < 0 or n < 1:
        raise ValueError("need chi >= 0 and n >= 1")


def chi_bound(beta: float, chi: int, n: int) -> float:
    """The decay model's estimate of a rank-chi truncation's squared error.

    Summing the decay model geometrically over singular values k = chi+1
    .. N against the total over k = 1 .. N gives the normalized estimate

        exp(-beta*chi) * sinh(beta*(N-chi)) / sinh(beta*N)

    which is ~exp(-2*beta*chi) for moderate beta*N. It equals 1 at
    chi = 0, vanishes at chi >= N, and decreases monotonically in both
    beta and chi. It is not a bound: measured truncation weights exceed
    it (ROADMAP item 11).
    """
    if not beta > 0:  # NaN fails too
        raise ValueError(f"beta must be > 0, got {beta}")
    _check_chi(chi, n)
    if chi >= n:
        return 0.0
    if chi == 0:
        return 1.0
    log_bound = -beta * chi + _log_sinh(beta * (n - chi)) - _log_sinh(beta * n)
    return math.exp(log_bound)


def max_derivative(spec: DistributionSpec, n_qubits: int) -> float:
    """Largest |pdf'| over the grid; closed form for the built-in families.

    Custom densities fall back to central differences at grid resolution.
    """
    _check_dense(n_qubits, "max_derivative")
    grid = Grid.for_spec(spec, n_qubits)
    xs = grid.points()
    if spec.kind == "custom":
        derivs = np.gradient(np.asarray(pdf(spec, xs), dtype=float), xs)
    else:
        derivs = np.asarray(pdf_derivative(spec, xs), dtype=float)
    return float(np.max(np.abs(derivs)))
