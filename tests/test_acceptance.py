"""Acceptance gate: every shipping criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Thresholds are hard bounds, pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from mpsprep import (
    CompressionOptions,
    DistributionSpec,
    Grid,
    RunConfig,
    bipartite_vne,
    chi_bound,
    compress_als,
    encode,
    extract_circuit,
    fidelity,
    fit_decay,
    max_derivative,
    oracle_compare,
    poly_mps,
    run,
    sweep_degree,
    target_amplitudes,
    to_mps_exact,
    unfolding_spectra,
)

from conftest import random_mps

GAUSS = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
LOGNORMAL = DistributionSpec("lognormal", mu=1.0, sigma=1.0, domain=(0.0, 5.0))
LORENTZ = DistributionSpec("lorentzian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
ALL_SPECS = (GAUSS, LOGNORMAL, LORENTZ)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def _resigma(spec, sigma):
    from dataclasses import replace

    return replace(spec, sigma=sigma)


def test_criterion_01_lossless_pipeline():
    """Squares of degree<=1 polynomials encode with fidelity 1 - 1e-8."""
    worst = 1.0
    slowest = 0.0
    for n in range(4, 13):
        for coeffs in ((1.0, 0.5), (2.0, 0.0)):
            c0, c1 = coeffs
            spec = DistributionSpec(
                "custom",
                domain=(0.0, 2.0),
                pdf_fn=lambda x, c0=c0, c1=c1: (c0 + c1 * np.asarray(x)) ** 2,
            )
            cfg = RunConfig(spec=spec, n_qubits=n, support_bit=0, degree=1)
            t0 = time.perf_counter()
            _, report = encode(cfg)
            slowest = max(slowest, time.perf_counter() - t0)
            worst = min(worst, report.fidelity)
    _report(1, worst >= 1.0 - 1e-8 and slowest < 1.0,
            f"min fidelity {worst:.3e}, slowest case {slowest:.2f}s")


def test_criterion_02_polynomial_mps_exactness():
    """200 random polynomials contract to their direct evaluation."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(0, 6))
        n = int(rng.integers(1, 11))
        a = float(rng.uniform(-2.0, 0.5))
        b = float(rng.uniform(a + 0.5, a + 4.0))
        coeffs = rng.uniform(-1.0, 1.0, size=p + 1)
        grid = Grid(n, a, b)
        got = poly_mps(coeffs, grid).to_statevector()
        want = np.polynomial.polynomial.polyval(grid.points(), coeffs)
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    _report(2, worst <= 1e-11, f"max relative deviation {worst:.3e}")


def test_criterion_03_tt_svd_roundtrip_and_bound():
    """Exact factorization roundtrips; truncation meets the spectra bound."""
    rng = np.random.default_rng(3)
    worst_rt = 0.0
    worst_excess = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 13))
        v = rng.standard_normal(2**n)
        v /= np.linalg.norm(v)
        worst_rt = max(
            worst_rt, float(np.max(np.abs(to_mps_exact(v).to_statevector() - v)))
        )
        chi = int(rng.integers(1, 5))
        m = to_mps_exact(v, chi)
        err2 = float(np.sum((m.to_statevector() - v) ** 2))
        bound = sum(float(np.sum(s[chi:] ** 2)) for s in unfolding_spectra(v))
        worst_excess = max(worst_excess, err2 - bound)
    ok = worst_rt <= 1e-12 and worst_excess <= 1e-10
    _report(3, ok, f"roundtrip {worst_rt:.2e}, bound excess {worst_excess:.2e}")


def test_criterion_04_gate_extraction_exactness():
    """100 random normalized rank-2 states extract to exact circuits."""
    rng = np.random.default_rng(4)
    worst_fid = 1.0
    worst_dev = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = random_mps(n, 2, rng).normalize()
        circuit = extract_circuit(m)
        worst_fid = min(worst_fid, fidelity(run(circuit), m.to_statevector()))
        worst_dev = max(
            worst_dev, max(g.orthogonality_deviation() for g in circuit.gates)
        )
    ok = worst_fid >= 1.0 - 1e-8 and worst_dev <= 1e-10
    _report(4, ok, f"min fidelity 1-{1 - worst_fid:.2e}, max gate dev {worst_dev:.2e}")


def test_criterion_05_sigma_sweep_thresholds():
    """0.999 everywhere at sigma >= 0.44; 0.99 at sigma = 0.1."""
    t0 = time.perf_counter()
    floor_high = 1.0
    floor_low = 1.0
    for spec in ALL_SPECS:
        for n in range(5, 11):
            for sigma in (0.44, 0.6, 0.8, 1.0):
                cfg = RunConfig(spec=_resigma(spec, sigma), n_qubits=n)
                _, report = encode(cfg)
                floor_high = min(floor_high, report.fidelity)
            cfg = RunConfig(spec=_resigma(spec, 0.1), n_qubits=n)
            _, report = encode(cfg)
            floor_low = min(floor_low, report.fidelity)
    elapsed = time.perf_counter() - t0
    ok = floor_high >= 0.999 and floor_low >= 0.99 and elapsed < 300
    _report(
        5, ok,
        f"min fidelity {floor_high:.6f} at sigma>=0.44, "
        f"{floor_low:.6f} at sigma=0.1, sweep {elapsed:.1f}s",
    )


def test_criterion_06_degree_study():
    """Cubic >= 0.99; degree-5 per-family floors; monotone in degree."""
    floors = {"gaussian": 0.998, "lognormal": 0.9991, "lorentzian": 0.9995}
    ok = True
    details = []
    for spec in ALL_SPECS:
        cfg = RunConfig(spec=_resigma(spec, 0.1), n_qubits=7)
        rows = sweep_degree(cfg, [1, 2, 3, 4, 5])
        fids = [r.fidelity for r in rows]
        monotone = all(b >= a - 1e-6 for a, b in zip(fids, fids[1:]))
        cubic_ok = fids[2] >= 0.99
        deg5_ok = fids[4] >= floors[spec.kind] - 0.002
        ok = ok and monotone and cubic_ok and deg5_ok
        details.append(f"{spec.kind}: cubic {fids[2]:.5f}, deg5 {fids[4]:.5f}")
    _report(6, ok, "; ".join(details))


def test_criterion_07_error_share_ordering():
    """Compression dominates everywhere; lognormal has the largest fit share."""
    from mpsprep import build_pipeline, error_decomposition

    shares = {}
    for spec in ALL_SPECS:
        dec = error_decomposition(build_pipeline(_resigma(spec, 0.1), 7))
        shares[spec.kind] = dec.shares
    compression_dominates = all(
        s["mps"] > s["pp"] and s["mps"] > s["gate"] for s in shares.values()
    )
    lognormal_largest_fit_share = (
        shares["lognormal"]["pp"] > shares["gaussian"]["pp"]
        and shares["lognormal"]["pp"] > shares["lorentzian"]["pp"]
    )
    detail = (
        "pp shares: "
        + ", ".join(f"{k} {v['pp']:.4f}" for k, v in shares.items())
        + f"; compression dominates: {compression_dominates}"
    )
    # Known red: the lorentzian peak flanks resist cubic fits, so its fit
    # share (~0.09) exceeds the lognormal's (~0.003) in this construction.
    _report(7, compression_dominates and lognormal_largest_fit_share, detail)


def test_criterion_08_spectral_threshold():
    """Pooled decay rate clears 1.152 and predicts 99% rank-2 accuracy."""
    fit = fit_decay(unfolding_spectra(target_amplitudes(GAUSS, 12)))
    bound = chi_bound(fit.beta, 2, 12)
    rng = np.random.default_rng(8)
    recovered = True
    for _ in range(10):
        alpha = float(rng.uniform(0.5, 5.0))
        beta = float(rng.uniform(0.3, 3.0))
        got = fit_decay([alpha * np.exp(-beta * np.arange(1, 12))])
        recovered = recovered and abs(got.beta - beta) <= 1e-6 * max(1, beta)
        recovered = recovered and abs(got.joint[0] - alpha) <= 1e-6 * alpha
    ok = fit.beta >= 1.152 and bound <= 0.01 and recovered
    _report(8, ok, f"beta {fit.beta:.3f}, bound {bound:.2e}, synthetic recovery {recovered}")


def test_criterion_09_squeezing_trends():
    """Decay rate falls and peak slope rises as sigma shrinks."""
    sigmas = (1.0, 0.8, 0.6, 0.4, 0.2, 0.1)
    betas, slopes = [], []
    for sigma in sigmas:
        spec = _resigma(GAUSS, sigma)
        betas.append(fit_decay(unfolding_spectra(target_amplitudes(spec, 12))).beta)
        slopes.append(max_derivative(spec, 12))
    beta_ok = all(b <= a + 1e-12 for a, b in zip(betas, betas[1:]))
    slope_ok = all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))
    strict = betas[-1] < betas[0] and slopes[-1] > slopes[0]
    _report(
        9, beta_ok and slope_ok and strict,
        f"beta {betas[0]:.2f}->{betas[-1]:.2f}, slope {slopes[0]:.2f}->{slopes[-1]:.2f}",
    )


def test_criterion_10_vne_increment_bound():
    """Adding a qubit adds less entropy than the analytic cap."""
    def max_cut_vne(n):
        t = target_amplitudes(GAUSS, n)
        return max(bipartite_vne(s) for s in unfolding_spectra(t))

    width = GAUSS.domain[1] - GAUSS.domain[0]
    ok = True
    worst_margin = np.inf
    for n in range(6, 12):
        increment = max_cut_vne(n + 1) - max_cut_vne(n)
        bound = width * np.sqrt(max_derivative(GAUSS, n)) / 2 ** (n / 2 - 1)
        ok = ok and increment <= bound
        worst_margin = min(worst_margin, bound - increment)
    _report(10, ok, f"smallest bound margin {worst_margin:.3e}")


def test_criterion_11_optimality_ratio_stability():
    """The gap to the exact-SVD baseline stays flat across system sizes."""
    worst = 0.0
    for sigma in (0.4, 1.0):
        ratios = [
            oracle_compare(
                RunConfig(spec=_resigma(GAUSS, sigma), n_qubits=n)
            ).ratio
            for n in range(6, 13)
        ]
        worst = max(worst, max(abs(r - ratios[0]) for r in ratios))
    _report(11, worst <= 0.01, f"max deviation from N=6 ratio: {worst:.2e}")


def test_criterion_12_linear_scaling():
    """Per-sweep cost is O(N); circuit size is affine in N."""
    rng = np.random.default_rng(12)
    opts = CompressionOptions(target_chi=2, max_sweeps=3, convergence_tol=1e-300)

    # The two sizes alternate call by call, so machine drift hits both alike,
    # and the clock is this process's CPU time, which other processes' load
    # does not advance.
    inputs = {n: random_mps(n, 32, rng, scaled=True) for n in (64, 32)}
    best = dict.fromkeys(inputs, np.inf)
    for _ in range(7):
        for n, m in inputs.items():
            t0 = time.process_time()
            compress_als(m, opts)
            best[n] = min(best[n], time.process_time() - t0)

    ratio = best[64] / best[32]

    counts = []
    for n in range(4, 17):
        m = random_mps(n, 2, rng).normalize()
        counts.append(len(extract_circuit(m).gates))
    affine = all(b - a == counts[1] - counts[0] for a, b in zip(counts, counts[1:]))

    ok = 1.5 <= ratio <= 3.0 and affine
    _report(12, ok, f"time ratio N=64/N=32: {ratio:.2f}, gate counts affine: {affine}")
