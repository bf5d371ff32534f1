import numpy as np
import pytest

from mpsprep import (
    DistributionSpec,
    chi_bound,
    fidelity,
    fit_decay,
    max_derivative,
    target_amplitudes,
    to_mps_exact,
    unfolding_spectra,
)


def synthetic_spectrum(alpha, beta, n):
    return alpha * np.exp(-beta * np.arange(1, n + 1))


class TestFitDecay:
    def test_unit_amplitude_model(self):
        fit = fit_decay([synthetic_spectrum(1.0, 2.0, 10)])
        assert fit.beta == pytest.approx(2.0, abs=1e-6)
        assert fit.joint[0] == pytest.approx(1.0, rel=1e-6)

    def test_scaled_model(self):
        fit = fit_decay([synthetic_spectrum(3.0, 1.5, 12)])
        assert fit.joint[0] == pytest.approx(3.0, rel=1e-6)
        assert fit.beta == pytest.approx(1.5, abs=1e-6)

    def test_multiple_cuts_pooled(self):
        cuts = [synthetic_spectrum(2.0, 1.2, n) for n in (6, 8, 10)]
        fit = fit_decay(cuts)
        assert fit.beta == pytest.approx(1.2, abs=1e-6)
        assert len(fit.per_cut) == 3
        for alpha, beta in fit.per_cut:
            assert beta == pytest.approx(1.2, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_beta_above_threshold(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        fit = fit_decay(unfolding_spectra(target_amplitudes(spec, 12)))
        assert fit.beta >= 1.152

    def test_noise_floor_excluded(self):
        s = synthetic_spectrum(1.0, 2.0, 8)
        noisy = np.concatenate([s, np.full(5, 1e-16)])
        fit = fit_decay([noisy])
        assert fit.beta == pytest.approx(2.0, abs=1e-4)

    def test_short_cuts_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="skipped"):
            fit = fit_decay([[1.0], synthetic_spectrum(1.0, 2.0, 8)])
        assert fit.per_cut[0] is None
        assert fit.beta == pytest.approx(2.0, abs=1e-6)

    def test_all_cuts_unusable(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no cut"):
                fit_decay([[1.0], [0.5]])


class TestChiBound:
    def test_threshold_value(self):
        assert chi_bound(1.152, 2, 12) <= 0.01

    def test_low_decay_fails_threshold(self):
        assert chi_bound(0.1, 2, 12) > 0.01

    def test_limits(self):
        assert chi_bound(1.0, 0, 12) == 1.0
        assert chi_bound(1.0, 12, 12) == 0.0
        assert chi_bound(1.0, 14, 12) == 0.0

    def test_monotone_in_chi(self):
        vals = [chi_bound(0.8, chi, 12) for chi in range(0, 13)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_monotone_in_beta(self):
        vals = [chi_bound(b, 2, 12) for b in (0.2, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_matches_partial_sums(self):
        # brute-force the geometric model it summarizes
        beta, chi, n = 0.7, 2, 12
        ks = np.arange(1, n + 1)
        weights = np.exp(-2 * beta * ks)
        want = weights[chi:].sum() / weights.sum()
        assert chi_bound(beta, chi, n) == pytest.approx(want, rel=1e-12)

    def test_large_arguments_stable(self):
        assert 0.0 <= chi_bound(50.0, 2, 400) <= 1.0

    def test_invalid_beta(self):
        for bad in (0.0, float("nan")):
            with pytest.raises(ValueError, match="beta must be > 0"):
                chi_bound(bad, 2, 12)

    def test_non_integer_chi_rejected(self):
        for bad in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="chi must be an integer"):
                chi_bound(1.0, bad, 12)
        assert chi_bound(1.0, np.int64(2), 12) == chi_bound(1.0, 2, 12)

    def test_negative_chi_or_empty_chain_rejected(self):
        for chi, n in ((-1, 12), (2, 0)):
            with pytest.raises(ValueError, match="need chi >= 0 and n >= 1"):
                chi_bound(1.0, chi, n)


class TestBoundConsistency:
    CASES = [
        ("gaussian", (0.0, 2.0), 0.4),
        ("gaussian", (0.0, 2.0), 1.0),
        pytest.param(
            "lognormal",
            (0.0, 5.0),
            0.4,
            marks=pytest.mark.xfail(
                strict=True,
                reason="two-regime spectral decay: the pooled single-rate "
                "model overestimates tail decay, so the bound undershoots "
                "the measured error by ~7x at this width",
            ),
        ),
        ("lognormal", (0.0, 5.0), 1.0),
        ("lorentzian", (0.0, 2.0), 0.4),
        ("lorentzian", (0.0, 2.0), 1.0),
    ]

    @pytest.mark.parametrize("kind,domain,sigma", CASES)
    def test_measured_error_within_slack(self, kind, domain, sigma):
        spec = DistributionSpec(kind, mu=1.0, sigma=sigma, domain=domain)
        t = target_amplitudes(spec, 12)
        fit = fit_decay(unfolding_spectra(t))
        m = to_mps_exact(t, 2).normalize()
        infidelity = 1.0 - fidelity(t, m.to_statevector())
        assert infidelity**2 <= chi_bound(fit.beta, 2, 12) * 1.5


class TestMaxDerivative:
    def test_gaussian_closed_form(self):
        spec = DistributionSpec("gaussian", mu=0.0, sigma=1.0, domain=(-1.0, 1.0))
        want = np.exp(-0.5) / np.sqrt(2 * np.pi)
        assert max_derivative(spec, 10) == pytest.approx(want, abs=1e-6)
        assert max_derivative(spec, 10) == pytest.approx(0.24197, abs=1e-5)

    def test_constant_density(self):
        spec = DistributionSpec(
            "custom", domain=(0.0, 1.0), pdf_fn=lambda x: np.ones_like(np.asarray(x))
        )
        assert max_derivative(spec, 8) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ["gaussian", "lognormal", "lorentzian"])
    def test_matches_finite_differences(self, kind):
        domain = (0.5, 5.0) if kind == "lognormal" else (-1.0, 1.0)
        spec = DistributionSpec(kind, mu=0.0 if kind != "lognormal" else 1.0,
                                sigma=1.0, domain=domain)
        got = max_derivative(spec, 12)
        from mpsprep import Grid, pdf

        grid = Grid.for_spec(spec, 12)
        xs = grid.points()
        h = 1e-6
        fd = np.max(np.abs(
            (np.asarray(pdf(spec, xs + h)) - np.asarray(pdf(spec, xs - h))) / (2 * h)
        ))
        assert got == pytest.approx(fd, abs=1e-6)

    def test_squeezing_raises_slope(self):
        derivs = []
        for sigma in (1.0, 0.8, 0.6, 0.4, 0.2, 0.1):
            spec = DistributionSpec("gaussian", mu=1.0, sigma=sigma, domain=(0.0, 2.0))
            derivs.append(max_derivative(spec, 12))
        assert all(b >= a for a, b in zip(derivs, derivs[1:]))
        assert derivs[-1] > derivs[0]

    def test_squeezing_lowers_decay_rate(self):
        betas = []
        for sigma in (1.0, 0.4, 0.1, 0.05):
            spec = DistributionSpec("gaussian", mu=1.0, sigma=sigma, domain=(0.0, 2.0))
            fit = fit_decay(unfolding_spectra(target_amplitudes(spec, 12)))
            betas.append(fit.beta)
        assert all(b <= a for a, b in zip(betas, betas[1:]))
        assert betas[-1] < betas[0]
