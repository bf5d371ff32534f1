import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsprep import (
    DistributionSpec,
    Grid,
    PiecewisePoly,
    RunConfig,
    assemble,
    encode,
    fit_piecewise,
    pdf,
    poly_mps,
    target_amplitudes,
)

from conftest import FAMILIES, NARROW_LORENTZIAN, polyval_values


class TestGrid:
    def test_endpoints(self):
        pts = Grid(2, 0.0, 3.0).points()
        assert pts[0] == 0.0
        assert pts[3] == 3.0

    def test_interior_point(self):
        assert Grid(3, 0.0, 1.0).points()[4] == pytest.approx(4 / 7, abs=1e-15)

    def test_points_match_formula(self):
        g = Grid(5, -1.0, 2.0)
        pts = g.points()
        for k in (0, 7, 31):
            assert pts[k] == pytest.approx(-1.0 + k * 3.0 / 31, abs=1e-15)

    def test_points_count_and_order(self):
        for n in (1, 3, 7):
            g = Grid(n, -1.0, 2.0)
            pts = g.points()
            assert len(pts) == g.size == 2**n
            assert np.all(np.diff(pts) > 0)

    def test_register_and_domain_validation(self):
        with pytest.raises(ValueError, match="n_qubits must be >= 1"):
            Grid(0, 0.0, 1.0)
        with pytest.raises(ValueError, match="need a < b"):
            Grid(3, 1.0, 1.0)

    def test_spacing_floor(self):
        # on [0, 2] the spacing 2 / (2^N - 1) drops below the smallest
        # normal float from N = 1024 on
        assert Grid(1023, 0.0, 2.0).spacing >= np.finfo(float).tiny
        with pytest.raises(ValueError, match="1024 qubits on a domain of width 2"):
            Grid(1024, 0.0, 2.0)
        with pytest.raises(ValueError, match="not finite"):
            Grid(4, -1e308, 1e308)


class TestPdf:
    def test_gaussian_peak(self):
        spec = DistributionSpec("gaussian", mu=0.0, sigma=1.0, domain=(-1.0, 1.0))
        assert pdf(spec, 0.0) == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_lorentzian_peak(self):
        spec = DistributionSpec("lorentzian", mu=0.0, sigma=1.0, domain=(-1.0, 1.0))
        assert pdf(spec, 0.0) == pytest.approx(1 / np.pi, abs=1e-12)

    def test_lorentzian_normalized(self):
        mu, sigma = 1.0, 0.5
        spec = DistributionSpec("lorentzian", mu=mu, sigma=sigma, domain=(0.0, 2.0))
        xs = np.linspace(mu - 1e4 * sigma, mu + 1e4 * sigma, 2_000_001)
        f = pdf(spec, xs)
        integral = np.sum((f[1:] + f[:-1]) / 2 * np.diff(xs))
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_lognormal_at_e(self):
        spec = DistributionSpec("lognormal", mu=1.0, sigma=1.0, domain=(0.5, 5.0))
        want = (1 / np.e) / np.sqrt(2 * np.pi)
        assert pdf(spec, np.e) == pytest.approx(want, abs=1e-12)
        assert pdf(spec, np.e) == pytest.approx(0.14676, abs=1e-5)

    def test_lognormal_rejects_nonpositive(self):
        spec = DistributionSpec("lognormal", mu=1.0, sigma=1.0, domain=(0.5, 5.0))
        with pytest.raises(ValueError, match="x > 0"):
            pdf(spec, 0.0)

    def test_custom_callable(self):
        spec = DistributionSpec(
            "custom", domain=(0.0, 1.0), pdf_fn=lambda x: np.asarray(x) ** 2
        )
        assert pdf(spec, 0.5) == pytest.approx(0.25)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            DistributionSpec("gaussian", sigma=0.0, domain=(0.0, 1.0))
        with pytest.raises(ValueError, match="domain"):
            DistributionSpec("gaussian", domain=(1.0, 1.0))
        with pytest.raises(ValueError, match="pdf_fn"):
            DistributionSpec("custom", domain=(0.0, 1.0))
        with pytest.raises(ValueError, match="lognormal"):
            DistributionSpec("lognormal", domain=(-1.0, 1.0))

    @pytest.mark.parametrize("kind", ["gaussian", "lognormal", "lorentzian", "custom"])
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("mu", float("nan"), "mu must be finite, got nan"),
            ("mu", float("inf"), "mu must be finite, got inf"),
            ("sigma", float("nan"), "sigma must be finite and > 0, got nan"),
            ("sigma", float("inf"), "sigma must be finite and > 0, got inf"),
        ],
    )
    def test_non_finite_parameters_rejected(self, kind, field, value, match):
        with pytest.raises(ValueError, match=match):
            DistributionSpec(
                kind, domain=(0.5, 2.0), pdf_fn=np.ones_like, **{field: value}
            )

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("mu", True, "mu must be a real number, got True"),
            ("sigma", True, "sigma must be a real number, got True"),
            ("mu", "1", "mu must be a real number, got '1'"),
            ("sigma", "1", "sigma must be a real number, got '1'"),
            ("domain", ("0", 2), "domain bound must be a real number, got '0'"),
            ("domain", (0, True), "domain bound must be a real number, got True"),
            ("domain", (0, 1, 2), r"domain must be a pair \(a, b\), got \(0, 1, 2\)"),
            ("domain", 2.0, r"domain must be a pair \(a, b\), got 2.0"),
        ],
    )
    def test_field_types_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            DistributionSpec("gaussian", **{field: value})

    def test_fields_stored_as_floats(self):
        spec = DistributionSpec(
            "gaussian", mu=np.int64(1), sigma=np.float32(0.5), domain=[0, np.int32(2)]
        )
        assert spec == DistributionSpec("gaussian", 1.0, 0.5, (0.0, 2.0))
        values = (spec.mu, spec.sigma) + spec.domain
        assert type(spec.domain) is tuple and {type(x) for x in values} == {float}

    def test_lognormal_zero_bound_resolution(self):
        spec = DistributionSpec("lognormal", mu=1.0, sigma=0.5, domain=(0.0, 5.0))
        assert spec.domain == (0.125, 5.0)  # pinned at construction
        assert Grid.for_spec(spec, 8).a == 0.125
        # pinning is idempotent; other specs keep their domain
        assert DistributionSpec("lognormal", domain=spec.domain).domain == spec.domain
        g = DistributionSpec("gaussian", domain=(0.0, 2.0))
        assert g.domain == (0.0, 2.0)


class TestTargetAmplitudes:
    def test_uniform(self):
        spec = DistributionSpec(
            "custom", domain=(0.0, 1.0), pdf_fn=lambda x: np.ones_like(np.asarray(x))
        )
        assert np.allclose(target_amplitudes(spec, 2), 0.5)

    def test_symmetric_two_point(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        amps = target_amplitudes(spec, 1)
        assert np.allclose(amps, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_matches_brute_force(self):
        spec = DistributionSpec("gaussian", mu=0.0, sigma=1.0, domain=(-1.0, 1.0))
        amps = target_amplitudes(spec, 8)
        xs = np.linspace(-1.0, 1.0, 256)
        want = np.sqrt(pdf(spec, xs))
        want /= np.linalg.norm(want)
        assert np.max(np.abs(amps - want)) <= 1e-14

    def test_negative_density_rejected(self):
        spec = DistributionSpec(
            "custom", domain=(0.0, 1.0), pdf_fn=lambda x: -np.ones_like(np.asarray(x))
        )
        with pytest.raises(ValueError, match="negative"):
            target_amplitudes(spec, 3)

    def test_bad_density_names_kind_and_x(self):
        # grid points 0, 1, 2, 3: the density first goes wrong at x = 2
        negative = DistributionSpec(
            "custom", domain=(0.0, 3.0), pdf_fn=lambda x: 1.0 - x
        )
        with pytest.raises(ValueError, match="density 'custom' is negative at x=2$"):
            target_amplitudes(negative, 2)
        nan = DistributionSpec(
            "custom", domain=(0.0, 3.0), pdf_fn=lambda x: np.where(x > 1.5, np.nan, 1.0)
        )
        with pytest.raises(ValueError, match="density 'custom' is nan at x=2$"):
            target_amplitudes(nan, 2)

    @pytest.mark.parametrize(
        "pdf_fn, what",
        [
            (lambda x: 1.0 - x, "negative"),
            (lambda x: np.where(x > 1.0, np.nan, 1.0), "nan"),
        ],
    )
    def test_bad_density_through_encode(self, pdf_fn, what):
        # the first bad fit sample is region 4's first point, x = 64/63
        spec = DistributionSpec("custom", domain=(0.0, 2.0), pdf_fn=pdf_fn)
        msg = f"fit stage: density 'custom' is {what} at x=1.01587$"
        with pytest.raises(ValueError, match=msg):
            encode(RunConfig(spec=spec, n_qubits=6))

    def test_infinite_density_names_x(self):
        # grid points 0, 1, 2, 3; region 1's first fit sample is x = 2
        spec = DistributionSpec(
            "custom", domain=(0.0, 3.0), pdf_fn=lambda x: np.where(x > 1.5, np.inf, 1.0)
        )
        with pytest.raises(ValueError, match="density 'custom' is inf at x=2$"):
            target_amplitudes(spec, 2)
        with pytest.raises(ValueError, match="fit stage: density 'custom' is inf at x=2$"):
            encode(RunConfig(spec=spec, n_qubits=2, support_bit=1))

    def test_zero_density_named_in_fit_stage(self):
        spec = DistributionSpec("custom", domain=(0.0, 2.0), pdf_fn=lambda x: 0.0 * x)
        with pytest.raises(ValueError, match="^fit stage: density vanishes on every fit sample$"):
            encode(RunConfig(spec=spec, n_qubits=6))

    def test_dense_limit(self, monkeypatch):
        monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "4")
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        with pytest.raises(ValueError, match="target_amplitudes .*limit"):
            target_amplitudes(spec, 10)


class TestFitPiecewise:
    def test_exactly_linear_amplitude(self):
        spec = DistributionSpec(
            "custom", domain=(0.0, 2.0), pdf_fn=lambda x: (np.asarray(x) + 1.0) ** 2
        )
        grid = Grid(6, 0.0, 2.0)
        pp = fit_piecewise(spec, grid, 2, 1)
        # region coordinate v = 2 (x - x_start) / span - 1, samples divided by
        # the largest one, sqrt(pdf(2)) = 3: with x_mid = x_start + span / 2,
        # sqrt(pdf) / 3 = (x_mid + 1 + span / 2 * v) / 3
        span = 15 * grid.spacing
        for x_start, coeffs in zip(grid.points()[::16], pp.regions):
            x_mid = x_start + span / 2
            assert coeffs[0] == pytest.approx((x_mid + 1.0) / 3, abs=1e-10)
            assert coeffs[1] == pytest.approx(span / 6, abs=1e-10)

    def test_region_count(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=0.5, domain=(0.0, 2.0))
        grid = Grid(5, 0.0, 2.0)
        for k in range(5):
            assert len(fit_piecewise(spec, grid, k, 2).regions) == 2**k

    def test_k_zero_single_region(self):
        # one region spanning [0, 2], x = 1 + v: sqrt(pdf) / 3 = (2 + v) / 3
        spec = DistributionSpec(
            "custom", domain=(0.0, 2.0), pdf_fn=lambda x: (np.asarray(x) + 1.0) ** 2
        )
        pp = fit_piecewise(spec, Grid(6, 0.0, 2.0), 0, 1)
        assert len(pp.regions) == 1
        assert pp.regions[0] == pytest.approx((2 / 3, 1 / 3), abs=1e-10)

    def test_region_starts_past_int64_indices(self):
        # at N = 64 the third region starts at grid index 2^63, past int64
        spec = DistributionSpec(
            "custom", domain=(0.0, 2.0), pdf_fn=lambda x: (np.asarray(x) + 1.0) ** 2
        )
        grid = Grid(64, 0.0, 2.0)
        pp = fit_piecewise(spec, grid, 2, 1)
        span = (2**62 - 1) * grid.spacing
        for j, coeffs in enumerate(pp.regions):
            x_mid = j * 2**62 * 2.0 / (2**64 - 1) + span / 2
            assert coeffs[0] == pytest.approx((x_mid + 1.0) / 3, abs=1e-10)
            assert coeffs[1] == pytest.approx(span / 6, abs=1e-10)

    def test_gaussian_pointwise_residual(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        grid = Grid(10, 0.0, 2.0)
        pp = fit_piecewise(spec, grid, 3, 3)
        got = polyval_values(pp, grid)
        want = np.sqrt(pdf(spec, grid.points()))
        # the fit divides by its largest sample; region ends are fit samples
        # and the grid points nearest the peak at mu=1 are region ends
        want /= np.max(want)
        assert np.max(np.abs(got - want)) <= 1e-3 * np.max(want)

    def test_residual_monotone_in_degree(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=0.1, domain=(0.0, 2.0))
        grid = Grid(8, 0.0, 2.0)
        want = np.sqrt(pdf(spec, grid.points()))
        want /= np.max(want)  # the largest fit sample, as in the test above
        residuals = []
        for p in range(2, 6):
            pp = fit_piecewise(spec, grid, 3, p)
            residuals.append(np.linalg.norm(polyval_values(pp, grid) - want))
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_too_few_samples(self):
        spec = DistributionSpec("gaussian", domain=(0.0, 2.0))
        with pytest.raises(ValueError, match="samples"):
            fit_piecewise(spec, Grid(5, 0.0, 2.0), 1, 3, samples_per_region=3)

    def test_support_bit_too_large(self):
        spec = DistributionSpec("gaussian", domain=(0.0, 2.0))
        with pytest.raises(ValueError, match="support_bit"):
            fit_piecewise(spec, Grid(3, 0.0, 2.0), 3, 1)


class TestPolyMps:
    def test_constant(self):
        m = poly_mps([1.0], Grid(3, 0.0, 1.0))
        assert m.max_bond == 1
        assert np.allclose(m.to_statevector(), 1.0)

    def test_linear(self):
        m = poly_mps([0.0, 1.0], Grid(2, 0.0, 3.0))
        assert m.max_bond == 2
        assert np.allclose(m.to_statevector(), [0, 1, 2, 3], atol=1e-12)

    def test_shifted_square(self):
        g = Grid(6, 0.0, 2.0)
        m = poly_mps([1.0, -2.0, 1.0], g)
        want = (g.points() - 1.0) ** 2
        assert m.max_bond <= 3
        assert np.max(np.abs(m.to_statevector() - want)) <= 1e-12

    def test_single_site(self):
        m = poly_mps([1.0, 2.0], Grid(1, 0.0, 1.0))
        assert np.allclose(m.to_statevector(), [1.0, 3.0], atol=1e-14)

    def test_random_polynomials_exact(self, rng):
        for _ in range(30):
            p = int(rng.integers(0, 6))
            n = int(rng.integers(1, 13))
            a = float(rng.uniform(-2.0, 0.5))
            b = float(rng.uniform(a + 0.5, a + 4.0))
            coeffs = rng.uniform(-1.0, 1.0, size=p + 1)
            g = Grid(n, a, b)
            got = poly_mps(coeffs, g).to_statevector()
            want = np.polynomial.polynomial.polyval(g.points(), coeffs)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-11 * scale
            assert poly_mps(coeffs, g).max_bond <= p + 1

    def test_empty_coefficients(self):
        with pytest.raises(ValueError, match="coefficient"):
            poly_mps([], Grid(2, 0.0, 1.0))


class TestMaskRegion:
    """Prefix routing: each region's polynomial appears on its own bit prefix only."""

    def test_constant_first_half(self):
        pp = PiecewisePoly(support_bit=1, degree=0, regions=((1.0,), (0.0,)))
        got = assemble(pp, Grid(3, 0.0, 1.0)).to_statevector()
        assert np.allclose(got, [1, 1, 1, 1, 0, 0, 0, 0])

    def test_linear_second_half(self):
        # v = 2 (x - x_start) / span - 1 runs -1, 1 in each half of the
        # 4-point grid: x = 2, 3 is 2.5 + 0.5 v
        pp = PiecewisePoly(support_bit=1, degree=1, regions=((0.0, 0.0), (2.5, 0.5)))
        got = assemble(pp, Grid(2, 0.0, 3.0)).to_statevector()
        assert np.allclose(got, [0, 0, 2, 3], atol=1e-12)

    def test_partition_of_unity(self, rng):
        # one polynomial cut into 2^k regions, each re-expanded in its v
        g = Grid(6, -1.0, 1.0)
        coeffs = rng.uniform(-1, 1, size=4)
        want = poly_mps(coeffs, g).to_statevector()
        for k in (1, 2, 3):
            block = 2 ** (6 - k)
            span = (block - 1) * g.spacing
            regions = tuple(
                tuple(np.polynomial.Polynomial(coeffs)(
                    np.polynomial.Polynomial([x_start + span / 2, span / 2])).coef)
                for x_start in g.points()[::block]
            )
            pp = PiecewisePoly(support_bit=k, degree=3, regions=regions)
            assert np.max(np.abs(polyval_values(pp, g) - want)) <= 1e-12
            assert np.max(np.abs(assemble(pp, g).to_statevector() - want)) <= 1e-12

    @given(
        n=st.integers(min_value=1, max_value=10),
        k=st.integers(min_value=0, max_value=9),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_is_bit_prefix(self, n, k, data):
        # region j holds the constant j: every index reads its k-bit prefix
        k = min(k, n - 1)
        grid = Grid(n, 0.0, 1.0)
        pp = PiecewisePoly(
            support_bit=k, degree=0, regions=tuple((float(j),) for j in range(2**k))
        )
        idx = data.draw(st.integers(min_value=0, max_value=2**n - 1))
        prefix = idx >> (n - k)
        assert polyval_values(pp, grid)[idx] == prefix
        bits = format(idx, f"0{n}b")
        assert assemble(pp, grid).amplitude(bits) == pytest.approx(prefix, abs=1e-12)

    def test_coefficient_count_checked(self):
        with pytest.raises(ValueError, match=r"degree\+1 coefficients"):
            PiecewisePoly(support_bit=1, degree=1, regions=((1.0, 0.0), (2.0,)))

    def test_region_out_of_range(self):
        with pytest.raises(ValueError, match="regions"):
            PiecewisePoly(support_bit=1, degree=0, regions=((1.0,), (2.0,), (3.0,)))
        pp = PiecewisePoly(support_bit=2, degree=0, regions=((1.0,),) * 4)
        with pytest.raises(ValueError, match="support_bit"):
            assemble(pp, Grid(2, 0.0, 1.0))


class TestPiecewiseValues:
    @staticmethod
    def _per_region_fit_values(spec, grid, k, p, samples=64, basis=np.polynomial.Polynomial):
        # One least-squares fit per region in `basis`, mapped from u onto
        # [-1, 1], on the samples divided by the largest one: the reference
        # for the batched solve.
        us = np.linspace(0.0, 1.0, samples)
        block = 2 ** (grid.n_qubits - k)
        pts = grid.points()
        ys = [
            np.sqrt(pdf(spec, start + us * (end - start)))
            for start, end in zip(pts[::block], pts[block - 1 :: block])
        ]
        peak = max(np.max(y) for y in ys)
        grid_us = np.arange(block) / (block - 1)
        return np.concatenate(
            [basis.fit(us, y / peak, p)(grid_us) for y in ys]
        )

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.kind)
    def test_batched_fit_matches_per_region_fit(self, spec):
        for n in (4, 9, 16):
            g = Grid.for_spec(spec, n)
            for k in (0, 1, 3):
                for p in (0, 1, 3, 5):
                    got = polyval_values(fit_piecewise(spec, g, k, p), g)
                    want = self._per_region_fit_values(spec, g, k, p)
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_degree_20_matches_legendre_fit(self):
        # The direct solve for powers of v, whose design has condition number
        # ~2e7 at p=20, against a Legendre fit per region on the same samples.
        g = Grid.for_spec(NARROW_LORENTZIAN, 16)
        got = polyval_values(fit_piecewise(NARROW_LORENTZIAN, g, 3, 20), g)
        want = self._per_region_fit_values(
            NARROW_LORENTZIAN, g, 3, 20, basis=np.polynomial.Legendre
        )
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestAssemble:
    def test_k0_equals_poly_mps(self):
        # on [0, 2] one region has v = x - 1: 1 + v/2 - v^2/4 = 1/4 + x - x^2/4
        g = Grid(5, 0.0, 2.0)
        pp = PiecewisePoly(support_bit=0, degree=2, regions=((1.0, 0.5, -0.25),))
        got = assemble(pp, g).to_statevector()
        want = poly_mps([0.25, 1.0, -0.25], g).to_statevector()
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_step_function(self):
        g = Grid(4, 0.0, 1.0)
        pp = PiecewisePoly(support_bit=1, degree=0, regions=((1.0,), (2.0,)))
        got = assemble(pp, g).to_statevector()
        assert np.allclose(got, [1.0] * 8 + [2.0] * 8)

    def test_gaussian_pp_matches_evaluation(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        g = Grid(10, 0.0, 2.0)
        pp = fit_piecewise(spec, g, 3, 3)
        m = assemble(pp, g)
        assert m.bond_dims == (1, 2, 4) + (4,) * 7 + (1,)
        assert np.max(np.abs(m.to_statevector() - polyval_values(pp, g))) <= 1e-10

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.kind)
    def test_matches_polyval_all_families(self, spec):
        for n in (4, 9, 16):
            g = Grid.for_spec(spec, n)
            for k in (0, 1, 3):
                pp = fit_piecewise(spec, g, k, 3)
                want = polyval_values(pp, g)
                got = assemble(pp, g).to_statevector()
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [11, 17, 20])
    def test_high_degree_matches_polyval(self, p):
        # The cores carry the fit's own powers of v: no change of basis with
        # large cancelling coefficients comes between the fit and the state.
        g = Grid.for_spec(NARROW_LORENTZIAN, 16)
        pp = fit_piecewise(NARROW_LORENTZIAN, g, 3, p)
        want = polyval_values(pp, g)
        got = assemble(pp, g).to_statevector()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_rank_bound(self, rng):
        g = Grid(8, 0.0, 1.0)
        for k, p in ((0, 2), (1, 1), (2, 3), (3, 2), (3, 5)):
            regions = tuple(
                tuple(rng.uniform(-1, 1, size=p + 1)) for _ in range(2**k)
            )
            pp = PiecewisePoly(support_bit=k, degree=p, regions=regions)
            bonds = assemble(pp, g).bond_dims
            assert all(bonds[j] <= 2**j for j in range(k))
            assert all(b <= p + 1 for b in bonds[k:])

    def test_translation_invariant(self):
        for n in (6, 9, 12):
            fids = []
            for a in (0.0, 1e6):
                spec = DistributionSpec(
                    "gaussian", mu=a + 1.0, sigma=1.0, domain=(a, a + 2.0)
                )
                fids.append(encode(RunConfig(spec=spec, n_qubits=n))[1].fidelity)
            assert fids[0] >= 0.999
            assert abs(fids[0] - fids[1]) <= 1e-9

    @pytest.mark.parametrize("kind", ["gaussian", "lognormal", "lorentzian"])
    def test_scale_and_translation_invariant(self, kind):
        # the domain scales by s, and mu and sigma with it (the lognormal's
        # log-mean shifts by log s); the last target is the s=1 density
        # translated by 1e6
        def scaled(s):
            if kind == "lognormal":
                return DistributionSpec(
                    kind, mu=np.log(s), sigma=0.44, domain=(0.125 * s, 5.0 * s)
                )
            return DistributionSpec(kind, mu=s, sigma=0.44 * s, domain=(0.0, 2.0 * s))

        base = scaled(1.0)
        a, b = base.domain
        shifted = DistributionSpec(
            "custom", domain=(a + 1e6, b + 1e6), pdf_fn=lambda x: pdf(base, x - 1e6)
        )
        others = [scaled(s) for s in (1e-150, 1e-60, 1e60, 1e150)] + [shifted]
        for p in (3, 5):
            want = encode(RunConfig(spec=base, n_qubits=12, degree=p))[1].fidelity
            for spec in others:
                got = encode(RunConfig(spec=spec, n_qubits=12, degree=p))[1].fidelity
                assert abs(got - want) <= 1e-12


class TestDiscretizationRefinement:
    def test_interpolation_error_halves(self):
        # left-neighbor interpolation probed at interval midpoints
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))

        def max_err(n):
            g = Grid(n, 0.0, 2.0)
            xs = g.points()
            amp = np.sqrt(pdf(spec, xs))
            mids = (xs[:-1] + xs[1:]) / 2
            return np.max(np.abs(np.sqrt(pdf(spec, mids)) - amp[:-1]))

        for n in range(6, 10):
            ratio = max_err(n + 1) / max_err(n)
            assert 0.4 <= ratio <= 0.6
