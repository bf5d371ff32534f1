import numpy as np
import pytest

from mpsprep import (
    CompressionOptions,
    Grid,
    Mps,
    TruncationPolicy,
    add,
    bipartite_vne,
    compress_als,
    overlap,
    poly_mps,
    to_mps_exact,
    tt_round,
    unfolding_spectra,
)
from mpsprep.functions import (
    DistributionSpec,
    assemble,
    fit_piecewise,
    target_amplitudes,
)

from conftest import random_mps


def ones_product_state(n):
    return Mps([np.ones((1, 2, 1)) for _ in range(n)])


class TestAmplitude:
    def test_product_of_ones(self):
        m = ones_product_state(4)
        for k in range(16):
            assert m.amplitude(format(k, "04b")) == 1.0

    def test_linear_function_bits(self):
        m = poly_mps([0.0, 1.0], Grid(2, 0.0, 3.0))
        assert m.amplitude("10") == pytest.approx(2.0, abs=1e-12)

    def test_roundtrip_every_bitstring(self, rng):
        v = rng.standard_normal(8)
        m = to_mps_exact(v)
        for k in range(8):
            assert m.amplitude(format(k, "03b")) == pytest.approx(v[k], abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="bits"):
            ones_product_state(3).amplitude("01")


class TestStatevector:
    def test_uniform(self):
        assert np.allclose(ones_product_state(2).to_statevector(), [1, 1, 1, 1])

    def test_linear_function(self):
        m = poly_mps([0.0, 1.0], Grid(2, 0.0, 3.0))
        assert np.allclose(m.to_statevector(), [0, 1, 2, 3], atol=1e-12)

    def test_roundtrip_16(self, rng):
        v = rng.standard_normal(16)
        assert np.max(np.abs(to_mps_exact(v).to_statevector() - v)) <= 1e-12

    def test_dense_limit_enforced(self, monkeypatch):
        monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "3")
        m = ones_product_state(4)
        with pytest.raises(ValueError, match="limit"):
            m.to_statevector()


class TestToMpsExact:
    def test_basis_state_is_product(self):
        m = to_mps_exact([1.0, 0.0, 0.0, 0.0])
        assert m.max_bond == 1
        assert np.allclose(m.to_statevector(), [1, 0, 0, 0])

    def test_gaussian_chi2_fidelity(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        t = target_amplitudes(spec, 10)
        m = to_mps_exact(t, TruncationPolicy.rank(2)).normalize()
        fid = abs(np.dot(m.to_statevector(), t))
        assert fid >= 0.999

    def test_exact_roundtrip_256(self, rng):
        v = rng.standard_normal(256)
        assert np.max(np.abs(to_mps_exact(v).to_statevector() - v)) <= 1e-12

    def test_left_canonical_by_construction(self, rng):
        m = to_mps_exact(rng.standard_normal(64))
        for core in m.cores[:-1]:
            al, _, ar = core.shape
            mat = core.reshape(al * 2, ar)
            assert np.max(np.abs(mat.T @ mat - np.eye(ar))) <= 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            to_mps_exact(np.zeros(8))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            to_mps_exact(np.ones(6))

    def test_truncation_error_bounded_by_spectra(self, rng):
        # independent oracle: sum of discarded squared singular values of
        # the input's own unfolding matrices
        v = rng.standard_normal(2**9)
        chi = 3
        m = to_mps_exact(v, TruncationPolicy.rank(chi))
        err2 = np.sum((m.to_statevector() - v) ** 2)
        bound = sum(np.sum(s[chi:] ** 2) for s in unfolding_spectra(v))
        assert err2 <= bound + 1e-10


class TestAdd:
    def test_constants(self):
        a = ones_product_state(3)
        b = Mps([2 * np.ones((1, 2, 1))] + [np.ones((1, 2, 1))] * 2)
        s = add(a, b)
        assert np.allclose(s.to_statevector(), 3.0)
        assert s.max_bond == 2

    def test_polynomials_pointwise(self):
        g = Grid(4, 0.0, 3.0)
        a, b = poly_mps([0, 1], g), poly_mps([0, 0, 1], g)
        got = add(a, b).to_statevector()
        want = a.to_statevector() + b.to_statevector()
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_linearity_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            a = random_mps(n, 3, rng)
            b = random_mps(n, 2, rng)
            got = add(a, b).to_statevector()
            assert np.allclose(got, a.to_statevector() + b.to_statevector(), atol=1e-12)

    def test_site_mismatch(self):
        with pytest.raises(ValueError, match="site count"):
            add(ones_product_state(3), ones_product_state(4))


class TestOverlapNorm:
    def test_self_overlap_of_normalized(self, rng):
        m = random_mps(6, 3, rng).normalize()
        assert overlap(m, m) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        e0 = to_mps_exact(np.eye(4)[0])
        e1 = to_mps_exact(np.eye(4)[1])
        assert overlap(e0, e1) == pytest.approx(0.0, abs=1e-14)

    def test_matches_dense_dot(self, rng):
        a, b = random_mps(8, 4, rng), random_mps(8, 3, rng)
        dense = float(np.dot(a.to_statevector(), b.to_statevector()))
        assert overlap(a, b) == pytest.approx(dense, abs=1e-10 * max(1, abs(dense)))

    def test_norm_of_uniform(self):
        assert ones_product_state(2).norm() == pytest.approx(2.0, abs=1e-12)

    def test_norm_matches_dense(self, rng):
        m = random_mps(7, 3, rng)
        assert m.norm() == pytest.approx(
            np.linalg.norm(m.to_statevector()), rel=1e-10
        )

    def test_normalize_zero_rejected(self):
        z = Mps([np.zeros((1, 2, 1))])
        with pytest.raises(ValueError, match="norm"):
            z.normalize()


class TestCanonicalize:
    @pytest.mark.parametrize("form", ["left", "right"])
    def test_amplitudes_preserved(self, rng, form):
        m = random_mps(7, 6, rng)
        c = m.canonicalize(form)
        scale = np.max(np.abs(m.to_statevector()))
        assert np.max(np.abs(c.to_statevector() - m.to_statevector())) <= 1e-10 * scale

    def test_left_isometries(self, rng):
        c = random_mps(7, 6, rng).canonicalize("left")
        for core in c.cores[:-1]:
            al, _, ar = core.shape
            mat = core.reshape(al * 2, ar)
            assert np.max(np.abs(mat.T @ mat - np.eye(ar))) <= 1e-10

    def test_right_isometries(self, rng):
        c = random_mps(7, 6, rng).canonicalize("right")
        for core in c.cores[1:]:
            al, _, ar = core.shape
            mat = core.reshape(al, 2 * ar)
            assert np.max(np.abs(mat @ mat.T - np.eye(al))) <= 1e-10

    def test_idempotent(self, rng):
        m = random_mps(6, 4, rng).canonicalize("left")
        again = m.canonicalize("left")
        assert np.max(np.abs(again.to_statevector() - m.to_statevector())) <= 1e-10

    def test_invalid_form(self, rng):
        with pytest.raises(ValueError, match="form"):
            random_mps(3, 2, rng).canonicalize("middle")


class TestTtRound:
    def test_no_truncation_is_identity(self, rng):
        m = random_mps(6, 2, rng)
        r = tt_round(m, TruncationPolicy.rank(4))
        scale = np.max(np.abs(m.to_statevector()))
        assert np.max(np.abs(r.to_statevector() - m.to_statevector())) <= 1e-10 * scale

    def test_redundant_embedding_recovers(self, rng):
        m = random_mps(6, 2, rng)
        doubled = add(m, m)
        assert doubled.max_bond == 4
        r = tt_round(doubled, TruncationPolicy.rank(2))
        a = r.to_statevector() / np.linalg.norm(r.to_statevector())
        b = doubled.to_statevector() / np.linalg.norm(doubled.to_statevector())
        assert abs(np.dot(a, b)) >= 1.0 - 1e-10

    def test_max_bond_respected(self, rng):
        m = random_mps(8, 6, rng)
        assert tt_round(m, TruncationPolicy.rank(3)).max_bond <= 3

    def test_piecewise_sum_matches_dense_oracle(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        grid = Grid(10, 0.0, 2.0)
        big = assemble(fit_piecewise(spec, grid, 3, 3), grid)
        assert big.max_bond == 4
        rounded = tt_round(big, TruncationPolicy.rank(2)).normalize()
        dense = big.to_statevector()
        oracle = to_mps_exact(dense, TruncationPolicy.rank(2)).normalize()
        f_round = abs(np.dot(rounded.to_statevector(), dense / np.linalg.norm(dense)))
        f_oracle = abs(np.dot(oracle.to_statevector(), dense / np.linalg.norm(dense)))
        assert f_round == pytest.approx(f_oracle, abs=1e-6)


class TestCompressAls:
    def test_fixed_point_single_sweep(self, rng):
        m = random_mps(6, 2, rng).normalize()
        opts = CompressionOptions(target_chi=2, max_sweeps=1)
        c = compress_als(m, opts)
        assert abs(overlap(c, m)) >= 1.0 - 1e-10

    def test_piecewise_gaussian_chi2(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        grid = Grid(10, 0.0, 2.0)
        big = assemble(fit_piecewise(spec, grid, 3, 3), grid)
        c = compress_als(big, CompressionOptions(target_chi=2))
        assert c.max_bond <= 2
        assert abs(overlap(c, big.normalize())) >= 0.999

    def test_no_worse_than_rounding_init(self, rng):
        m = random_mps(8, 8, rng)
        target = m.normalize()
        init = tt_round(m, TruncationPolicy.rank(2)).normalize()
        f_init = abs(overlap(init, target))
        c = compress_als(m, CompressionOptions(target_chi=2))
        assert abs(overlap(c, target)) >= f_init - 1e-12

    def test_monotone_over_sweeps(self, rng):
        m = random_mps(8, 8, rng)
        target = m.normalize()
        fids = []
        for sweeps in (1, 2, 3, 5):
            c = compress_als(
                m, CompressionOptions(target_chi=2, max_sweeps=sweeps,
                                      convergence_tol=1e-300)
            )
            fids.append(abs(overlap(c, target)))
        for a, b in zip(fids, fids[1:]):
            assert b >= a - 1e-12

    def test_target_gauge_irrelevant(self, rng):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=0.3, domain=(0.0, 2.0))
        grid = Grid(10, 0.0, 2.0)
        piecewise = assemble(fit_piecewise(spec, grid, 3, 3), grid)
        for m in (random_mps(8, 8, rng), piecewise):
            target = m.normalize()
            opts = CompressionOptions(target_chi=2)
            f = abs(overlap(compress_als(m, opts), target))
            f_left = abs(overlap(compress_als(m.canonicalize("left"), opts), target))
            assert f_left == pytest.approx(f, abs=1e-12)

    def test_result_normalized_and_right_canonical(self, rng):
        c = compress_als(random_mps(7, 5, rng), CompressionOptions(target_chi=2))
        assert c.norm() == pytest.approx(1.0, abs=1e-12)
        for core in c.cores[1:]:
            al, _, ar = core.shape
            mat = core.reshape(al, 2 * ar)
            assert np.max(np.abs(mat @ mat.T - np.eye(al))) <= 1e-10

    def test_zero_input_rejected(self):
        z = Mps([np.zeros((1, 2, 1)) for _ in range(3)])
        with pytest.raises(ValueError, match="zero state"):
            compress_als(z, CompressionOptions(target_chi=1))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            CompressionOptions(target_chi=0)
        with pytest.raises(ValueError):
            CompressionOptions(convergence_tol=0.0)
        with pytest.raises(ValueError):
            CompressionOptions(max_sweeps=0)


class TestUnfoldingSpectra:
    def test_product_state(self):
        spectra = unfolding_spectra(np.array([1.0, 1.0, 1.0, 1.0]) / 2)
        assert len(spectra) == 1
        assert np.allclose(spectra[0], [1.0, 0.0], atol=1e-12)

    def test_bell_like(self):
        spectra = unfolding_spectra(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        assert np.allclose(spectra[0], [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_gaussian_decay(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        t = target_amplitudes(spec, 12)
        for s in unfolding_spectra(t):
            assert np.all(np.diff(s) <= 1e-15)
            assert s[1] / s[0] <= 0.1

    def test_count_and_shapes(self, rng):
        v = rng.standard_normal(2**5)
        spectra = unfolding_spectra(v)
        assert len(spectra) == 4
        for j, s in enumerate(spectra, start=1):
            assert len(s) == min(2**j, 2 ** (5 - j))


class TestBipartiteVne:
    def test_pure_product(self):
        assert bipartite_vne([1.0]) == 0.0

    def test_maximally_entangled(self):
        s = 1 / np.sqrt(2)
        assert bipartite_vne([s, s]) == pytest.approx(np.log(2), abs=1e-12)

    def test_normalizes_internally(self):
        assert bipartite_vne([2.0, 2.0]) == pytest.approx(np.log(2), abs=1e-12)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            bipartite_vne([0.0, 0.0])

    def test_vne_increment_bounded(self):
        # entropy growth from one added qubit stays below the analytic cap
        from mpsprep import max_derivative

        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))

        def max_cut_vne(n):
            t = target_amplitudes(spec, n)
            return max(bipartite_vne(s) for s in unfolding_spectra(t))

        width = 2.0
        for n in (6, 8, 10):
            dv = max_cut_vne(n + 1) - max_cut_vne(n)
            bound = width * np.sqrt(max_derivative(spec, n)) / 2 ** (n / 2 - 1)
            assert dv <= bound


class TestImmutability:
    def test_cores_read_only(self, rng):
        m = random_mps(4, 2, rng)
        with pytest.raises(ValueError):
            m.cores[0][0, 0, 0] = 5.0

    def test_operations_do_not_alias(self, rng):
        m = random_mps(4, 2, rng)
        before = m.to_statevector()
        m.canonicalize("left")
        m.normalize()
        tt_round(m, TruncationPolicy.rank(1))
        assert np.array_equal(m.to_statevector(), before)
