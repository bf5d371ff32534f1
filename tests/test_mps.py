import warnings

import numpy as np
import pytest

from mpsprep import (
    CompressionOptions,
    Grid,
    Mps,
    bipartite_vne,
    build_pipeline,
    compress_als,
    overlap,
    poly_mps,
    to_mps_exact,
    tt_round,
    unfolding_spectra,
)
from mpsprep.linalg import PRODUCT_TOL, truncated_svd
from mpsprep.circuits import _right_canonical
from mpsprep.mps import (
    _compress_head,
    _env_step,
    _env_target,
    _halves,
    _left_sweep,
    _split_product_tail,
)
from mpsprep.functions import (
    DistributionSpec,
    assemble,
    fit_piecewise,
    target_amplitudes,
)

from conftest import householder_qr, random_mps


def ones_product_state(n):
    return Mps([np.ones((1, 2, 1)) for _ in range(n)])


def duplicate_bonds(m):
    """The same state with every interior bond index doubled: each copy
    carries half the weight, so every bond is twice its rank."""
    cores = []
    for i, c in enumerate(m.cores):
        if i > 0:
            c = np.concatenate([c, c], axis=0) / 2
        if i < m.n_sites - 1:
            c = np.concatenate([c, c], axis=2)
        cores.append(c)
    return Mps(cores)


def right_isometry_deviation(m):
    """Largest deviation of cores 1..N-1 from right isometries."""
    dev = 0.0
    for core in m.cores[1:]:
        mat = core.reshape(len(core), -1)
        dev = max(dev, np.max(np.abs(mat @ mat.T - np.eye(len(core)))))
    return dev


class TestMpsConstructor:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one core"):
            Mps([])

    @pytest.mark.parametrize("shape", [(1, 2), (1, 3, 1), (1, 2, 1, 1)])
    def test_bad_shape_names_core(self, shape):
        with pytest.raises(ValueError, match=r"core 1 must have shape \(left, 2,"):
            Mps([np.ones((1, 2, 1)), np.ones(shape)])

    @pytest.mark.parametrize(
        "shapes", [[(2, 2, 1)], [(2, 2, 2), (2, 2, 1)], [(1, 2, 2), (2, 2, 2)]]
    )
    def test_boundary_bonds(self, shapes):
        with pytest.raises(ValueError, match="boundary bond dimensions must be 1"):
            Mps([np.ones(s) for s in shapes])

    def test_bond_mismatch(self):
        cores = [np.ones((1, 2, 2)), np.ones((2, 2, 2)), np.ones((3, 2, 1))]
        with pytest.raises(ValueError, match="between cores 1 and 2: 2 vs 3"):
            Mps(cores)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_core(self, rng, bad):
        cores = random_mps(6, 2, rng).cores
        for k in (1, 3, 5):
            copies = [c.copy() for c in cores]
            copies[k][-1, 1, -1] = bad
            with pytest.raises(ValueError, match=f"core {k} contains non-finite"):
                Mps(copies)

    def test_stores_a_read_only_c_ordered_copy(self, rng):
        src = [rng.standard_normal(s) for s in ((1, 2, 2), (2, 2, 3), (3, 2, 1))]
        m = Mps(src)
        before = m.to_statevector()
        for c in src:
            c[...] = 7.0
        assert np.array_equal(m.to_statevector(), before)
        mirrored = Mps([c.transpose(2, 1, 0) for c in reversed(m.cores)])
        for c in m.cores + mirrored.cores:
            assert c.flags.c_contiguous and not c.flags.writeable

    def test_repeated_core_object_is_one_read_only_copy(self):
        # A compressed chain repeats one |+> core object along its tail.
        plus = np.full((1, 2, 1), np.sqrt(0.5))
        m = Mps([plus] * 5)
        assert all(c is m.cores[0] for c in m.cores) and m.cores[0] is not plus
        before = m.to_statevector()
        plus[...] = 7.0
        assert np.array_equal(m.to_statevector(), before)
        assert np.allclose(before, np.full(32, 0.5**2.5), rtol=1e-15, atol=0)
        for c in m.cores:
            assert c.flags.c_contiguous and not c.flags.writeable
        with pytest.raises(ValueError):
            m.cores[3][0, 0, 0] = 5.0

    def test_repeated_non_finite_core_names_its_first_index(self):
        good, bad = np.ones((1, 2, 1)), np.full((1, 2, 1), np.nan)
        with pytest.raises(ValueError, match="^core 2 contains non-finite"):
            Mps([good, good, bad, good, bad, bad])

    def test_a_generator_of_temporary_cores(self, rng):
        # Each core is a temporary; a later one may reuse a freed core's
        # address and must not be taken for it.
        src = random_mps(6, 2, rng)
        m = Mps(c.copy() for c in src.cores)
        assert all(np.array_equal(a, b) for a, b in zip(m.cores, src.cores))


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

    @pytest.mark.parametrize(
        "bits, match",
        [
            ([0, 1.7, 0], "bits must be an integer"),
            ([0, True, 0], "bits must be an integer"),
            ([0, 2, 0], "bits must be 0 or 1"),
            ("021", "bits must be 0 or 1"),
            ("0a1", "bits must be 0 or 1"),
            (["0", "10", "1"], "bits must be 0 or 1"),
        ],
        ids=["float", "bool", "int-2", "str-2", "str-letter", "str-two-chars"],
    )
    def test_rejects_an_entry_that_is_not_a_bit(self, bits, match):
        with pytest.raises(ValueError, match=match):
            ones_product_state(3).amplitude(bits)

    def test_numpy_integer_bits(self):
        m = poly_mps([0.0, 1.0], Grid(2, 0.0, 3.0))
        assert m.amplitude(np.array([1, 0])) == m.amplitude("10")


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


def _reference_to_statevector(m):
    # The loop `to_statevector` ran before the cut shared it, kept as the reference.
    psi = m.cores[0].reshape(2, -1)
    for core in m.cores[1:]:
        right = core.shape[2]
        psi = psi.reshape(-1, core.shape[0]) @ core.reshape(core.shape[0], -1)
        psi = psi.reshape(-1, right)
    return psi.reshape(-1)


class TestHalves:
    SPEC = DistributionSpec("lorentzian", mu=1.0, sigma=0.2, domain=(0.0, 2.0))

    def _states(self, n, rng):
        grid = Grid.for_spec(self.SPEC, n)
        pp = fit_piecewise(self.SPEC, grid, min(3, n - 1), 3)
        return [random_mps(n, 4, rng).normalize(), assemble(pp, grid)]

    def test_head_times_tail_is_the_state(self, rng):
        for n in range(1, 17):
            for m in self._states(n, rng):
                v = m.to_statevector()
                for h in range(n + 1):
                    head, tail = _halves(m, h)
                    bond = m.bond_dims[h]
                    assert head.shape == (2**h, bond)
                    assert tail.shape == (bond, 2 ** (n - h))
                    err = np.max(np.abs((head @ tail).reshape(-1) - v))
                    assert err <= 1e-14 * np.max(np.abs(v)), (n, h)

    def test_statevector_bit_identical_to_reference_loop(self, rng):
        for n in range(1, 15):
            for m in self._states(n, rng) + [random_mps(n, 3, rng, scaled=True)]:
                assert np.array_equal(m.to_statevector(), _reference_to_statevector(m))


class TestToMpsExact:
    def test_basis_state_is_product(self):
        m = to_mps_exact([1.0, 0.0, 0.0, 0.0])
        assert m.max_bond == 1
        assert np.allclose(m.to_statevector(), [1, 0, 0, 0])

    def test_gaussian_chi2_fidelity(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        t = target_amplitudes(spec, 10)
        m = to_mps_exact(t, 2).normalize()
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
        m = to_mps_exact(v, chi)
        err2 = np.sum((m.to_statevector() - v) ** 2)
        bound = sum(np.sum(s[chi:] ** 2) for s in unfolding_spectra(v))
        assert err2 <= bound + 1e-10

    def test_bonds_are_numerical_rank(self):
        # Each bond counts the cut's Schmidt values above 1e-13 of its
        # largest; cut 6 has 64 values, of which 5 are not round-off.
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        t = target_amplitudes(spec, 12)
        m = to_mps_exact(t)
        ranks = [int(np.sum(s > 1e-13 * s[0])) for s in unfolding_spectra(t)]
        assert m.bond_dims[1:-1] == tuple(ranks)
        assert m.bond_dims[6] == 5
        assert np.max(np.abs(m.to_statevector() - t)) <= 1e-12

    def test_single_site(self):
        m = to_mps_exact([3.0, 4.0])
        assert m.bond_dims == (1, 1)
        assert np.allclose(m.to_statevector(), [3.0, 4.0], atol=1e-14)
        assert np.allclose(tt_round(m).to_statevector(), [3.0, 4.0], atol=1e-14)

    def test_invalid_max_rank(self, rng):
        v = rng.standard_normal(16)
        for bad in (0, 2.5, True, "2"):
            for vec in (v, [1.0, 0.0]):  # a one-site chain has no cut
                with pytest.raises(ValueError, match="max_rank"):
                    to_mps_exact(vec, bad)
        assert to_mps_exact(v, np.int64(2)).max_bond == 2


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

    def test_norm_of_long_chains_is_finite(self):
        # <m|m> passes the float range from N = 1024 on, so the unscaled walk
        # overflows; the norm grows as 2^(N/2), the fit being the same
        spec = DistributionSpec("gaussian", mu=1e100, sigma=1e100, domain=(0.0, 2e100))

        def norm(n):
            g = Grid.for_spec(spec, n)
            return assemble(fit_piecewise(spec, g, 3, 3), g).norm()

        base = norm(1023)
        for n in (1026, 1100):
            assert norm(n) == pytest.approx(base * 2 ** ((n - 1023) / 2), rel=1e-14)

    def test_norm_is_the_unscaled_walk_where_finite(self):
        # scaling by powers of 4 is exact: bit for bit the unscaled
        # sqrt(overlap(m, m)), on assembled and compressed chains
        spec = DistributionSpec("gaussian", mu=1e100, sigma=1e100, domain=(0.0, 2e100))
        g = Grid.for_spec(spec, 1023)
        chains = [assemble(fit_piecewise(spec, g, 3, 3), g)]
        for kind, domain in (("gaussian", (0.0, 2.0)), ("lognormal", (0.0, 5.0))):
            for n, sigma in ((5, 0.1), (13, 0.44), (20, 1.0)):
                spec = DistributionSpec(kind, 1.0, sigma, domain)
                res = build_pipeline(spec, n, degree=5)
                chains += [res.assembled, res.compressed]
        for m in chains:
            assert m.norm() == float(np.sqrt(max(overlap(m, m), 0.0)))

    def test_site_mismatch(self):
        with pytest.raises(ValueError, match="site count"):
            overlap(ones_product_state(3), ones_product_state(4))

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
        assert right_isometry_deviation(c) <= 1e-10

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
        r = tt_round(m, 4)
        scale = np.max(np.abs(m.to_statevector()))
        assert np.max(np.abs(r.to_statevector() - m.to_statevector())) <= 1e-10 * scale

    def test_redundant_embedding_recovers(self, rng):
        m = random_mps(6, 2, rng)
        doubled = duplicate_bonds(m)
        assert doubled.max_bond == 4
        r = tt_round(doubled, 2)
        a = r.to_statevector() / np.linalg.norm(r.to_statevector())
        b = doubled.to_statevector() / np.linalg.norm(doubled.to_statevector())
        assert abs(np.dot(a, b)) >= 1.0 - 1e-10

    def test_uncapped_round_drops_redundant_bonds(self):
        m = poly_mps([0.5, -1.0, 0.25, 2.0], Grid(6, -1.0, 1.0))
        doubled = duplicate_bonds(m)
        assert doubled.bond_dims[1:-1] == tuple(2 * b for b in m.bond_dims[1:-1])
        r = tt_round(doubled)
        assert r.bond_dims == tt_round(m).bond_dims
        assert r.max_bond <= 4
        want = m.to_statevector()
        assert np.max(np.abs(r.to_statevector() - want)) <= 1e-10 * np.max(np.abs(want))

    def test_max_bond_respected(self, rng):
        m = random_mps(8, 6, rng)
        assert tt_round(m, 3).max_bond <= 3

    def test_result_right_canonical(self, rng):
        # The input is taken in any gauge; the result needs no further pass.
        doubled = duplicate_bonds(random_mps(6, 2, rng))
        for m in (random_mps(8, 6, rng), doubled, doubled.canonicalize("right")):
            for chi in (1, 2, 8):
                r = tt_round(m, chi)
                assert right_isometry_deviation(r) <= 1e-12

    def test_piecewise_sum_matches_dense_oracle(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        grid = Grid(10, 0.0, 2.0)
        big = assemble(fit_piecewise(spec, grid, 3, 3), grid)
        assert big.max_bond == 4
        rounded = tt_round(big, 2).normalize()
        dense = big.to_statevector()
        oracle = to_mps_exact(dense, 2).normalize()
        f_round = abs(np.dot(rounded.to_statevector(), dense / np.linalg.norm(dense)))
        f_oracle = abs(np.dot(oracle.to_statevector(), dense / np.linalg.norm(dense)))
        assert f_round == pytest.approx(f_oracle, abs=1e-6)

    def test_invalid_max_rank(self, rng):
        m = random_mps(5, 3, rng)
        for bad in (0, 2.5, True, "2"):
            for chain in (m, ones_product_state(1)):  # one site: no cut
                with pytest.raises(ValueError, match="max_rank"):
                    tt_round(chain, bad)
        assert tt_round(m, np.int64(2)).max_bond == 2


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
        init = tt_round(m, 2).normalize()
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
        with pytest.raises(ValueError, match="convergence_tol"):
            CompressionOptions(convergence_tol=float("nan"))
        for name, bad in [
            ("max_sweeps", 2.5), ("max_sweeps", True), ("max_sweeps", "3"),
            ("target_chi", 2.0), ("target_chi", True), ("target_chi", "2"),
        ]:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                CompressionOptions(**{name: bad})
        opts = CompressionOptions(target_chi=np.int64(3), max_sweeps=np.int32(4))
        assert type(opts.target_chi) is int and type(opts.max_sweeps) is int
        assert opts == CompressionOptions(target_chi=3, max_sweeps=4)
        for bad in ("1e-3", True, float("nan")):
            with pytest.raises(ValueError, match="convergence_tol must be"):
                CompressionOptions(convergence_tol=bad)
        opts = CompressionOptions(convergence_tol=np.float64(1e-8))
        assert type(opts.convergence_tol) is float
        assert opts == CompressionOptions(convergence_tol=1e-8)


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


class TestContractions:
    """The matmul contractions against their tensordot formulas."""

    BONDS = (1, 2, 3, 5)

    def _bonds(self, rng, k):
        return [int(b) for b in rng.choice(self.BONDS, size=k)]

    def test_env_step(self, rng):
        for _ in range(40):
            a, b, c, d = self._bonds(rng, 4)
            env = rng.standard_normal((a, b))
            ca, cb = rng.standard_normal((a, 2, c)), rng.standard_normal((b, 2, d))
            tmp = np.tensordot(env, ca, axes=([0], [0]))
            want = np.tensordot(tmp, cb, axes=([0, 1], [0, 1]))
            got = _env_step(env, ca, cb)
            assert got.shape == want.shape == (c, d)
            assert _relative_gap(got, want) <= 1e-15

    def test_local_target(self, rng):
        for _ in range(40):
            a, b, c, d = self._bonds(rng, 4)
            left, right = rng.standard_normal((a, b)), rng.standard_normal((c, d))
            t = rng.standard_normal((b, 2, d))
            tmp = np.tensordot(left, t, axes=([1], [0]))
            want = np.tensordot(tmp, right, axes=([2], [1]))
            got = (_env_target(left, t) @ right.T).reshape(a, 2, c)
            assert got.shape == want.shape == (a, 2, c)
            assert _relative_gap(got, want) <= 1e-15

    def test_env_from_env_target(self, rng):
        # The half sweep's next environment, q^T @ (env times target),
        # is the environment step over the pair (q, target).
        for _ in range(40):
            a, b, c, d = self._bonds(rng, 4)
            env = rng.standard_normal((a, b))
            q, t = rng.standard_normal((a, 2, c)), rng.standard_normal((b, 2, d))
            got = q.reshape(-1, c).T @ _env_target(env, t)
            want = _env_step(env, q, t)
            assert got.shape == want.shape == (c, d)
            assert _relative_gap(got, want) <= 1e-15

    def test_left_sweep_carry(self, rng):
        for _ in range(20):
            bonds = [1] + self._bonds(rng, 4) + [1]
            cores = [
                rng.standard_normal((bonds[i], 2, bonds[i + 1])) for i in range(5)
            ]
            want = list(cores)
            for i in range(4):
                al, _, ar = want[i].shape
                q, carry = householder_qr(want[i].reshape(al * 2, ar))
                want[i] = q.reshape(al, 2, q.shape[1])
                want[i + 1] = np.tensordot(carry, want[i + 1], axes=([1], [0]))
            got = _left_sweep(list(cores), householder_qr)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert _relative_gap(g, w) <= 1e-15


class TestCompressExtremeNorms:
    """compress_als never squares the input's norm: core 0 scaled by 2^e
    gives the compression of the unscaled input, with no warning."""

    def _scaled(self, m, e):
        return Mps((np.ldexp(m.cores[0], e),) + m.cores[1:])

    def test_far_past_the_square_range(self, rng):
        m = random_mps(8, 3, rng)
        base = compress_als(m, CompressionOptions())
        for e in (-1000, -600, -520, 511, 600, 1000):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = compress_als(self._scaled(m, e), CompressionOptions())
            assert not caught, e
            assert got.bond_dims == base.bond_dims, e
            for a, b in zip(got.cores, base.cores):
                assert np.max(np.abs(a - b)) <= 1e-15, e

    def test_bit_identical_inside_it(self, rng):
        m = random_mps(8, 3, rng)
        base = compress_als(m, CompressionOptions())
        for e in (-400, 400):
            got = compress_als(self._scaled(m, e), CompressionOptions())
            for a, b in zip(got.cores, base.cores):
                assert np.array_equal(a, b), e


class TestSweepZeroStoppingRule:
    """The truncated-SVD start counts as sweep 0 of compress_als."""

    @pytest.mark.parametrize(
        "kind,domain",
        [
            ("gaussian", (0.0, 2.0)),
            ("lognormal", (0.0, 5.0)),
            ("lorentzian", (0.0, 2.0)),
        ],
    )
    def test_converged_start_costs_one_sweep(self, kind, domain):
        spec = DistributionSpec(kind, mu=1.0, sigma=1.0, domain=domain)
        grid = Grid(64, *spec.domain)
        m = assemble(fit_piecewise(spec, grid, 3, 3), grid)
        default = compress_als(m, CompressionOptions())
        one = compress_als(m, CompressionOptions(max_sweeps=1))
        for a, b in zip(default.cores, one.cores):
            assert np.array_equal(a, b)

    def test_unconverged_start_sweeps_on(self, rng):
        m = random_mps(8, 8, rng)
        opts = CompressionOptions(target_chi=2)
        start = tt_round(m, 2)
        f_start = abs(overlap(start, m)) / start.norm()
        one = compress_als(m, CompressionOptions(target_chi=2, max_sweeps=1))
        f_one = abs(overlap(one, m))
        assert f_one - f_start > opts.convergence_tol * f_one  # sweep 1 gains
        more = compress_als(m, opts)
        assert not all(np.array_equal(a, b) for a, b in zip(more.cores, one.cores))
        assert abs(overlap(more, m)) >= f_one - 1e-12 * f_one


def _reference_right_canonical(cores):
    # Right-to-left QR sweep as written before passes ran on the mirror.
    cores = list(cores)
    for i in range(len(cores) - 1, 0, -1):
        al, _, ar = cores[i].shape
        q, r = householder_qr(cores[i].reshape(al, 2 * ar).T)
        cores[i] = q.T.reshape(q.shape[1], 2, ar)
        cores[i - 1] = np.tensordot(cores[i - 1], r.T, axes=([2], [0]))
    return cores


def _reference_compress_als(m, opts):
    # compress_als with its two hand-mirrored half sweeps, its own
    # tt_round loops (left-to-right QR, then right-to-left SVD, which
    # leaves the start right-canonical) and separate left and right
    # environment arrays.
    n = m.n_sites
    work = list(m.cores)
    for i in range(n - 1):
        al, _, ar = work[i].shape
        q, r = householder_qr(work[i].reshape(al * 2, ar))
        work[i] = q.reshape(al, 2, q.shape[1])
        work[i + 1] = np.tensordot(r, work[i + 1], axes=([1], [0]))
    for i in range(n - 1, 0, -1):
        al, _, ar = work[i].shape
        res = truncated_svd(work[i].reshape(al, 2 * ar), opts.target_chi)
        work[i] = res.vt.reshape(len(res.s), 2, ar)
        carry = res.u * res.s
        work[i - 1] = np.tensordot(work[i - 1], carry, axes=([2], [0]))
    t_cores = m.cores
    right_env = [None] * (n + 1)
    left_env = [None] * (n + 1)
    right_env[n] = np.ones((1, 1))
    left_env[0] = np.ones((1, 1))
    for i in range(n - 1, 0, -1):
        tmp = np.tensordot(work[i], right_env[i + 1], axes=([2], [0]))
        right_env[i] = np.tensordot(tmp, t_cores[i], axes=([1, 2], [1, 2]))

    def local_target(i):
        tmp = np.tensordot(left_env[i], t_cores[i], axes=([1], [0]))
        return np.tensordot(tmp, right_env[i + 1], axes=([2], [1]))

    def unit_end_core(i):
        b = local_target(i)
        nrm = np.linalg.norm(b)
        return b / nrm, float(nrm)

    ovl = -np.inf
    for _ in range(opts.max_sweeps):
        for i in range(n - 1):
            b = local_target(i)
            al, _, ar = b.shape
            q, _ = householder_qr(b.reshape(al * 2, ar))
            work[i] = q.reshape(al, 2, q.shape[1])
            tmp = np.tensordot(left_env[i], work[i], axes=([0], [0]))
            left_env[i + 1] = np.tensordot(tmp, t_cores[i], axes=([0, 1], [0, 1]))
        work[n - 1], _ = unit_end_core(n - 1)
        for i in range(n - 1, 0, -1):
            b = local_target(i)
            al, _, ar = b.shape
            q, _ = householder_qr(b.reshape(al, 2 * ar).T)
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


class TestMirroredPassesMatchReference:
    @pytest.mark.parametrize("n,chi", [(1, 1), (2, 2), (5, 3), (7, 6), (10, 8)])
    def test_right_canonical_cores(self, rng, n, chi):
        for _ in range(5):
            m = random_mps(n, chi, rng)
            got = m.canonicalize("right").cores
            want = _reference_right_canonical(m.cores)
            assert [c.shape for c in got] == [c.shape for c in want]
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_compress_als(self, rng):
        inputs = [random_mps(n, chi, rng) for n, chi in ((3, 2), (6, 4), (8, 8))]
        inputs.append(random_mps(40, 6, rng, scaled=True))
        for kind, domain in (("gaussian", (0.0, 2.0)), ("lognormal", (0.0, 5.0))):
            spec = DistributionSpec(kind, mu=1.0, sigma=0.3, domain=domain)
            grid = Grid(12, *spec.domain)
            inputs.append(assemble(fit_piecewise(spec, grid, 3, 3), grid))
        for m in inputs:
            for chi in (1, 2):
                opts = CompressionOptions(target_chi=chi)
                got, want = compress_als(m, opts), _reference_compress_als(m, opts)
                nrm = m.norm()
                f_got = abs(overlap(got, m)) / nrm
                f_want = abs(overlap(want, m)) / nrm
                assert f_got == pytest.approx(f_want, abs=1e-12)
                assert abs(overlap(got, want)) >= 1.0 - 1e-12


def _with_product_tail(head, mats) -> Mps:
    """The ``head`` cores followed by one core per matrix, both of its
    slices equal to that matrix."""
    return Mps(list(head) + [np.stack([a, a], axis=1) for a in mats])


class TestProductTail:
    """compress_als sets a trailing run of |+> cores aside."""

    PLUS = np.full((1, 2, 1), np.sqrt(0.5))

    def test_random_cores_have_no_tail(self, rng):
        for n, chi in ((1, 1), (5, 3), (9, 4)):
            m = random_mps(n, chi, rng)
            h, fold = _split_product_tail(m.cores)
            assert h == n and np.array_equal(fold, np.ones((1, 1)))
            opts = CompressionOptions(target_chi=2)
            got, want = compress_als(m, opts).cores, _compress_head(m, opts)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n_head,t", [(2, 1), (6, 6), (8, 5), (5, 9)])
    def test_equal_slices_become_plus_cores(self, rng, n_head, t):
        bonds = [min(4, 2**i) for i in range(n_head + 1)]
        head = [rng.standard_normal((bonds[i], 2, bonds[i + 1])) for i in range(n_head)]
        mats = [rng.standard_normal((4, 4)) for _ in range(t - 1)]
        m = _with_product_tail(head, mats + [rng.standard_normal((4, 1))])
        assert _split_product_tail(m.cores)[0] == n_head
        opts = CompressionOptions(target_chi=2)
        c = compress_als(m, opts)
        assert c.max_bond <= 2
        assert all(np.array_equal(core, self.PLUS) for core in c.cores[-t:])
        assert _right_canonical(c.cores)
        v, w = m.to_statevector(), c.to_statevector()
        dense = abs(v @ w) / np.linalg.norm(v)
        assert abs(overlap(m, c)) / m.norm() == pytest.approx(dense, abs=1e-13)
        # The tail costs nothing: the full-chain sweeps reach the same
        # fidelity, and the result is no worse than its SVD start.
        ref = _reference_compress_als(m, opts).to_statevector()
        assert dense == pytest.approx(abs(v @ ref) / np.linalg.norm(v), abs=1e-12)
        start = tt_round(m, 2).normalize().to_statevector()
        assert dense >= abs(v @ start) / np.linalg.norm(v) - 1e-13

    def test_degree_zero_head_is_support_bit(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=0.5, domain=(0.0, 2.0))
        grid = Grid(10, *spec.domain)
        for k in (1, 3, 5):
            m = assemble(fit_piecewise(spec, grid, k, 0), grid)
            assert _split_product_tail(m.cores)[0] == k
            c = compress_als(m, CompressionOptions(target_chi=2))
            assert all(np.array_equal(core, self.PLUS) for core in c.cores[k:])
            assert abs(overlap(c, m)) / m.norm() >= 0.99

    def test_product_at_every_site(self, rng):
        mats = [rng.standard_normal((1, 2))] + [
            rng.standard_normal((2, 2)) for _ in range(6)
        ] + [rng.standard_normal((2, 1))]
        m = _with_product_tail([], mats)
        h, _ = _split_product_tail(m.cores)
        assert h == 1
        c = compress_als(m, CompressionOptions(target_chi=1))
        assert c.bond_dims == (1,) * 9
        assert abs(overlap(c, m)) / m.norm() == pytest.approx(1.0, abs=1e-13)
        assert all(np.array_equal(core, self.PLUS) for core in c.cores[1:])

    @pytest.mark.parametrize("scale", [1e-80, 1.0, 1e80])
    def test_tolerance_is_relative_to_the_core(self, rng, scale):
        head = [rng.standard_normal((1, 2, 2))]
        a = rng.standard_normal((2, 1)) * scale
        step = np.abs(a).max() * PRODUCT_TOL * np.array([[1.0], [0.0]])
        for gap, h in ((0.5, 1), (2.0, 2)):
            m = Mps(head + [np.stack([a, a + gap * step], axis=1)])
            assert _split_product_tail(m.cores)[0] == h

    def test_zero_tail_is_the_zero_state(self, rng):
        head = random_mps(5, 2, rng)
        zero = Mps(list(head.cores) + [np.zeros((1, 2, 1))] * 3)
        with pytest.raises(ValueError, match="cannot compress the zero state"):
            compress_als(zero, CompressionOptions(target_chi=1))


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

    @pytest.mark.parametrize(
        "v, match",
        [
            ([np.inf, 1.0, 1.0, 1.0], "non-finite"),
            ([np.nan, 1.0, 1.0, 1.0], "non-finite"),
            ([1.0], "power of two >= 2"),
            ([1.0] * 6, "power of two >= 2"),
        ],
    )
    def test_bad_input_rejected(self, v, match):
        # the one dense-vector check, shared with to_mps_exact
        for fn in (unfolding_spectra, to_mps_exact):
            with pytest.raises(ValueError, match=match):
                fn(np.array(v))


class TestBipartiteVne:
    def test_pure_product(self):
        assert bipartite_vne([1.0]) == 0.0

    def test_maximally_entangled(self):
        s = 1 / np.sqrt(2)
        assert bipartite_vne([s, s]) == pytest.approx(np.log(2), abs=1e-12)

    def test_normalizes_internally(self):
        for scale in (2.0, 1e-170, 1e154):  # no square under- or overflows
            assert bipartite_vne([scale, scale]) == pytest.approx(np.log(2), abs=1e-12)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            bipartite_vne([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_invalid_spectrum_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            bipartite_vne([bad, 1.0])

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
        tt_round(m, 1)
        assert np.array_equal(m.to_statevector(), before)
