import numpy as np
import pytest

from mpsprep import (
    Circuit,
    DistributionSpec,
    Gate,
    build_pipeline,
    error_decomposition,
    extract_circuit,
    fidelity,
    run,
)

from conftest import random_mps


def hadamard_like():
    s = 1 / np.sqrt(2)
    return np.array([[s, s], [s, -s]])


class TestRun:
    def test_empty_circuit(self):
        assert np.allclose(run(Circuit(n_qubits=3, gates=())), np.eye(8)[0])

    def test_single_qubit_gate_msb(self):
        circ = Circuit(n_qubits=2, gates=(Gate((0,), hadamard_like()),))
        s = 1 / np.sqrt(2)
        assert np.allclose(run(circ), [s, 0.0, s, 0.0], atol=1e-14)

    def test_single_qubit_gate_lsb(self):
        circ = Circuit(n_qubits=2, gates=(Gate((1,), hadamard_like()),))
        s = 1 / np.sqrt(2)
        assert np.allclose(run(circ), [s, s, 0.0, 0.0], atol=1e-14)

    def test_matches_extraction_oracle(self, rng):
        m = random_mps(7, 2, rng).normalize()
        circ = extract_circuit(m)
        assert np.max(np.abs(run(circ) - m.to_statevector())) <= 1e-8

    def test_norm_preserved(self, rng):
        m = random_mps(9, 2, rng).normalize()
        psi = run(extract_circuit(m))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)

    def test_two_qubit_nonadjacent(self):
        # swap-like orthogonal gate applied across a gap
        swap = np.eye(4)[[0, 2, 1, 3]]
        h = Gate((0,), hadamard_like())
        circ = Circuit(n_qubits=3, gates=(h, Gate((0, 2), swap)))
        s = 1 / np.sqrt(2)
        want = np.zeros(8)
        want[0] = s  # |000>
        want[1] = s  # |001> after swapping qubits 0 and 2
        assert np.allclose(run(circ), want, atol=1e-14)

    def test_dense_limit(self, monkeypatch):
        monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "2")
        with pytest.raises(ValueError, match="limit"):
            run(Circuit(n_qubits=3, gates=()))


class TestFidelity:
    def test_self(self, rng):
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        assert fidelity(v, v) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self):
        assert fidelity(np.eye(4)[0], np.eye(4)[1]) == 0.0

    def test_analytic_overlap(self):
        s = 1 / np.sqrt(2)
        assert fidelity([1.0, 0.0], [s, s]) == pytest.approx(s, abs=1e-14)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(10):
            a = rng.standard_normal(32)
            b = rng.standard_normal(32)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert fidelity(a, b) == fidelity(b, a)
            assert 0.0 <= fidelity(a, b) <= 1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.ones(4), np.ones(8))


class TestErrorDecomposition:
    def test_lossless_pipeline(self):
        spec = DistributionSpec(
            "custom", domain=(0.0, 2.0), pdf_fn=lambda x: (np.asarray(x) + 1.0) ** 2
        )
        dec = error_decomposition(build_pipeline(spec, 8, support_bit=0, degree=1))
        assert dec.pp_error <= 1e-8
        assert dec.mps_error <= 1e-8
        assert dec.gate_error <= 1e-8
        assert dec.total <= 1e-8
        assert dec.shares == {"pp": 0.0, "mps": 0.0, "gate": 0.0} or dec.total > 0

    def test_compression_dominates_squeezed_gaussian(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=0.1, domain=(0.0, 2.0))
        dec = error_decomposition(build_pipeline(spec, 7))
        shares = dec.shares
        assert shares["mps"] > shares["pp"]
        assert shares["mps"] > shares["gate"]

    def test_lognormal_fit_share_exceeds_gaussian(self):
        logn = DistributionSpec("lognormal", mu=1.0, sigma=0.1, domain=(0.0, 5.0))
        gauss = DistributionSpec("gaussian", mu=1.0, sigma=0.1, domain=(0.0, 2.0))
        s_logn = error_decomposition(build_pipeline(logn, 7)).shares["pp"]
        s_gauss = error_decomposition(build_pipeline(gauss, 7)).shares["pp"]
        assert s_logn > s_gauss

    @pytest.mark.parametrize("sigma", [0.1, 0.6, 1.0])
    def test_composition_consistency(self, sigma):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=sigma, domain=(0.0, 2.0))
        dec = error_decomposition(build_pipeline(spec, 8))
        product = (1 - dec.pp_error) * (1 - dec.mps_error) * (1 - dec.gate_error)
        assert 1 - dec.total >= product - 1e-6
