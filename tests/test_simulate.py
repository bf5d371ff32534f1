import tracemalloc

import numpy as np
import pytest

from mpsprep import (
    Circuit,
    DistributionSpec,
    Gate,
    Grid,
    RunConfig,
    build_pipeline,
    encode,
    error_decomposition,
    extract_circuit,
    fidelity,
    run,
    target_amplitudes,
)
from mpsprep import functions
from mpsprep.simulate import _stage
from conftest import FAMILIES, NARROW_LORENTZIAN, polyval_values, random_mps


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


class TestStage:
    def test_keeps_a_message_that_is_not_a_str(self):
        # A float power past range raises OverflowError(34, "..."); the stage
        # prefix must keep its cause and its type, and record no timing.
        timings = {}
        with pytest.raises(
            OverflowError, match=r"^fit stage: .*Numerical result out of range"
        ) as info:
            with _stage("fit", timings):
                raise OverflowError(34, "Numerical result out of range")
        assert info.value.args == ("fit stage: (34, 'Numerical result out of range')",)
        assert timings == {}

    def test_prefixes_a_str_message_and_keeps_the_rest(self):
        with pytest.raises(KeyError) as info:
            with _stage("compress", {}):
                raise KeyError("missing", 3)
        assert info.value.args == ("compress stage: missing", 3)

    def test_names_the_stage_of_a_bare_exception(self):
        with pytest.raises(ZeroDivisionError, match="^extract stage failed$"):
            with _stage("extract", {}):
                raise ZeroDivisionError


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


class TestTargetOutsideFloatSquares:
    """A target whose squares leave the float range is normed at a
    power-of-two scale: its figures match a reference taken in log space."""

    CELLS = {
        # exp(-z^2/4) is about 1e-220 on the grid: every square underflows
        "gaussian": (
            DistributionSpec("gaussian", mu=0.0, sigma=1.0, domain=(45.0, 47.0)),
            lambda xs: -xs**2 / 4,
        ),
        # squares of about 1e-320 sum to a subnormal float that keeps only
        # about 8 digits: amplitudes normed by it are off by 2e-8, and the
        # fidelity by 2e-7
        "gaussian-subnormal": (
            DistributionSpec("gaussian", mu=0.0, sigma=1.0, domain=(38.3, 38.5)),
            lambda xs: -xs**2 / 4,
        ),
        # the shape 1/sqrt(1 + z^2) is about 1e-280 at z = x / 1e-300
        "lorentzian": (
            DistributionSpec("lorentzian", mu=0.0, sigma=1e-300, domain=(1e-20, 2e-20)),
            lambda xs: -np.log(np.hypot(1e-300, xs)),
        ),
        # sqrt(pdf) is 1e154: the sum of 1024 squares overflows
        "overflow": (
            DistributionSpec("custom", domain=(0.0, 1.0), pdf_fn=lambda x: 1e308 + 0 * x),
            lambda xs: np.zeros_like(xs),
        ),
    }

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_figures_match_log_space_reference(self, cell):
        spec, log_amp = self.CELLS[cell]
        n = 10
        logs = log_amp(Grid(n, *spec.domain).points())
        want = np.exp(logs - np.max(logs))
        want /= np.linalg.norm(want)
        assert np.max(np.abs(target_amplitudes(spec, n) - want)) <= 1e-12
        _, report = encode(RunConfig(spec=spec, n_qubits=n))
        res, dec = report.result, report.errors
        a = res.assembled.to_statevector()
        assert abs(dec.pp_error - (1.0 - abs(want @ a) / np.linalg.norm(a))) <= 1e-12
        assert abs(dec.fidelity - abs(want @ run(res.circuit))) <= 1e-12


class TestFitErrorMatchesPolyval:
    DOMAINS = {
        "gaussian": (0.0, 2.0), "lorentzian": (0.0, 2.0), "lognormal": (0.0, 5.0)
    }

    @staticmethod
    def _check(spec, n, p):
        # pp_error comes from the assembled MPS; the reference evaluates the
        # fit's polynomials directly on the grid.
        res = build_pipeline(spec, n, degree=p)
        v = polyval_values(res.piecewise, res.grid)
        want = 1.0 - abs(target_amplitudes(spec, n) @ v) / np.linalg.norm(v)
        assert abs(error_decomposition(res).pp_error - want) <= 1e-13, (n, p)

    @pytest.mark.parametrize("kind", sorted(DOMAINS))
    def test_pp_error_matches_polyval_fit(self, kind):
        spec = DistributionSpec(kind, mu=1.0, sigma=0.44, domain=self.DOMAINS[kind])
        for n in (5, 10, 16):
            for p in (3, 5):
                self._check(spec, n, p)

    def test_degree_20(self):
        # At p=20 the fit's design has condition number ~2e7; the assembled
        # state must still carry the fit, and its norm, to round-off.
        self._check(NARROW_LORENTZIAN, 16, 20)


class TestDegree20Norm:
    """At p=20 the one norm of the assembled MPS, Mps.norm, is exact to round-off."""

    @pytest.fixture(scope="class")
    def result(self):
        return build_pipeline(NARROW_LORENTZIAN, 16, degree=20)

    def test_assembled_norm_matches_dense(self, result):
        want = np.linalg.norm(result.assembled.to_statevector())
        assert abs(result.assembled.norm() - want) <= 1e-14 * want

    def test_mps_error_matches_dense(self, result):
        a = result.assembled.to_statevector()
        c = result.compressed.to_statevector()
        want = 1.0 - abs(a @ c) / np.linalg.norm(a)
        assert abs(error_decomposition(result).mps_error - want) <= 1e-13


class TestSplitOverlap:
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.kind)
    def test_matches_dense_overlap(self, spec):
        # error_decomposition against the dense circuit and assembled states;
        # N = 1 and 2 cut at h = 0 and h = 1: an empty head, then one site.
        for n in range(1, 17):
            res = build_pipeline(spec, n, support_bit=min(3, n - 1))
            dec = error_decomposition(res)
            target = target_amplitudes(spec, n)
            a = res.assembled.to_statevector()
            want_pp = 1.0 - min(abs(target @ a) / np.linalg.norm(a), 1.0)
            want_total = 1.0 - min(abs(target @ run(res.circuit)), 1.0)
            assert abs(dec.total - want_total) <= 1e-14, n
            assert abs(dec.pp_error - want_pp) <= 1e-14, n
            assert {type(x) for x in vars(dec).values()} == {float}

    def test_no_dense_circuit_state(self):
        # The circuit's state is read as an MPS, never as a 2^N vector: the
        # traced peak stays well below the 2.5 vectors of 2^N floats that a
        # dense circuit state and its simulation would take. (The target is
        # read in blocks; test_target_is_read_in_blocks bounds it.)
        n = 18
        assert _traced_peak(n) <= 2.5 * 8 * 2**n

    def test_target_is_the_only_dense_vector(self):
        # The fit is read off the assembled MPS's two halves, so no 2^N
        # vector of it is made; nor of the target, which is read in blocks:
        # the traced peak stays under a quarter more than one 2^N vector.
        n = 22
        assert _traced_peak(n) <= 1.25 * 8 * 2**n

    def test_target_is_read_in_blocks(self):
        # No 2^N vector: the traced peak is a block of the target and its
        # grid points, a fraction of one 2^N vector.
        n = 22
        assert _traced_peak(n) <= 0.25 * 8 * 2**n

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("block", [20, 200])
    def test_block_size_keeps_figures(self, spec, block, monkeypatch):
        # N = 11 cuts at h = 5 into rows of 64 points. A block of 20 is
        # smaller than a row, so each block is one whole row; one of 200
        # holds three rows, 192 points, which do not divide the 2048-point
        # grid.
        res = build_pipeline(spec, 11)
        want = vars(error_decomposition(res))
        monkeypatch.setattr(functions, "_BLOCK", block)
        got = vars(error_decomposition(res))
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-15


def _traced_peak(n):
    # tracemalloc peak of error_decomposition for a Gaussian at N = n.
    spec = DistributionSpec("gaussian", mu=1.0, sigma=0.44, domain=(0.0, 2.0))
    res = build_pipeline(spec, n)
    tracemalloc.start()
    try:
        error_decomposition(res)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tensordot_run(c):
    # The full-register simulator that `run` replaced, kept as the reference.
    psi = np.zeros((2,) * c.n_qubits)
    psi[(0,) * c.n_qubits] = 1.0
    for gate in c.gates:
        axes = gate.qubits
        k = len(axes)
        g = gate.matrix.reshape((2,) * (2 * k))
        psi = np.tensordot(g, psi, axes=(tuple(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, tuple(range(k)), axes)
    return psi.reshape(-1)


def _random_orthogonal(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


class TestRunMatchesTensordotReference:
    def _random_circuit(self, n, rng):
        # Gates only on a random subset of the register, so some qubits may
        # stay untouched; pairs come in any order and at any distance.
        active = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        gates = []
        for _ in range(rng.integers(0, 2 * n + 3)):
            if len(active) >= 2 and rng.random() < 0.6:
                pair = rng.choice(active, size=2, replace=False)
                gates.append(Gate(tuple(pair), _random_orthogonal(rng, 4)))
            else:
                gates.append(Gate((rng.choice(active),), _random_orthogonal(rng, 2)))
        return Circuit(n_qubits=n, gates=tuple(gates))

    def test_random_circuits(self, rng):
        seen = set()
        for n in range(1, 8):
            for _ in range(60):
                circ = self._random_circuit(n, rng)
                for g in circ.gates:
                    if len(g.qubits) == 2:
                        q0, q1 = g.qubits
                        seen.add("reversed" if q0 > q1 else "forward")
                        seen.add("adjacent" if abs(q0 - q1) == 1 else "gap")
                touched = {q for g in circ.gates for q in g.qubits}
                if len(touched) < n:
                    seen.add("untouched")
                got, want = run(circ), _tensordot_run(circ)
                assert np.max(np.abs(got - want)) <= 1e-14
        assert seen == {"reversed", "forward", "adjacent", "gap", "untouched"}

    def test_single_qubit_gate_at_every_position(self, rng):
        for n in range(1, 8):
            for q in range(n):
                pair = (Gate((0, 1), _random_orthogonal(rng, 4)),) if n > 1 else ()
                circ = Circuit(
                    n_qubits=n,
                    gates=pair + (Gate((q,), _random_orthogonal(rng, 2)),),
                )
                assert np.max(np.abs(run(circ) - _tensordot_run(circ))) <= 1e-14

    def test_empty_circuit(self):
        for n in range(1, 8):
            circ = Circuit(n_qubits=n, gates=())
            assert np.array_equal(run(circ), _tensordot_run(circ))

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_staircases_bit_identical(self, n, rng):
        # run's (2^a, 4) @ G.T and the reference's tensordot are different
        # BLAS calls; bit equality holds for OpenBLAS at one thread. If it
        # fails on another BLAS build, compare to within 1e-15 instead.
        spec = DistributionSpec("gaussian", mu=1.0, sigma=0.3, domain=(0.0, 2.0))
        circuits = [
            build_pipeline(spec, n).circuit,
            extract_circuit(random_mps(n, 2, rng, scaled=True).normalize()),
        ]
        for circ in circuits:
            assert np.array_equal(run(circ), _tensordot_run(circ))
