import tracemalloc

import numpy as np
import pytest

from mpsprep import (
    Circuit,
    CompressionOptions,
    DistributionSpec,
    Gate,
    Grid,
    Mps,
    assemble,
    build_pipeline,
    circuit_to_mps,
    compress_als,
    extract_circuit,
    fit_piecewise,
    run,
    to_mps_exact,
    validate_circuit,
)
from mpsprep.circuits import _final_gate_from_core, _gates_from_cores, _right_canonical

from conftest import FAMILIES, misplaced_terminal_circuit, random_mps


def compressed_gaussian(n, sigma=1.0):
    spec = DistributionSpec("gaussian", mu=1.0, sigma=sigma, domain=(0.0, 2.0))
    g = Grid(n, 0.0, 2.0)
    return compress_als(assemble(fit_piecewise(spec, g, 3, 3), g), CompressionOptions())


def peak_bytes(fn):
    """Peak traced allocation while ``fn()`` runs, and what it returned."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


# One gate on a register of two million qubits: a cost that grows with the
# register rather than the gate list shows up as hundreds of megabytes.
HUGE_REGISTER = Circuit(n_qubits=2_000_000, gates=(Gate((0, 1), np.eye(4)),))


def max_gate_gap(a, b):
    pairs = zip(a.gates, b.gates)
    return max(np.max(np.abs(ga.matrix - gb.matrix)) for ga, gb in pairs)


class TestExtractCircuit:
    def test_superposition_product_state(self):
        s = 1 / np.sqrt(2)
        cores = [np.array([[[s], [s]]])] + [
            np.array([[[1.0], [0.0]]]) for _ in range(3)
        ]
        circ = extract_circuit(Mps(cores))
        psi = run(circ)
        want = np.zeros(16)
        want[0] = want[8] = s
        assert np.max(np.abs(psi - want)) <= 1e-12

    def test_vacuum_fixed_point(self):
        e0 = to_mps_exact(np.eye(8)[0])
        circ = extract_circuit(e0)
        assert np.allclose(run(circ), np.eye(8)[0], atol=1e-12)

    def test_compressed_gaussian(self):
        m = compressed_gaussian(10)
        circ = extract_circuit(m)
        fid = abs(np.dot(run(circ), m.to_statevector()))
        assert fid >= 1.0 - 1e-8

    def test_random_rank2_exact(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            m = random_mps(n, 2, rng).normalize()
            circ = extract_circuit(m)
            assert abs(np.dot(run(circ), m.to_statevector())) >= 1.0 - 1e-8

    def test_single_qubit_register(self):
        m = to_mps_exact(np.array([0.6, 0.8]))
        circ = extract_circuit(m)
        assert len(circ.gates) == 1
        assert np.allclose(run(circ), [0.6, 0.8], atol=1e-12)

    def test_gate_count_linear(self, rng):
        for n in range(4, 17):
            m = random_mps(n, 2, rng).normalize()
            circ = extract_circuit(m)
            assert len(circ.gates) == n
            two = [g for g in circ.gates if len(g.qubits) == 2]
            assert len(two) == n - 1

    def test_staircase_ordering(self, rng):
        circ = extract_circuit(random_mps(6, 2, rng).normalize())
        for t, gate in enumerate(circ.gates[:-1]):
            assert gate.qubits == (t, t + 1)
        assert circ.gates[-1].qubits == (5,)

    def test_rejects_wide_bonds(self, rng):
        m = random_mps(6, 4, rng).normalize()
        with pytest.raises(ValueError, match="compress"):
            extract_circuit(m)

    def test_rejects_unnormalized(self, rng):
        m = random_mps(5, 2, rng)
        m = Mps([c * 2.0 for c in m.normalize().cores[:1]] + list(m.normalize().cores[1:]))
        with pytest.raises(ValueError, match="normalized"):
            extract_circuit(m)

    def test_deterministic_bit_identical(self, rng):
        m = random_mps(7, 2, rng).normalize()
        a = extract_circuit(m)
        b = extract_circuit(m)
        assert all(
            np.array_equal(ga.matrix, gb.matrix) and ga.qubits == gb.qubits
            for ga, gb in zip(a.gates, b.gates)
        )

    def test_all_gates_orthogonal(self, rng):
        for _ in range(10):
            m = random_mps(int(rng.integers(2, 9)), 2, rng).normalize()
            circ = extract_circuit(m)
            for gate in circ.gates:
                assert gate.orthogonality_deviation() <= 1e-10

    def test_mixed_bonds_keep_core_columns_exactly(self):
        m = compressed_gaussian(64, sigma=0.44)
        assert _right_canonical(m.cores)  # extraction reads these cores as-is
        assert [c.shape[2] for c in m.cores[:-1]].count(1) == 21
        circ = extract_circuit(m)
        for gate in circ.gates:
            assert gate.orthogonality_deviation() <= 1e-14
        for gate, core in zip(circ.gates, m.cores[:-1]):
            # Axes (s, r, b, lower input bit) of the row-major 4x4 gate.
            cols = gate.matrix.reshape(2, 2, 2, 2)[:, :, : len(core), 0]
            assert np.array_equal(cols[:, : core.shape[2]], core.transpose(1, 2, 0))
            assert not np.any(cols[:, core.shape[2] :])
        last = m.cores[-1]
        assert np.array_equal(circ.gates[-1].matrix[:, : len(last)], last[:, :, 0].T)

    def test_each_gate_depends_only_on_its_core(self, rng):
        cores = compressed_gaussian(64, sigma=0.44).cores[:-1]
        cores += random_mps(9, 2, rng).canonicalize("right").cores[1:-1]
        gates = _gates_from_cores(cores)
        for gate, core in zip(gates, cores):
            assert np.array_equal(gate, _gates_from_cores([core])[0])


def orthogonality_gap(matrix):
    return np.max(np.abs(matrix.T @ matrix - np.eye(len(matrix))))


class TestGateCompletion:
    """The complete QR that fills each gate's free columns."""

    def test_canonical_column(self):
        core = np.zeros((1, 2, 2))
        core[0, 0, 0] = 1.0
        gate = _gates_from_cores([core])[0]
        assert np.array_equal(gate[:, 0], [1.0, 0.0, 0.0, 0.0])
        assert orthogonality_gap(gate) <= 1e-15

    def test_tilted_column_of_left_bond_one(self):
        s = 1 / np.sqrt(2)
        core = np.array([[[s, s], [0.0, 0.0]]])
        gate = _gates_from_cores([core])[0]
        assert np.array_equal(gate[:, 0], [s, s, 0.0, 0.0])
        assert orthogonality_gap(gate) <= 1e-12

    def test_orthonormal_columns_of_left_bond_two(self, rng):
        for _ in range(10):
            q = np.linalg.qr(rng.standard_normal((4, 2)))[0]
            gate = _gates_from_cores([q.T.reshape(2, 2, 2)])[0]
            assert np.array_equal(gate[:, [0, 2]], q)
            assert orthogonality_gap(gate) <= 1e-10

    def test_empty_stack(self):
        assert _gates_from_cores([]).shape == (0, 4, 4)

    @pytest.mark.parametrize("left_bond", [1, 2])
    def test_final_gate_keeps_core_columns(self, rng, left_bond):
        rows = np.linalg.qr(rng.standard_normal((2, 2)))[0][:, :left_bond].T
        gate = _final_gate_from_core(rows.reshape(left_bond, 2, 1))
        assert np.array_equal(gate[:, :left_bond], rows.T)
        assert orthogonality_gap(gate) <= 1e-14

    def test_deterministic_on_copies(self, rng):
        cores = random_mps(8, 2, rng).canonicalize("right").cores[:-1]
        a = _gates_from_cores(cores)
        b = _gates_from_cores([core.copy() for core in cores])
        assert np.array_equal(a, b)


class TestGaugeOnce:
    """Extraction re-canonicalizes only input that is not right-canonical."""

    def test_any_gauge_gives_the_canonical_circuit(self, rng):
        for _ in range(10):
            m = random_mps(int(rng.integers(2, 9)), 2, rng).normalize()
            canon = m.canonicalize("right")
            assert not _right_canonical(m.cores) and _right_canonical(canon.cores)
            assert max_gate_gap(extract_circuit(m), extract_circuit(canon)) <= 1e-14

    def test_compressed_input_needs_no_qr(self, qr_calls):
        m = compressed_gaussian(12)
        qr_calls.clear()
        extract_circuit(m)
        assert qr_calls == []
        # The counter does see the pass that non-canonical input needs.
        extract_circuit(Mps([m.cores[0] * 0.5, m.cores[1] * 2.0] + list(m.cores[2:])))
        assert len(qr_calls) == 11


class TestCircuitToMps:
    def test_roundtrip_against_simulator(self, rng):
        # Verification reads the circuit's state off circuit_to_mps, never
        # off the gate simulator; the two must agree to round-off.
        for n in range(1, 17):
            circuits = [
                build_pipeline(spec, n, support_bit=min(3, n - 1)).circuit
                for spec in FAMILIES[:3]
            ]
            circuits.append(extract_circuit(random_mps(n, 2, rng).normalize()))
            for circ in circuits:
                got = circuit_to_mps(circ).to_statevector()
                assert np.max(np.abs(got - run(circ))) <= 1e-15, n

    @pytest.mark.parametrize("kind", ["gaussian", "lognormal", "lorentzian"])
    def test_reads_back_every_core_bit_for_bit(self, kind):
        # Extraction stores each compressed core verbatim as gate columns, so
        # the circuit's state is the compressed MPS itself: |<compressed|
        # circuit state>| is 1 by construction. The left-bond padding rows are
        # the gates' free columns; they meet only the right-bond padding zeros.
        domain = {"lognormal": (0.0, 5.0)}.get(kind, (0.0, 2.0))
        cells = [(n, p) for n in (5, 8, 10, 13, 16, 20) for p in (3, 5)]
        cells += [(n, 3) for n in (64, 512, 1023)]
        for sigma in (0.1, 0.44, 1.0):
            spec = DistributionSpec(kind, mu=1.0, sigma=sigma, domain=domain)
            for n, p in cells:
                res = build_pipeline(spec, n, degree=p)
                back = circuit_to_mps(res.circuit).cores
                assert len(back) == n
                for t, (got, core) in enumerate(zip(back, res.compressed.cores)):
                    left, _, right = core.shape
                    assert np.array_equal(got[:left, :, :right], core), (sigma, n, p, t)
                    assert not got[:left, :, right:].any(), (sigma, n, p, t)

    def test_rejects_non_staircase(self):
        g = Gate((0,), np.eye(2))
        circ = Circuit(n_qubits=2, gates=(g, g))
        with pytest.raises(ValueError, match="staircase"):
            circuit_to_mps(circ)

    def test_rejects_misplaced_terminal_gate(self):
        with pytest.raises(ValueError, match="not a staircase"):
            circuit_to_mps(misplaced_terminal_circuit())

    def test_short_gate_list_rejected_without_the_layout(self):
        def invert():
            with pytest.raises(ValueError, match="not a staircase circuit"):
                circuit_to_mps(HUGE_REGISTER)

        assert peak_bytes(invert)[0] < 1 << 20


class TestValidateCircuit:
    def test_extracted_circuit_passes(self, rng):
        circ = extract_circuit(random_mps(6, 2, rng).normalize())
        report = validate_circuit(circ)
        assert report.ok
        assert report.staircase
        assert report.max_orthogonality_deviation <= 1e-10
        assert report.gate_count == 6
        assert report.two_qubit_count == 5

    def test_flags_non_orthogonal(self):
        bad = Gate((0, 1), np.ones((4, 4)))
        report = validate_circuit(Circuit(n_qubits=2, gates=(bad,)))
        assert not report.ok
        assert any("orthogonality" in issue for issue in report.issues)

    def test_empty_circuit_trivially_valid(self):
        report = validate_circuit(Circuit(n_qubits=1, gates=()))
        assert report.ok
        assert np.allclose(run(Circuit(n_qubits=1, gates=())), [1.0, 0.0])

    def test_flags_broken_staircase(self):
        g = Gate((1, 2), np.eye(4))
        report = validate_circuit(Circuit(n_qubits=3, gates=(g,)))
        assert not report.ok
        assert not report.staircase

    def test_flags_misplaced_terminal_gate(self):
        report = validate_circuit(misplaced_terminal_circuit())
        assert not report.staircase
        assert len(report.issues) == 1
        assert report.issues[0].startswith("gate 2 ")

    def test_prefix_of_layout_is_staircase(self):
        g = Gate((0, 1), np.eye(4))
        report = validate_circuit(Circuit(n_qubits=3, gates=(g,)))
        assert report.ok
        assert report.staircase

    def test_cost_follows_the_gate_list(self):
        peak, report = peak_bytes(lambda: validate_circuit(HUGE_REGISTER))
        assert report.staircase and report.ok
        assert peak < 1 << 20

    def test_invalid_tol_rejected(self):
        doubled = Circuit(n_qubits=1, gates=(Gate((0,), 2.0 * np.eye(2)),))
        assert not validate_circuit(doubled).ok
        for bad, match in [
            (float("nan"), "tol must be >= 0, got nan"),
            (-1e-10, "tol must be >= 0"),
            ("1e-10", "tol must be a real number"),
            (True, "tol must be a real number"),
        ]:
            with pytest.raises(ValueError, match=match):
                validate_circuit(doubled, tol=bad)
        assert validate_circuit(doubled, tol=np.float32(4.0)).ok

    def test_batched_deviation_matches_each_gate(self, rng):
        # validate_circuit takes A^T A over stacks of same-size gates; the
        # per-gate method is the reference, and the issue texts follow it.
        mats = [rng.standard_normal((4, 4)), np.eye(2) * 1.5, np.eye(4)]
        mats += [np.linalg.qr(rng.standard_normal((4, 4)))[0] + 1e-9, np.eye(2)]
        qubits = [(0, 1), (3,), (1, 2), (2, 3), (0,)]
        gates = tuple(map(Gate, qubits, mats))
        report = validate_circuit(Circuit(n_qubits=4, gates=gates))
        devs = [g.orthogonality_deviation() for g in gates]
        assert report.max_orthogonality_deviation == pytest.approx(max(devs), rel=1e-15)
        want = [
            f"gate {i} on {g.qubits} deviates from orthogonality by {d:.3e}"
            for i, (g, d) in enumerate(zip(gates, devs))
            if d > 1e-10
        ]
        assert [t for t in report.issues if "orthogonality" in t] == want
        assert len(want) == 3

    def test_flags_gate_past_layout(self, rng):
        circ = extract_circuit(random_mps(3, 2, rng).normalize())
        extra = Circuit(n_qubits=3, gates=circ.gates + (circ.gates[-1],))
        report = validate_circuit(extra)
        assert not report.staircase
        assert len(report.issues) == 1
        assert report.issues[0].startswith("gate 3 ")


class TestGateAndCircuitTypes:
    def test_gate_shape_validation(self):
        with pytest.raises(ValueError, match="matrix"):
            Gate((0, 1), np.eye(2))
        with pytest.raises(ValueError, match="one or two"):
            Gate((0, 1, 2), np.eye(8))

    def test_repeated_qubit_rejected(self):
        with pytest.raises(ValueError, match="qubit 1 is repeated"):
            Gate((1, 1), np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        mat = np.eye(4)
        mat[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Gate((0, 1), mat)

    def test_circuit_qubit_bounds(self):
        with pytest.raises(ValueError, match="register"):
            Circuit(n_qubits=2, gates=(Gate((1, 2), np.eye(4)),))
