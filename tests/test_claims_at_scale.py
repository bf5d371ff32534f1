"""The paper's claims as N grows, checked past the sizes of the acceptance suite.

The fidelity of the construction has a continuum limit: on a grid that
includes both endpoints the grid sum is a first-order quadrature, so
F(N) = F_inf + c 2^-N and successive differences halve. The witness reads
the exact dense figures at N = 17-22; its extrapolation 2 F(22) - F(21)
is the limit that a figure reported above the dense limit must approach,
found without that figure's code. The circuit's size and depth are
linear in N at every N.
"""

import pytest

from mpsprep import DistributionSpec, RunConfig, encode, validate_circuit
from mpsprep.cli import DEFAULT_DOMAINS

KINDS = sorted(DEFAULT_DOMAINS)


def _spec(kind, sigma):
    return DistributionSpec(kind, mu=1.0, sigma=sigma, domain=DEFAULT_DOMAINS[kind])


def _depth(circuit):
    """Layers of the as-soon-as-possible schedule of the gate list."""
    level = [0] * circuit.n_qubits
    for gate in circuit.gates:
        d = 1 + max(level[q] for q in gate.qubits)
        for q in gate.qubits:
            level[q] = d
    return max(level, default=0)


@pytest.mark.parametrize("sigma", [0.1, 0.44, 1.0])
@pytest.mark.parametrize("kind", KINDS)
def test_fidelity_differences_halve_with_each_qubit(kind, sigma, monkeypatch):
    monkeypatch.delenv("MPSPREP_DENSE_LIMIT", raising=False)
    spec = _spec(kind, sigma)
    f = {n: encode(RunConfig(spec, n))[1].fidelity for n in range(17, 23)}
    ratios = [(f[n] - f[n - 1]) / (f[n + 1] - f[n]) for n in range(18, 22)]
    assert all(1.9 <= r <= 2.1 for r in ratios), ratios


@pytest.mark.parametrize("n", [64, 256, 1023])
@pytest.mark.parametrize("kind", KINDS)
def test_circuit_has_n_gates_and_depth_n(kind, n):
    circuit, _ = encode(RunConfig(_spec(kind, 0.44), n))
    report = validate_circuit(circuit)
    assert report.ok and report.staircase
    assert len(circuit.gates) == n
    assert _depth(circuit) == n
