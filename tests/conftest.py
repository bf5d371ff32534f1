import numpy as np
import pytest

from mpsprep import Circuit, DistributionSpec, Gate, Mps
from mpsprep.linalg import _qr_signed

# A target whose fit at high degree needs every digit: the one the p=20
# checks of the fit, the assembled state and its norm run on.
NARROW_LORENTZIAN = DistributionSpec("lorentzian", mu=1.0, sigma=0.1, domain=(0.0, 2.0))

# The three families and one custom pdf.
FAMILIES = [
    DistributionSpec("gaussian", mu=1.0, sigma=0.3, domain=(0.0, 2.0)),
    DistributionSpec("lognormal", mu=1.0, sigma=0.5, domain=(0.0, 5.0)),
    DistributionSpec("lorentzian", mu=1.0, sigma=0.2, domain=(0.0, 2.0)),
    DistributionSpec(
        "custom", domain=(-1.0, 3.0),
        pdf_fn=lambda x: 1.0 + np.sin(np.asarray(x)) ** 2,
    ),
]


def random_mps(n, chi, rng, scaled=False):
    """Random MPS with bonds capped at chi and the representable maximum."""
    bonds = [min(chi, 2**i, 2 ** (n - i)) for i in range(n + 1)]
    cores = []
    for i in range(n):
        core = rng.standard_normal((bonds[i], 2, bonds[i + 1]))
        if scaled:  # keeps norms finite for long chains
            core /= np.sqrt(2.0 * max(bonds[i], bonds[i + 1]))
        cores.append(core)
    return Mps(cores)


def polyval_values(pp, grid):
    """A piecewise polynomial at every grid point, by np.polynomial's polyval:
    the reference evaluation of a fit, independent of its MPS encoding."""
    block = 2 ** (grid.n_qubits - pp.support_bit)
    vs = 2 * np.arange(block) / (block - 1) - 1
    coeffs = np.array(pp.regions, dtype=float).T
    return np.polynomial.polynomial.polyval(vs, coeffs).reshape(-1)


def misplaced_terminal_circuit():
    """The 3-qubit staircase except that the last gate sits on qubit 0, not 2."""
    pair, single = np.eye(4), np.eye(2)
    gates = (Gate((0, 1), pair), Gate((1, 2), pair), Gate((0,), single))
    return Circuit(n_qubits=3, gates=gates)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def qr_calls(monkeypatch):
    """Shapes of the matrices that mpsprep.mps factors by QR, in call order."""
    calls = []

    def counted(mat):
        calls.append(mat.shape)
        return _qr_signed(mat)

    monkeypatch.setattr("mpsprep.mps._qr_signed", counted)
    return calls
