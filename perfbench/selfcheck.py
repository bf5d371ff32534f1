"""Self-checks of the benchmark's oracle; exits non-zero on any disagreement.

    python3 perfbench/selfcheck.py

- oracle.apply_circuit agrees with mpsprep.run on random circuits, both
  staircase and arbitrary layouts (reversed and non-adjacent pairs);
- the per-bitstring staircase contraction and the staircase MPS cores
  agree with the oracle's dense path on every amplitude at N=10;
- the oracle's MPS fidelity agrees with the dense overlap;
- the oracle's target state matches mpsprep.target_amplitudes, and the
  trapezoid-derived grid norm matches the direct sum at N=20.
"""

import pathlib
import sys

import numpy as np

import oracle
from workloads import FAMILIES

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
import mpsprep  # noqa: E402


def orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_circuit(rng, n, staircase):
    gates = []
    if staircase:
        gates = [mpsprep.Gate((t, t + 1), orthogonal(rng, 4)) for t in range(n - 1)]
        gates.append(mpsprep.Gate((n - 1,), orthogonal(rng, 2)))
    else:
        for _ in range(3 * n):
            if rng.random() < 0.3:
                gates.append(mpsprep.Gate((int(rng.integers(n)),), orthogonal(rng, 2)))
            else:
                i, j = rng.choice(n, size=2, replace=False)
                gates.append(mpsprep.Gate((int(i), int(j)), orthogonal(rng, 4)))
    return mpsprep.Circuit(n_qubits=n, gates=tuple(gates))


def dense_from_cores(cores):
    out = cores[0].reshape(2, -1)
    for c in cores[1:]:
        out = (out @ c.reshape(c.shape[0], -1)).reshape(-1, c.shape[2])
    return out.reshape(-1)


def main() -> int:
    rng = np.random.default_rng(7)
    worst = {}

    def record(name, err):
        worst[name] = max(worst.get(name, 0.0), float(err))

    for trial in range(60):
        n = int(rng.integers(2, 9))
        c = random_circuit(rng, n, staircase=trial % 2 == 0)
        record("apply_circuit vs mpsprep.run", np.max(np.abs(oracle.apply_circuit(c) - mpsprep.run(c))))

    for _ in range(5):
        n = 10
        c = random_circuit(rng, n, staircase=True)
        dense = oracle.apply_circuit(c)
        per_bits = np.array([oracle.staircase_amplitude(c, oracle.bits_of(k, n)) for k in range(2**n)])
        record("staircase_amplitude vs dense, N=10", np.max(np.abs(per_bits - dense)))
        cores = oracle.staircase_cores(c)
        record("staircase_cores vs dense, N=10", np.max(np.abs(dense_from_cores(cores) - dense)))
        other = random_circuit(rng, n, staircase=True)
        want = abs(dense @ oracle.apply_circuit(other))
        record("mps_fidelity vs dense overlap", abs(oracle.mps_fidelity(cores, oracle.staircase_cores(other)) - want))

    for kind, (_, _, (a, b)) in FAMILIES.items():
        spec = mpsprep.DistributionSpec(kind, 1.0, 0.7, (a, b))
        mine = oracle.target_state(kind, 1.0, 0.7, a, b, 12)
        record("target_state vs mpsprep.target_amplitudes", np.max(np.abs(mine - mpsprep.target_amplitudes(spec, 12))))
        direct = float(np.sum(oracle.density(kind, 1.0, 0.7, oracle.grid_points(a, b, 20))))
        record("grid_norm_sq vs direct sum, N=20 (relative)",
               abs(oracle.grid_norm_sq(kind, 1.0, 0.7, a, b, 20) / direct - 1.0))

    limits = {name: 1e-9 if "grid_norm" in name else 1e-12 for name in worst}
    ok = True
    for name, err in worst.items():
        good = err <= limits[name]
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: max error {err:.2e} (limit {limits[name]:.0e})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
