"""The benchmark's workloads: one round of operations each, drawn from a seed.

Every operation is a call into mpsprep's public API (timed) plus a check
of its output against :mod:`oracle` (not timed). A run repeats the same
round, so the share of failed operations does not depend on run length.

Parameters are drawn once per run. Where a range is given (sigma in
[0.1, 1] for the sigma sweeps) the draws are stratified; elsewhere the
seed jitters mu and sigma by up to 5 percent around a fixed point. Both
keep the inputs varying while the accuracy metric (a geometric mean over
the round) stays comparable from seed to seed: near sigma = 1, 1 - F
changes roughly as sigma^-8.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

import oracle
from oracle import CheckFailed, require

# family -> (mu, sigma, domain); the lognormal domain is given with its
# positive cutoff so that the program resolves it to itself.
FAMILIES = {
    "gaussian": (1.0, 1.0, (0.0, 2.0)),
    "lognormal": (1.0, 1.0, (0.125, 5.0)),
    "lorentzian": (1.0, 1.0, (0.0, 2.0)),
}
DENSE_N = (16, 18, 20, 22)
LARGE_N = (64, 128, 256, 512)
CAMPAIGN_N = range(5, 13)
SHIFTED_N = (6, 9, 12)
AMPLITUDE_SAMPLES = 32


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[float]]  # returns the 1 - F values it measured
    expected_fault: str = ""  # non-empty: known to fail, for this reason


def fidelity_floor(sigma: float) -> float:
    """Acceptance-suite floors: 0.999 from sigma = 0.44 up, 0.99 down to 0.1."""
    return 0.999 if sigma >= 0.44 else 0.99


def _stratified(rng: np.random.Generator, lo: float, hi: float, m: int) -> list[float]:
    """One uniform draw in each of m equal slices of [lo, hi], in random order."""
    draws = lo + (np.arange(m) + rng.random(m)) * (hi - lo) / m
    return [float(x) for x in rng.permutation(draws)]


def _jittered(rng: np.random.Generator, kind: str, count: int) -> list[tuple[float, float]]:
    """`count` (mu, sigma) pairs, each stratified within 5 percent of the family's."""
    mu, sigma, _ = FAMILIES[kind]
    mus = _stratified(rng, mu - 0.05, mu + 0.05, count)
    sigmas = _stratified(rng, 0.95 * sigma, 1.05 * sigma, count)
    return list(zip(mus, sigmas))


def _circuit_fidelity(circuit, kind, mu, sigma, domain, n) -> float:
    psi = oracle.apply_circuit(circuit)
    return abs(float(psi @ oracle.target_state(kind, mu, sigma, *domain, n)))


def _check_cell(mp, spec, n: int, degree: int, claimed: float) -> float:
    """Rebuild one cell's circuit, check it and the fidelity claimed for it."""
    circuit = mp.build_pipeline(spec, n, 3, degree).circuit
    oracle.check_staircase(circuit, n)
    f = _circuit_fidelity(circuit, spec.kind, spec.mu, spec.sigma, spec.domain, n)
    require(abs(f - claimed) <= 1e-9, f"fidelity {claimed!r} reported, oracle gives {f!r}")
    floor = fidelity_floor(spec.sigma)
    require(f >= floor, f"fidelity {f:.6f} below the floor {floor}")
    return 1.0 - f


def _check_rows(mp, spec, n: int, rows) -> list[float]:
    infid = []
    for row in rows:
        require(not row.error, f"cell failed: {row.error}")
        require(row.gate_count == n, f"{row.gate_count} gates, want {n}")
        cell = replace(spec, sigma=row.sigma)
        infid.append(_check_cell(mp, cell, n, row.p, row.fidelity))
    return infid


# -- dense-verified ------------------------------------------------------------
#
# In dense-verified and large-n one operation encodes one family at every
# N of the workload, so that all operations have about the same size and
# their median is not the edge of one size's cluster.


def _ladder(mp, rng, kind: str, sizes) -> list:
    _, _, domain = FAMILIES[kind]
    return [
        mp.RunConfig(spec=mp.DistributionSpec(kind, mu, sigma, domain), n_qubits=n)
        for n, (mu, sigma) in zip(sizes, _jittered(rng, kind, len(sizes)))
    ]


def _check_dense_encode(cfg, out) -> float:
    circuit, report = out
    spec, n = cfg.spec, cfg.n_qubits
    oracle.check_staircase(circuit, n)
    f = _circuit_fidelity(circuit, spec.kind, spec.mu, spec.sigma, spec.domain, n)
    require(report.fidelity_vs == "exact_target", f"N={n} not verified against the exact target")
    require(abs(f - report.fidelity) <= 1e-9,
            f"N={n}: fidelity {report.fidelity!r} reported, oracle gives {f!r}")
    require(f >= fidelity_floor(spec.sigma), f"N={n}: fidelity {f:.6f} below the floor")
    return 1.0 - f


def dense_verified(mp, rng: np.random.Generator, scratch) -> list[Op]:
    ops = []
    for kind in FAMILIES:
        cfgs = _ladder(mp, rng, kind, DENSE_N)
        ops.append(Op(
            f"encode {kind} N={'/'.join(map(str, DENSE_N))}",
            lambda cfgs=cfgs: [mp.encode(cfg) for cfg in cfgs],
            lambda outs, cfgs=cfgs: [_check_dense_encode(c, o) for c, o in zip(cfgs, outs)],
        ))
    return ops


# -- large-n -----------------------------------------------------------------


def large_n(mp, rng: np.random.Generator, scratch) -> list[Op]:
    picker = random.Random(int(rng.integers(2**63)))
    path = scratch / "large-n-circuit.json"

    def encode_round_trip(cfg):
        circuit, report = mp.encode(cfg)
        mp.serialize_circuit(circuit, path)
        return circuit, report, mp.deserialize_circuit(path)

    def check(cfg, out, samples) -> float:
        circuit, _, back = out
        spec, n = cfg.spec, cfg.n_qubits
        oracle.check_staircase(circuit, n)
        _check_round_trip(circuit, back)
        _check_amplitudes(circuit, spec, n, samples)
        grid = mp.Grid.for_spec(spec, n)
        assembled = mp.assemble(mp.fit_piecewise(spec, grid, 3, 3), grid)
        f = oracle.mps_fidelity(list(assembled.cores), oracle.staircase_cores(circuit))
        require(f >= 0.999, f"N={n}: fidelity {f:.6f} to the assembled state below 0.999")
        return 1.0 - f

    ops = []
    for kind in FAMILIES:
        cfgs = _ladder(mp, rng, kind, LARGE_N)
        samples = [[picker.getrandbits(n) for _ in range(AMPLITUDE_SAMPLES)] for n in LARGE_N]
        ops.append(Op(
            f"encode+round-trip {kind} N={'/'.join(map(str, LARGE_N))}",
            lambda cfgs=cfgs: [encode_round_trip(cfg) for cfg in cfgs],
            lambda outs, cfgs=cfgs, samples=samples: [
                check(c, o, s) for c, o, s in zip(cfgs, outs, samples)],
        ))
    return ops


def _check_round_trip(circuit, back) -> None:
    require(back.n_qubits == circuit.n_qubits, "round trip changed the register size")
    require(len(back.gates) == len(circuit.gates), "round trip changed the gate count")
    for t, (g, h) in enumerate(zip(circuit.gates, back.gates)):
        require(tuple(g.qubits) == tuple(h.qubits), f"round trip moved gate {t}")
        require(np.array_equal(g.matrix, h.matrix), f"round trip changed the bits of gate {t}")


def _check_amplitudes(circuit, spec, n: int, samples: list[int]) -> None:
    """Sampled amplitudes against sqrt(f(x_k)) / |sqrt(f)|, up to a global sign.

    Amplitudes are scaled by 2^(n/2) so that both sides are of order one.
    The sampled squared error estimates 2 (1 - F); the fidelity floor
    bounds it, and no single sample may stray by more than 30 times the
    estimated relative RMS error (up to 13 times was measured on the full
    grid at N=16).
    """
    a, b = spec.domain
    scale = 2.0 ** (n / 2)
    norm = math.sqrt(oracle.grid_norm_sq(spec.kind, spec.mu, spec.sigma, a, b, n))
    xs = np.array([oracle.grid_point(a, b, n, k) for k in samples])
    want = np.sqrt(oracle.density(spec.kind, spec.mu, spec.sigma, xs)) / norm * scale
    got = np.array([oracle.staircase_amplitude(circuit, oracle.bits_of(k, n)) for k in samples])
    got *= scale
    got *= 1.0 if got @ want >= 0 else -1.0
    eps = float(np.mean((got - want) ** 2)) / 2.0
    require(eps <= 1e-3, f"sampled amplitudes give 1 - F ~ {eps:.2e}, above 1e-3")
    worst = float(np.max(np.abs(got / want - 1.0)))
    tol = 30.0 * math.sqrt(2.0 * eps) + 1e-12
    require(worst <= tol, f"a sampled amplitude is off by {worst:.2e} relative, over {tol:.2e}")


# -- campaign ----------------------------------------------------------------


def campaign(mp, rng: np.random.Generator, scratch) -> list[Op]:
    sweep_n = list(CAMPAIGN_N)
    degree_n, compare_n = rng.permutation([6, 9, 12]), rng.permutation([6, 9, 12])
    spectra_n = rng.permutation([8, 10, 12])
    ops = []
    for f, (kind, (mu, sigma, domain)) in enumerate(FAMILIES.items()):
        base = mp.DistributionSpec(kind, mu, sigma, domain)
        sigmas = _stratified(rng, 0.1, 1.0, 4 * len(sweep_n))
        for i, n in enumerate(sweep_n):
            cfg = mp.RunConfig(spec=base, n_qubits=n)
            cell_sigmas = sorted(sigmas[4 * i : 4 * i + 4])
            ops.append(Op(
                f"sweep_sigma {kind} N={n}",
                lambda cfg=cfg, s=cell_sigmas: mp.sweep_sigma(cfg, s),
                lambda rows, base=base, n=n: _check_rows(mp, base, n, rows),
            ))

        n = int(degree_n[f])
        spec = replace(base, sigma=0.5 * rng.uniform(0.95, 1.05))
        cfg = mp.RunConfig(spec=spec, n_qubits=n)
        ops.append(Op(
            f"sweep_degree {kind} N={n}",
            lambda cfg=cfg: mp.sweep_degree(cfg, [3, 4, 5]),
            lambda rows, spec=spec, n=n: _check_rows(mp, spec, n, rows),
        ))

        n = int(spectra_n[f])
        spectra_sigmas = _stratified(rng, 0.1, 1.0, 2)
        ops.append(Op(
            f"spectra {kind} N={n}",
            lambda base=base, n=n, s=spectra_sigmas: mp.spectra(base, n, s),
            lambda out, base=base, n=n: _check_spectra(base, n, out),
        ))

        n = int(compare_n[f])
        spec = replace(base, sigma=0.5 * rng.uniform(0.95, 1.05))
        cfg = mp.RunConfig(spec=spec, n_qubits=n)
        ops.append(Op(
            f"oracle_compare {kind} N={n}",
            lambda cfg=cfg: mp.oracle_compare(cfg),
            lambda rep, spec=spec, n=n: _check_optimality(mp, spec, n, rep),
        ))

    # The same Gaussian as above moved to [1e6, 1e6 + 2]: a correct
    # construction is translation invariant and meets the same floor.
    shifted = mp.DistributionSpec("gaussian", 1e6 + 1.0, 1.0, (1e6, 1e6 + 2.0))
    for n in SHIFTED_N:
        cfg = mp.RunConfig(spec=shifted, n_qubits=n)
        ops.append(Op(
            f"sweep_sigma shifted gaussian N={n}",
            lambda cfg=cfg: mp.sweep_sigma(cfg, [1.0]),
            lambda rows, n=n: _check_rows(mp, shifted, n, rows),
            expected_fault="regional fits are expanded in the global coordinate, "
                           "which loses accuracy on a domain far from 0",
        ))
    return ops


def _check_spectra(base, n: int, summaries) -> list[float]:
    a, b = base.domain
    for s in summaries:
        target = oracle.target_state(base.kind, base.mu, s.sigma, a, b, n)
        mine = oracle.unfolding_spectra(target)
        require(len(s.spectra) == n - 1, f"{len(s.spectra)} cuts, want {n - 1}")
        for j, (got, want) in enumerate(zip(s.spectra, mine)):
            require(got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-10),
                    f"spectrum of cut {j + 1} differs from the oracle's")
        # Fitted to the reported spectra: values near the 1e-13 floor are
        # round-off, so independently computed spectra may differ there.
        beta = oracle.decay_rate(list(s.spectra))
        require(math.isclose(s.decay.beta, beta, rel_tol=1e-9),
                f"decay rate {s.decay.beta!r} reported, oracle gives {beta!r}")
        bound = oracle.rank_bound(s.decay.beta, 2, n)
        require(math.isclose(s.chi_bound_value, bound, rel_tol=1e-9),
                f"chi bound {s.chi_bound_value!r} reported, oracle gives {bound!r}")
    return []


def _check_optimality(mp, spec, n: int, rep) -> list[float]:
    a, b = spec.domain
    target = oracle.target_state(spec.kind, spec.mu, spec.sigma, a, b, n)
    best = oracle.rank_truncated(target, 2)
    f_opt = abs(float(target @ best)) / float(np.linalg.norm(best))
    require(abs(f_opt - rep.f_optimal) <= 1e-9,
            f"optimal fidelity {rep.f_optimal!r} reported, oracle gives {f_opt!r}")
    infid = _check_cell(mp, spec, n, 3, rep.f_circuit)
    require(math.isclose(rep.ratio, rep.f_circuit / rep.f_optimal, rel_tol=1e-12),
            "ratio is not f_circuit / f_optimal")
    return [infid]


WORKLOADS = {
    "dense-verified": dense_verified,
    "large-n": large_n,
    "campaign": campaign,
}


def warmups(mp) -> list[Callable[[], Any]]:
    """Small calls through each entry point, so lazy set-up is paid before timing."""
    spec = mp.DistributionSpec("gaussian", 1.0, 1.0, (0.0, 2.0))
    cfg = mp.RunConfig(spec=spec, n_qubits=8)
    return [
        lambda: mp.encode(cfg),
        lambda: mp.encode(replace(cfg, n_qubits=32)),
        lambda: mp.sweep_degree(cfg, [3, 4]),
        lambda: mp.spectra(spec, 8, [0.5]),
        lambda: mp.oracle_compare(cfg),
    ]
