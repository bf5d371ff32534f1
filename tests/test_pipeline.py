import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsprep import (
    CSV_COLUMNS,
    Circuit,
    CompressionOptions,
    DistributionSpec,
    Gate,
    Grid,
    PiecewisePoly,
    RunConfig,
    SchemaError,
    build_pipeline,
    deserialize_circuit,
    encode,
    error_decomposition,
    fidelity,
    fit_piecewise,
    max_derivative,
    oracle_compare,
    render_csv,
    run,
    serialize_circuit,
    spectra,
    sweep_degree,
    sweep_sigma,
    target_amplitudes,
    to_mps_exact,
)
from mpsprep import cli
from mpsprep.cli import main
from mpsprep.pipeline import _csv

from conftest import FAMILIES, NARROW_LORENTZIAN, misplaced_terminal_circuit


def gaussian_config(n=8, sigma=1.0, **kw):
    spec = DistributionSpec("gaussian", mu=1.0, sigma=sigma, domain=(0.0, 2.0))
    return RunConfig(spec=spec, n_qubits=n, **kw)


class TestEncode:
    def test_gaussian_fidelity(self):
        _, report = encode(gaussian_config(n=10))
        assert report.fidelity >= 0.999
        assert report.fidelity_vs == "exact_target"
        assert len(report.result.circuit.gates) == 10
        assert report.result.compressed.max_bond <= 2
        assert report.result.assembled.max_bond == 4

    def test_squeezed_gaussian(self):
        _, report = encode(gaussian_config(n=10, sigma=0.1))
        assert report.fidelity >= 0.99

    def test_lossless_custom(self):
        spec = DistributionSpec(
            "custom", domain=(0.0, 2.0), pdf_fn=lambda x: (np.asarray(x) + 1.0) ** 2
        )
        cfg = RunConfig(spec=spec, n_qubits=8, support_bit=0, degree=1)
        circuit, report = encode(cfg)
        assert report.fidelity >= 1.0 - 1e-8
        # reported fidelity is reproducible from the emitted circuit
        target = target_amplitudes(spec, 8)
        assert fidelity(run(circuit), target) == pytest.approx(
            report.fidelity, abs=1e-12
        )

    def test_report_roundtrips_to_json(self):
        _, report = encode(gaussian_config(n=6))
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["config"]["distribution"] == "gaussian"
        assert parsed["errors"]["total"] >= 0

    def test_report_reads_the_run(self):
        # bonds, gate count and timings have one record: the run's result
        cfg = gaussian_config(n=6)
        circuit, report = encode(cfg)
        assert [f.name for f in dataclasses.fields(report)] == [
            "config", "result", "errors"
        ]
        assert report.fidelity == report.errors.fidelity
        assert report.fidelity_vs == "exact_target"
        assert report.config is cfg
        assert report.result.circuit is circuit
        d, res = report.to_dict(), report.result
        assert d["assembled_bonds"] == list(res.assembled.bond_dims)
        assert d["compressed_bonds"] == list(res.compressed.bond_dims)
        assert d["gate_count"] == len(circuit.gates)
        assert d["timings_ms"] == res.timings_ms
        assert list(d["timings_ms"]) == ["fit", "compress", "extract", "verify"]

    def test_report_fidelity_self_consistent(self, tmp_path):
        # re-derive the reported fidelity from the emitted circuit alone
        cfg = gaussian_config(n=9, sigma=0.7)
        circuit, report = encode(cfg)
        path = tmp_path / "c.json"
        serialize_circuit(circuit, path)
        reread = deserialize_circuit(path)
        target = target_amplitudes(cfg.spec, cfg.n_qubits)
        assert fidelity(run(reread), target) == pytest.approx(
            report.fidelity, abs=1e-12
        )

    def test_above_dense_limit_flagged(self, monkeypatch):
        # Nothing is verified above the limit, and the report says so.
        monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "7")
        _, report = encode(gaussian_config(n=8))
        assert (report.errors, report.fidelity, report.fidelity_vs) == (None,) * 3
        assert list(report.result.timings_ms) == ["fit", "compress", "extract"]

    @pytest.mark.parametrize("n", [25, 64, 1023])
    def test_fidelity_missing_past_default_limit(self, n, monkeypatch, capsys):
        monkeypatch.delenv("MPSPREP_DENSE_LIMIT", raising=False)
        _, report = encode(gaussian_config(n=n))
        d = report.to_dict()
        assert d["fidelity"] is None and d["fidelity_vs"] is None
        assert "errors" not in d and "verify" not in d["timings_ms"]
        assert main(["encode", "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"fidelity not measured: N={n} is above the dense limit of 24\n")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="support_bit"):
            gaussian_config(n=3, support_bit=3)
        spec = gaussian_config().spec
        for name in ("n_qubits", "support_bit", "degree", "samples_per_region"):
            for bad in (2.5, 6.0, True, "6"):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    RunConfig(**{"spec": spec, "n_qubits": 8, name: bad})
        cfg = gaussian_config(
            n=np.int64(8), support_bit=np.int32(2), degree=np.int64(3)
        )
        assert {type(cfg.n_qubits), type(cfg.support_bit), type(cfg.degree)} == {int}
        json.dumps(encode(cfg)[1].to_dict())  # the echo stays JSON

    def test_config_checks_each_field_with_its_owners_rule(self):
        # spec and compression must be their classes, named in a
        # ValueError before any stage runs; the support_bit range is the
        # fit's own rule and message.
        spec = gaussian_config().spec
        cases = [
            ({"spec": "gaussian"}, "spec must be a DistributionSpec, got 'gaussian'"),
            ({"compression": None}, "compression must be a CompressionOptions, got None"),
            ({"compression": 2}, "compression must be a CompressionOptions, got 2"),
            ({"support_bit": 8}, r"support_bit must be in \[0, 8\), got 8"),
            ({"support_bit": -1}, r"support_bit must be in \[0, 8\), got -1"),
        ]
        for fields, match in cases:
            with pytest.raises(ValueError, match=f"^{match}$"):
                RunConfig(**{"spec": spec, "n_qubits": 8, **fields})
        with pytest.raises(ValueError, match="^compression must be a CompressionOptions"):
            build_pipeline(spec, 8, compression={"target_chi": 2})

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            gaussian_config(degree=-1)

    def test_failure_names_its_stage(self):
        # sigma=0.1 needs bond 3 at N=8, which the staircase cannot hold
        spec = gaussian_config(sigma=0.1).spec
        opts = CompressionOptions(target_chi=3)
        with pytest.raises(ValueError, match="^extract stage: max bond dimension is 3"):
            build_pipeline(spec, 8, compression=opts)

    def test_build_pipeline_checks_run_config_fields(self):
        spec = gaussian_config().spec
        cases = [
            ((spec, 6, True), "support_bit must be an integer, got True"),
            ((spec, 6, 2.0), "support_bit must be an integer, got 2.0"),
            ((spec, 6.0), "n_qubits must be an integer, got 6.0"),
            ((spec, 6, 3, -1), "degree must be >= 0, got -1"),
            ((spec, 6, 3, 3, 2.5), "samples_per_region must be an integer"),
        ]
        for args, match in cases:
            with pytest.raises(ValueError, match=f"^{match}"):
                build_pipeline(*args)
        result = build_pipeline(spec, np.int64(6), np.int32(2), np.int64(3))
        assert result.piecewise.support_bit == 2 and result.grid.n_qubits == 6

    def test_spectra_rejects_non_integer_chi(self):
        # checked before any dense work: with no sigmas, and above the dense limit
        spec = gaussian_config().spec
        for bad in (2.5, True, "2"):
            for n, sigmas in ((6, [1.0]), (6, []), (200, [1.0])):
                with pytest.raises(ValueError, match="chi must be an integer"):
                    spectra(spec, n, sigmas, chi=bad)
        with pytest.raises(ValueError, match="need chi >= 0"):
            spectra(spec, 6, [], chi=-1)

    def test_dense_only_commands_refuse_big_registers(self, monkeypatch):
        monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "6")
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        with pytest.raises(ValueError, match="dense"):
            spectra(spec, 8, [1.0])
        with pytest.raises(ValueError, match="dense"):
            oracle_compare(gaussian_config(n=8))

    def test_unnormalized_norm_beyond_float_square(self):
        # The assembled state's norm is of order 2^(N/2); its square
        # overflows, so no stage may normalize it by overlap(m, m).
        spec = DistributionSpec("lorentzian", mu=1.0, sigma=0.1, domain=(0.0, 2.0))
        _, report = encode(RunConfig(spec=spec, n_qubits=1016))
        assert abs(report.result.compressed.norm() - 1.0) <= 1e-10
        assert report.result.compressed.max_bond <= 2

    def test_grid_finer_than_float_rejected(self):
        with pytest.raises(ValueError, match="1060 qubits on a domain of width 2"):
            encode(gaussian_config(n=1060))

    def test_defaults_have_one_source(self):
        # the positional defaults of build_pipeline and fit_piecewise, the
        # spectra chi and the CLI's run settings all equal RunConfig's
        import inspect

        from mpsprep import build_pipeline, fit_piecewise
        from mpsprep.cli import _resolve_run_config, build_parser

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        cfg = gaussian_config()
        assert cfg.compression == CompressionOptions()
        for name in ("support_bit", "degree", "samples_per_region", "compression"):
            assert default(build_pipeline, name) == getattr(cfg, name)
        assert default(fit_piecewise, "samples_per_region") == cfg.samples_per_region
        assert default(spectra, "chi") == cfg.compression.target_chi
        cli = _resolve_run_config(build_parser().parse_args(["encode"]))
        for name in ("support_bit", "degree", "samples_per_region", "compression"):
            assert getattr(cli, name) == getattr(cfg, name)

    def test_round_off_bonds_are_one(self):
        # A constant density is a product state: every second Schmidt value
        # is round-off, so no compressed bond is 2.
        spec = DistributionSpec("custom", domain=(0.0, 1.0), pdf_fn=np.ones_like)
        _, report = encode(RunConfig(spec=spec, n_qubits=12))
        assert report.result.compressed.bond_dims == (1,) * 13
        assert report.fidelity >= 1.0 - 1e-14

    def test_gates_settle_in_one_sweep_at_large_n(self):
        # No gate column is set by a round-off Schmidt value, so a second
        # ALS sweep moves the gates only as much as it moves the state.
        cfgs = [
            gaussian_config(n=512, sigma=0.44, compression=opts)
            for opts in (
                CompressionOptions(max_sweeps=1),
                CompressionOptions(max_sweeps=2, convergence_tol=1e-300),
            )
        ]
        (one, _), (two, _) = (encode(cfg) for cfg in cfgs)
        pairs = zip(one.gates, two.gates)
        assert max(np.max(np.abs(a.matrix - b.matrix)) for a, b in pairs) <= 1e-10

    def test_three_qr_passes(self, qr_calls):
        # tt_round's left-canonicalizing pass and the two half sweeps of
        # one ALS sweep over the 58-site head; no stage re-canonicalizes
        # what the last one made. Sites 58.. move the region coordinate by
        # less than a float resolves, so they are a |+> tail at any N and
        # compression does not grow past the head.
        counts = []
        for n in (64, 64, 512, 1023):
            qr_calls.clear()
            encode(gaussian_config(n=n))
            counts.append(len(qr_calls))
        assert counts == [3 * 57] * 4

    def test_rank1_target(self):
        cfg = gaussian_config(n=7, compression=CompressionOptions(target_chi=1))
        circuit, report = encode(cfg)
        assert report.result.compressed.max_bond == 1
        assert len(circuit.gates) == 7
        assert 0.9 < report.fidelity <= 1.0


_GAUSS = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
_DENSE_ENTRY_POINTS = {
    "target_amplitudes": lambda: target_amplitudes(_GAUSS, 10),
    "Grid.points": lambda: Grid(10, 0.0, 2.0).points(),
    "Mps.to_statevector": lambda: build_pipeline(_GAUSS, 10).assembled.to_statevector(),
    "run": lambda: run(Circuit(n_qubits=10, gates=())),
    "to_mps_exact": lambda: to_mps_exact(np.ones(2**10)),
    "spectra": lambda: spectra(_GAUSS, 10, [1.0]),
    "error_decomposition": lambda: error_decomposition(build_pipeline(_GAUSS, 10)),
    "max_derivative": lambda: max_derivative(_GAUSS, 10),
    "oracle_compare": lambda: oracle_compare(gaussian_config(n=10)),
}


@pytest.mark.parametrize("name", sorted(_DENSE_ENTRY_POINTS))
def test_dense_entry_point_refuses_above_limit(name, monkeypatch):
    # Every public path that makes a 2^N vector checks MPSPREP_DENSE_LIMIT first.
    monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "4")
    with pytest.raises(ValueError, match="limit of 4 qubits"):
        _DENSE_ENTRY_POINTS[name]()


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: Gate((0.5,), np.eye(2)), "qubits"),
        (lambda: Gate(("1",), np.eye(2)), "qubits"),
        (lambda: Circuit(0, ()), "n_qubits"),
        (lambda: Circuit(True, ()), "n_qubits"),
        (lambda: Grid(True, 0, 1), "n_qubits"),
        (lambda: Grid(2.0, 0, 1), "n_qubits"),
        (lambda: Grid(3, "0", 1), "a"),
        (lambda: PiecewisePoly(-1, 0, ()), "support_bit"),
        (lambda: fit_piecewise(_GAUSS, Grid(5, 0.0, 2.0), 1, -1), "degree"),
    ],
    ids=[
        "gate-float-qubit", "gate-str-qubit", "circuit-0", "circuit-bool",
        "grid-bool", "grid-float", "grid-str-bound", "pp-negative-k", "fit-degree",
    ],
)
def test_record_integer_fields_are_checked(make, field):
    # A record never turns a bad integer field into a plausible wrong value:
    # each is a ValueError that names the field.
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        make()


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: Grid(3, 10**400, 10**401), "a"),
        (lambda: DistributionSpec("gaussian", mu=10**400), "mu"),
    ],
    ids=["grid-bound", "spec-mu"],
)
def test_record_real_field_names_a_huge_int(make, field):
    # An int beyond float range is a ValueError that names the field and
    # the int's size, never its 400 digits.
    with pytest.raises(ValueError, match=rf"^{field} must fit a float, got a 1329-bit int$"):
        make()


class TestErrorDecompositionReference:
    DOMAINS = {
        "gaussian": (0.0, 2.0), "lorentzian": (0.0, 2.0), "lognormal": (0.0, 5.0)
    }

    @staticmethod
    def dense_reference(result):
        # The four-dense-vector formulas: every figure, norms included, from
        # 2^N vectors.
        exact = target_amplitudes(result.spec, result.grid.n_qubits)
        states = [m.to_statevector() for m in (result.assembled, result.compressed)]
        pp_state, chi_state = (v / np.linalg.norm(v) for v in states)
        circ_state = run(result.circuit)
        return (
            1.0 - fidelity(exact, pp_state),
            1.0 - fidelity(pp_state, chi_state),
            1.0 - fidelity(chi_state, circ_state),
            1.0 - fidelity(exact, circ_state),
        )

    @pytest.mark.parametrize("kind", sorted(DOMAINS))
    def test_matches_dense_formulas(self, kind):
        spec = DistributionSpec(kind, mu=1.0, sigma=0.44, domain=self.DOMAINS[kind])
        for n in (8, 13, 16):
            for p in (3, 5):
                result = build_pipeline(spec, n, degree=p)
                dec = error_decomposition(result)
                got = (dec.pp_error, dec.mps_error, dec.gate_error, dec.total)
                want = self.dense_reference(result)
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (n, p)

    def test_degree_20_lorentzian(self):
        result = build_pipeline(NARROW_LORENTZIAN, 16, degree=20)
        dec = error_decomposition(result)
        got = (dec.pp_error, dec.mps_error, dec.gate_error, dec.total)
        want = self.dense_reference(result)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def _untimed(rows):
    """Sweep rows with the timing columns, which vary run to run, zeroed."""
    return [
        dataclasses.replace(r, t_fit_ms=0.0, t_compress_ms=0.0, t_extract_ms=0.0)
        for r in rows
    ]


class TestSweeps:
    def test_sigma_rows_and_order(self):
        cfg = gaussian_config(n=5)
        specs = [
            DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0)),
            DistributionSpec("lorentzian", mu=1.0, sigma=1.0, domain=(0.0, 2.0)),
        ]
        rows = sweep_sigma(cfg, [0.6, 1.0], specs=specs, n_values=[5, 6])
        assert len(rows) == 8
        assert [r.distribution for r in rows[:4]] == ["gaussian"] * 4
        assert [(r.sigma, r.N) for r in rows[:4]] == [
            (0.6, 5), (0.6, 6), (1.0, 5), (1.0, 6)
        ]
        assert all(r.fidelity > 0.99 for r in rows)
        assert all(not r.error for r in rows)

    def test_empty_sigma_list_gives_header_only(self):
        csv = render_csv(sweep_sigma(gaussian_config(n=5), []))
        assert csv == ",".join(CSV_COLUMNS) + "\n"

    def test_failed_cell_recorded(self):
        bad = DistributionSpec(
            "custom", domain=(0.0, 1.0), pdf_fn=lambda x: -np.ones_like(np.asarray(x))
        )
        cfg = RunConfig(spec=bad, n_qubits=5)
        rows = sweep_sigma(cfg, [0.5])
        assert len(rows) == 1
        assert rows[0].error
        assert np.isnan(rows[0].fidelity)

    def test_cell_rule_fails_its_cell_not_the_sweep(self):
        # Every rule a cell can break, the fit's, the grid's and the
        # config's alike, fails that cell's row alone: the row carries the
        # requested value, the message and NaN figures, and the other rows
        # are those of the same sweep without the bad value.
        g5, g6 = gaussian_config(n=5), gaussian_config(n=6)
        few = gaussian_config(n=6, samples_per_region=4)
        cases = [  # (sweep with `bad` appended, column, bad value, message)
            (lambda bad: sweep_degree(few, [1, 3, *bad]), "p", 4,
             "fit stage: need at least degree+1=5 samples per region, got 4"),
            (lambda bad: sweep_sigma(g5, [1.0], n_values=[5, *bad]), "N", 1100,
             "1100 qubits on a domain of width 2 give a grid spacing below the "
             "smallest normal float (2.23e-308)"),
            (lambda bad: sweep_sigma(g5, [1.0], n_values=[5, *bad]), "N", 3,
             "support_bit must be in [0, 3), got 3"),
            (lambda bad: sweep_sigma(g5, [1.0, *bad]), "sigma", -1.0,
             "sigma must be finite and > 0, got -1.0"),
            (lambda bad: sweep_degree(g6, [3, *bad]), "p", 2.5,
             "degree must be an integer, got 2.5"),
            (lambda bad: sweep_degree(g6, [3, *bad]), "p", -1,
             "degree must be >= 0, got -1"),
        ]
        for sweep, column, value, message in cases:
            *good, failed = sweep([value])
            assert (getattr(failed, column), failed.error) == (value, message)
            figures = (failed.fidelity, failed.pp_err, failed.mps_err, failed.gate_err)
            assert all(np.isnan(x) for x in figures) and failed.gate_count == 0
            assert good and not any(r.error for r in good)
            assert _untimed(good) == _untimed(sweep([]))

    def test_one_shot_iterables_sweep_every_cell(self):
        specs = [
            DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0)),
            DistributionSpec("lorentzian", mu=1.0, sigma=1.0, domain=(0.0, 2.0)),
        ]
        cfg = gaussian_config(n=5)
        rows = sweep_sigma(cfg, iter([0.6, 1.0]), specs=specs)
        assert len(rows) == 4
        assert _untimed(rows) == _untimed(sweep_sigma(cfg, [0.6, 1.0], specs=specs))
        rows = sweep_degree(cfg, iter([2, 3]))
        assert _untimed(rows) == _untimed(sweep_degree(cfg, [2, 3]))

    def test_unverified_cell_has_nan_figures(self, monkeypatch):
        monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "8")
        (row,) = sweep_sigma(gaussian_config(n=10), [1.0])
        assert not row.error and row.gate_count == 10
        figures = (row.fidelity, row.pp_err, row.mps_err, row.gate_err)
        assert all(np.isnan(x) for x in figures)

    def test_degree_sweep_monotone(self):
        rows = sweep_degree(gaussian_config(n=7, sigma=0.1), [1, 2, 3, 4, 5])
        fids = [r.fidelity for r in rows]
        assert all(b >= a - 1e-6 for a, b in zip(fids, fids[1:]))
        assert fids[2] >= 0.99  # cubic

    def test_degree_validation(self):
        # Degree 0 is RunConfig's floor and sweeps like any other degree; a
        # negative one fails its own row with RunConfig's message.
        rows = sweep_degree(gaussian_config(n=5), [0, 1, -1])
        assert [r.p for r in rows] == [0, 1, -1]
        assert [r.error for r in rows] == ["", "", "degree must be >= 0, got -1"]
        assert rows[0].fidelity > 0.999

    def test_sigma_shape_slight_dip_then_rise(self):
        # fidelity recovers monotonically past the mid-sigma dip and any
        # decay inside the dip window stays slight
        sigmas = [0.12, 0.15, 0.2, 0.25, 0.3, 0.35, 0.44, 0.6, 1.0]
        rows = sweep_sigma(gaussian_config(n=7), sigmas)
        fids = {r.sigma: r.fidelity for r in rows}
        assert all(fids[s] >= 0.99 for s in sigmas)
        tail = [fids[s] for s in sigmas if s >= 0.3]
        assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
        window = [fids[s] for s in sigmas if s <= 0.3]
        assert max(window) - min(window) <= 1e-3

    def test_csv_format(self):
        rows = sweep_sigma(gaussian_config(n=5), [1.0])
        text = render_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(CSV_COLUMNS)

    def test_numpy_bool_written_lowercase(self):
        assert _csv(["a", "b"], [(np.bool_(True), np.bool_(False))]) == "a,b\ntrue,false\n"

    def test_csv_header_pinned(self):
        # the column order the README documents
        assert render_csv([]) == (
            "distribution,mu,sigma,N,k,p,chi,fidelity,pp_err,mps_err,gate_err,"
            "gate_count,t_fit_ms,t_compress_ms,t_extract_ms\n"
        )


class TestDeterminism:
    def test_byte_identical_circuit_and_rows(self, tmp_path):
        cfg = gaussian_config(n=8, sigma=0.5)

        def one_pass(name):
            circuit, _ = encode(cfg)
            path = tmp_path / name
            serialize_circuit(circuit, path)
            lines = render_csv(sweep_sigma(cfg, [0.5, 1.0])).splitlines()
            stripped = [
                [v for col, v in zip(CSV_COLUMNS, line.split(",")) if not col.startswith("t_")]
                for line in lines
            ]
            return path.read_bytes(), stripped

        blob_a, rows_a = one_pass("a.json")
        blob_b, rows_b = one_pass("b.json")
        assert blob_a == blob_b
        assert rows_a == rows_b


class TestSpectraReport:
    def test_summary_fields(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        out = spectra(spec, 12, [1.0, 0.4])
        assert len(out) == 2
        for summary in out:
            assert len(summary.spectra) == 11
            assert summary.decay.beta > 1.152
            assert summary.chi_bound_value <= 0.01
            assert summary.max_pdf_derivative > 0

    def test_squeeze_trend(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=1.0, domain=(0.0, 2.0))
        out = spectra(spec, 12, [1.0, 0.6, 0.2])
        betas = [s.decay.beta for s in out]
        slopes = [s.max_pdf_derivative for s in out]
        assert betas[0] > betas[-1]
        assert slopes[0] < slopes[-1]

    def test_system_size_trend(self):
        spec = DistributionSpec("gaussian", mu=1.0, sigma=0.4, domain=(0.0, 2.0))
        betas = [spectra(spec, n, [0.4])[0].decay.beta for n in (8, 10, 12, 14)]
        assert all(b >= a - 1e-9 for a, b in zip(betas, betas[1:]))


class TestOracleCompare:
    def test_ratio_range_and_flag(self):
        rep = oracle_compare(gaussian_config(n=8))
        assert rep.ratio == rep.f_circuit / rep.f_optimal
        assert 0.0 < rep.ratio <= 1.0 + 1e-9
        assert not rep.exceeds_one

    def test_exactly_representable_target(self):
        spec = DistributionSpec(
            "custom", domain=(0.0, 2.0), pdf_fn=lambda x: (np.asarray(x) + 1.0) ** 2
        )
        cfg = RunConfig(spec=spec, n_qubits=8, support_bit=0, degree=1)
        rep = oracle_compare(cfg)
        assert rep.ratio == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("spec", FAMILIES[:3], ids=lambda s: s.kind)
    def test_optimal_fidelity_equals_the_dense_overlap(self, spec):
        # The rank-chi TT-SVD b of the unit target t is an orthogonal
        # projection of t, so <t|b>/||b|| = ||b||: the norm the report reads
        # equals the dense overlap with the normalized baseline.
        for n in (5, 8, 10):
            t = target_amplitudes(spec, n)
            dense = fidelity(t, to_mps_exact(t, 2).normalize().to_statevector())
            f_optimal = oracle_compare(RunConfig(spec=spec, n_qubits=n)).f_optimal
            assert abs(f_optimal - dense) <= 1e-14

    def test_stability_across_sizes(self):
        ratios = [
            oracle_compare(gaussian_config(n=n, sigma=0.4)).ratio for n in (6, 9, 12)
        ]
        assert max(abs(r - ratios[0]) for r in ratios) <= 0.01


def _per_gate_reference(circuit) -> bytes:
    """The circuit file as one json.dumps per gate writes it."""
    head = {"n_qubits": circuit.n_qubits, "format_version": "1"}
    gates = ",\n".join(
        json.dumps({"qubits": list(g.qubits), "matrix": g.matrix.tolist()})
        for g in circuit.gates
    )
    return f'{json.dumps(head)[:-1]}, "gates": [\n{gates}\n]}}\n'.encode()


def _mutate(gate: dict, fault: str, t: int) -> None:
    if fault == "nan":
        gate["matrix"][0][3] = float("nan")
    elif fault == "str":
        gate["matrix"][2][3] = "x"
    elif fault == "bool":
        gate["matrix"][2][0] = True
    elif fault == "repeat":
        gate["qubits"] = [t, t]
    elif fault == "no-matrix":
        del gate["matrix"]
    elif fault == "shape":
        gate["matrix"] = np.eye(2).tolist()
    elif fault == "range":
        gate["qubits"] = [t, 9]
    elif fault == "huge":
        gate["matrix"][1][2] = 10**400


def _faulty_gates(faults, n_gates=4) -> list:
    """A staircase of ``n_gates`` identity gates with ``faults`` (gate, kind)
    applied. On one gate, "repeat" overrides "range", and "no-matrix" and
    "shape" replace the matrix the entry faults write into."""
    gates = [{"qubits": [t, t + 1], "matrix": np.eye(4).tolist()} for t in range(n_gates)]
    order = {"range": 0, "no-matrix": 2, "shape": 2}
    for t, fault in sorted(faults, key=lambda f: order.get(f[1], 1)):
        _mutate(gates[t], fault, t)
    return gates


def _circuit_file(path, gates, n_qubits):
    payload = {"n_qubits": n_qubits, "format_version": "1", "gates": gates}
    path.write_text(json.dumps(payload))
    return path


def _faulty_file(tmp_path, faults):
    """A 4-gate staircase file on 5 qubits with ``faults`` (gate, kind) applied."""
    return _circuit_file(tmp_path / "bad.json", _faulty_gates(faults), 5)


def _error(path):
    """The type and message of the error reading ``path`` raises, or None."""
    try:
        deserialize_circuit(path)
    except Exception as exc:
        return type(exc), str(exc)
    return None


NON_FINITE = "gate matrix contains non-finite entries"
HUGE = (
    r"^\$\.gates\[1\]\.matrix\[1\]\[2\]: "
    r"expected a number that fits a float, got a 1329-bit int$"
)


class TestSerialization:
    @pytest.mark.parametrize("n", [64, 1023])
    def test_bytes_match_a_per_gate_reference(self, tmp_path, n):
        circuit = build_pipeline(gaussian_config().spec, n).circuit
        path = tmp_path / "c.json"
        serialize_circuit(circuit, path)
        assert path.read_bytes() == _per_gate_reference(circuit)

    def test_roundtrip_keeps_the_sign_of_zero(self, tmp_path):
        # -0.0 and 0.0 compare equal but are different bits: gates 0 and 1
        # must not share one rendering.
        pos = np.eye(4)
        neg = np.where(pos == 0.0, -0.0, pos)
        single = np.array([[0.0, 1.0], [1.0, -0.0]])
        gates = (Gate((0, 1), pos), Gate((1, 2), neg), Gate((2,), single))
        circuit = Circuit(n_qubits=3, gates=gates)
        path = tmp_path / "c.json"
        serialize_circuit(circuit, path)
        assert path.read_bytes() == _per_gate_reference(circuit)
        back = deserialize_circuit(path)
        for a, b in zip(circuit.gates, back.gates):
            assert a.qubits == b.qubits
            assert np.array_equal(a.matrix, b.matrix)
            assert np.array_equal(np.signbit(a.matrix), np.signbit(b.matrix))
        assert np.signbit(back.gates[1].matrix).sum() == 12
        assert not np.signbit(back.gates[0].matrix).any()

    @pytest.mark.parametrize(
        "faults, match",
        [
            ([(1, "nan"), (3, "str")], rf"^\$\.gates\[1\]: {NON_FINITE}$"),
            (
                [(1, "str"), (3, "nan")],
                r"^\$\.gates\[1\]\.matrix\[2\]\[3\]: expected a number, got 'x'$",
            ),
            ([(1, "repeat"), (1, "nan")], rf"^\$\.gates\[1\]: {NON_FINITE}$"),
            (
                [(1, "repeat"), (3, "no-matrix")],
                r"^\$\.gates\[1\]: gate qubits must be distinct; qubit 1 is repeated$",
            ),
            (
                [(1, "no-matrix"), (3, "nan")],
                r"^\$\.gates\[1\]\.matrix: missing required field$",
            ),
            ([(0, "range"), (1, "nan")], rf"^\$\.gates\[1\]: {NON_FINITE}$"),
            (
                [(0, "range")],
                r"^\$\.gates: gate qubit 9 outside register of size 5$",
            ),
        ],
        ids=[
            "nan-then-str",
            "str-then-nan",
            "nan-beats-repeat-in-one-gate",
            "repeat-then-no-matrix",
            "no-matrix-then-nan",
            "nan-beats-register-range",
            "register-range",
        ],
    )
    def test_reports_the_first_failure_in_gate_order(self, tmp_path, faults, match):
        # The checks run over all gates at once; the error is the one a
        # gate-by-gate reading meets first.
        with pytest.raises(SchemaError, match=match):
            deserialize_circuit(_faulty_file(tmp_path, faults))

    def test_an_int_past_float_range_keeps_its_place(self, tmp_path):
        # Such an int is a SchemaError at its path, in gate order with the
        # other checks.
        with pytest.raises(SchemaError, match=HUGE):
            deserialize_circuit(_faulty_file(tmp_path, [(1, "huge"), (3, "nan")]))
        with pytest.raises(SchemaError, match=rf"^\$\.gates\[1\]: {NON_FINITE}$"):
            deserialize_circuit(_faulty_file(tmp_path, [(1, "nan"), (3, "huge")]))
        path = _faulty_file(tmp_path, [(1, "str"), (1, "huge")])
        with pytest.raises(SchemaError, match=r"^\$\.gates\[1\]\.matrix\[2\]\[3\]: "):
            deserialize_circuit(path)

    @given(
        faults=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from(
                    ["nan", "str", "bool", "repeat", "no-matrix", "shape", "huge", "range"]
                ),
            ),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_error_is_that_of_the_shortest_failing_prefix(self, tmp_path_factory, faults):
        # The prefix files have a register wide enough for qubit 9, so only
        # per-gate faults fail them; the register range is checked last, so
        # a "range" fault is reported only when no gate has another fault.
        tmp = tmp_path_factory.mktemp("faults")
        gates = _faulty_gates(faults, n_gates=5)
        whole = _error(_circuit_file(tmp / "whole.json", gates, 6))
        for m in range(1, 6):
            first = _error(_circuit_file(tmp / f"prefix{m}.json", gates[:m], 10))
            if first is not None:
                assert first[1].startswith(f"$.gates[{m - 1}]")
                break
        else:
            first = (SchemaError, "$.gates: gate qubit 9 outside register of size 6")
        assert whole == first
        assert ("register" in whole[1]) == all(kind == "range" for _, kind in faults)

    def test_lossless_roundtrip(self, tmp_path, rng):
        from conftest import random_mps
        from mpsprep import extract_circuit

        circuit = extract_circuit(random_mps(6, 2, rng).normalize())
        path = tmp_path / "c.json"
        serialize_circuit(circuit, path)
        back = deserialize_circuit(path)
        assert back.n_qubits == circuit.n_qubits
        for a, b in zip(circuit.gates, back.gates):
            assert a.qubits == b.qubits
            assert np.array_equal(a.matrix, b.matrix)

    def test_missing_gates_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_qubits": 2, "format_version": "1"}')
        with pytest.raises(SchemaError, match=r"\$\.gates"):
            deserialize_circuit(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text('{"n_qubits": 1, "format_version": "2", "gates": []}')
        with pytest.raises(SchemaError, match="unsupported version"):
            deserialize_circuit(path)

    def test_bad_matrix_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "n_qubits": 2,
            "format_version": "1",
            "gates": [{"qubits": [0, 1], "matrix": [[1.0, 0.0], [0.0, 1.0]]}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=r"gates\[0\]\.matrix"):
            deserialize_circuit(path)

    def test_repeated_qubit(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "n_qubits": 2,
            "format_version": "1",
            "gates": [
                {"qubits": [0, 1], "matrix": np.eye(4).tolist()},
                {"qubits": [1, 1], "matrix": np.eye(4).tolist()},
            ],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=r"^\$\.gates\[1\]: .*qubit 1 is repeated"):
            deserialize_circuit(path)

    def test_non_finite_gate(self, tmp_path):
        # json reads NaN and Infinity as floats; the gate must refuse them
        path = tmp_path / "bad.json"
        matrix = np.eye(4).tolist()
        matrix[0][3] = float("nan")
        payload = {
            "n_qubits": 2,
            "format_version": "1",
            "gates": [{"qubits": [0, 1], "matrix": matrix}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=r"^\$\.gates\[0\]: .*non-finite"):
            deserialize_circuit(path)

    def test_bool_n_qubits(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"n_qubits": True, "format_version": "1", "gates": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=r"^\$\.n_qubits: .*True"):
            deserialize_circuit(path)

    def test_bool_qubit(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "n_qubits": 1,
            "format_version": "1",
            "gates": [{"qubits": [False], "matrix": np.eye(2).tolist()}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=r"^\$\.gates\[0\]\.qubits: "):
            deserialize_circuit(path)

    @pytest.mark.parametrize(
        "entry", ["1", True, None, [1.0]], ids=["string", "bool", "null", "list"]
    )
    def test_non_number_matrix_entry(self, tmp_path, entry):
        path = tmp_path / "bad.json"
        matrix = np.eye(2).tolist()
        matrix[1][0] = entry
        payload = {
            "n_qubits": 1,
            "format_version": "1",
            "gates": [{"qubits": [0], "matrix": matrix}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(
            SchemaError, match=r"^\$\.gates\[0\]\.matrix\[1\]\[0\]: expected a number"
        ):
            deserialize_circuit(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError, match="not valid JSON"):
            deserialize_circuit(path)

    def test_not_utf8(self, tmp_path):
        # a UTF-16 byte-order mark: a file-format error, not a numerical one
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SchemaError, match=r"^\$: not valid JSON"):
            deserialize_circuit(path)
        assert main(["validate", str(path)]) == 3


class TestCli:
    def test_encode_writes_outputs(self, tmp_path, capsys):
        circ = tmp_path / "circuit.json"
        rep = tmp_path / "report.json"
        code = main(
            [
                "encode", "--dist", "gaussian", "--mu", "1", "--sigma", "1",
                "--domain", "0,2", "--n", "8", "--k", "3", "--p", "3",
                "--chi", "2", "--out", str(circ), "--report", str(rep),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fidelity" in out
        circuit = deserialize_circuit(circ)
        assert circuit.n_qubits == 8
        report = json.loads(rep.read_text())
        assert report["fidelity"] >= 0.999
        assert report["config"]["max_sweeps"] == 50
        assert report["config"]["convergence_tol"] == 1e-10

    def test_report_echoes_gridded_lognormal_domain(self, tmp_path):
        rep = tmp_path / "report.json"
        code = main(["encode", "--dist", "lognormal", "--n", "6", "--report", str(rep)])
        assert code == 0
        assert json.loads(rep.read_text())["config"]["domain"] == [0.125, 5.0]

    def test_encode_runs_at_the_longest_default_lognormal_grid(self, capsys, monkeypatch):
        # the default domain [0.125, 5] allows N <= 1024, and every such N runs
        monkeypatch.delenv("MPSPREP_DENSE_LIMIT", raising=False)
        argv = ["encode", "--dist", "lognormal", "--sigma", "0.44", "--n", "1024"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fidelity not measured: N=1024 is above the dense limit of 24" in out

    def test_encode_above_limit_says_fidelity_not_measured(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "8")
        rep = tmp_path / "report.json"
        assert main(["encode", "--n", "10", "--report", str(rep)]) == 0
        out = capsys.readouterr().out
        assert "fidelity not measured: N=10 is above the dense limit of 8\n" in out
        assert "errors" not in out
        report = json.loads(rep.read_text())
        assert report["fidelity"] is None and report["fidelity_vs"] is None
        assert "errors" not in report
        assert '"fidelity": null' in rep.read_text()

    def test_validate_roundtrip(self, tmp_path, capsys):
        circ = tmp_path / "circuit.json"
        assert main(["encode", "--n", "6", "--out", str(circ)]) == 0
        assert main(["validate", str(circ)]) == 0
        assert "staircase true" in capsys.readouterr().out

    def test_validate_flags_bad_circuit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = {
            "n_qubits": 2,
            "format_version": "1",
            "gates": [{"qubits": [0, 1], "matrix": [[1.0] * 4] * 4}],
        }
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 2
        assert "issue" in capsys.readouterr().out

    def test_validate_flags_misplaced_terminal_gate(self, tmp_path, capsys):
        path = tmp_path / "misplaced.json"
        serialize_circuit(misplaced_terminal_circuit(), path)
        assert main(["validate", str(path)]) == 2
        out = capsys.readouterr().out
        assert "staircase false" in out
        assert "issue: gate 2 " in out

    def test_validate_rejects_non_finite_gate(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        circ = tmp_path / "circuit.json"
        assert main(["encode", "--n", "4", "--out", str(circ)]) == 0
        payload = json.loads(circ.read_text())
        payload["gates"][1]["matrix"][0][0] = float("nan")
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 3
        assert "$.gates[1]: gate matrix contains non-finite" in capsys.readouterr().err

    def test_validate_rejects_an_int_past_float_range(self, tmp_path, capsys):
        path = _faulty_file(tmp_path, [(1, "huge")])
        assert main(["validate", str(path)]) == 3
        err = capsys.readouterr().err
        assert "$.gates[1].matrix[1][2]: expected a number that fits a float" in err

    def test_sweep_sigma_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "sweep-sigma", "--dists", "gaussian,lorentzian", "--sigmas",
                "0.6,1.0", "--n-list", "5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "args, cell, warning",
        [
            (["sweep-sigma", "--n", "5", "--n-list", "5,3", "--sigmas", "1"], ("N", "3"),
             "gaussian sigma=1.0 N=3 p=3: support_bit must be in [0, 3), got 3"),
            (["sweep-degree", "--n", "6", "--samples", "4", "--degrees", "3,4"], ("p", "4"),
             "gaussian sigma=1.0 N=6 p=4: fit stage: need at least degree+1=5 "
             "samples per region, got 4"),
        ],
        ids=["sweep-sigma", "sweep-degree"],
    )
    def test_sweep_bad_cell_is_a_failed_row(self, tmp_path, capsys, args, cell, warning):
        # A failed cell is a NaN row of the CSV and a warning; the command
        # succeeds and the other cell is written as usual.
        out = tmp_path / "rows.csv"
        assert main(args + ["--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        good, bad = (dict(zip(header.split(","), r.split(","))) for r in lines)
        column, value = cell
        assert (bad[column], bad["fidelity"], bad["gate_count"]) == (value, "nan", "0")
        assert float(good["fidelity"]) > 0.99
        assert capsys.readouterr().err == f"warning: {warning}\n"

    def test_sweep_sigma_config_domain(self, tmp_path):
        # a domain from the config file counts like the same --domain flag
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("domain = 0,4\n")
        rows = []
        for extra in (["--config", str(cfgfile)], ["--domain", "0,4"]):
            out = tmp_path / "rows.csv"
            args = ["sweep-sigma", "--sigmas", "1", "--n", "8", "--out", str(out)]
            assert main(args + extra) == 0
            header, row = out.read_text().strip().split("\n")
            rows.append(dict(zip(header.split(","), row.split(","))))
        for row in rows:
            for col in ("t_fit_ms", "t_compress_ms", "t_extract_ms"):
                del row[col]
        assert rows[0] == rows[1]
        assert rows[0]["fidelity"] == "0.999979414826"

    @pytest.mark.parametrize("domain", [[], ["--domain", "0.5,3"]], ids=["default", "flag"])
    def test_sweep_sigma_families_read_the_config_once(self, tmp_path, monkeypatch, domain):
        # Each family of --dists gives the rows that --dist gives it: the
        # domain from the flag if one is set, else the family's default.
        # The config file is read once for all of them.
        reads, load = [], cli._load_config_file
        monkeypatch.setattr(cli, "_load_config_file", lambda p: reads.append(p) or load(p))
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mu = 1.2\n")
        common = ["sweep-sigma", "--config", str(cfgfile), "--sigmas", "0.5", "--n", "6"]

        def untimed(*extra):
            out = tmp_path / "rows.csv"
            assert main([*common, *domain, *extra, "--out", str(out)]) == 0
            return [line.rsplit(",", 3)[0] for line in out.read_text().splitlines()[1:]]

        both = untimed("--dists", "gaussian,lognormal")
        assert len(reads) == 1
        assert both == untimed("--dist", "gaussian") + untimed("--dist", "lognormal")

    def test_spectra_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        detail = tmp_path / "detail.csv"
        code = main(
            [
                "spectra", "--dist", "gaussian", "--n", "10", "--sigmas",
                "1.0,0.4", "--out", str(out), "--detail", str(detail),
            ]
        )
        assert code == 0
        summary = out.read_text().splitlines()
        assert summary[0] == "sigma,beta,alpha,r_squared,chi_bound,max_derivative"
        assert [len(line.split(",")) for line in summary[1:]] == [6, 6]
        lines = detail.read_text().splitlines()
        assert lines[0] == "sigma,cut,k,singular_value"
        assert len(lines) > 1
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_oracle_compare_out(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(
            ["oracle-compare", "--dist", "gaussian", "--sigma", "0.4",
             "--n-list", "6,8", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0] == "distribution,sigma,N,f_circuit,f_optimal,ratio,exceeds_one"
        assert [line.split(",")[-1] for line in lines[1:]] == ["false", "false"]

    def test_usage_error_exit_code(self):
        assert main(["encode", "--n", "not-a-number"]) == 1
        assert main(["no-such-verb"]) == 1

    def test_io_error_exit_code(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.json")]) == 3

    def test_numerical_error_exit_code(self, capsys):
        # lognormal over a negative domain is rejected by validation
        assert main(["encode", "--dist", "lognormal", "--domain=-1,1"]) == 2
        assert main(["encode", "--n", "6", "--tol", "nan"]) == 2
        assert "convergence_tol must be > 0, got nan" in capsys.readouterr().err
        assert main(["spectra", "--n", "6", "--sigma", "nan"]) == 2
        assert "sigma must be finite and > 0, got nan" in capsys.readouterr().err

    def test_config_file_defaults_and_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "dist = gaussian\nsigma = 0.5\nn = 6\nk = 2\np = 2\n# comment\n"
        )
        circ = tmp_path / "c.json"
        code = main(
            ["encode", "--config", str(cfgfile), "--n", "7", "--out", str(circ)]
        )
        assert code == 0
        assert deserialize_circuit(circ).n_qubits == 7  # flag beats file

    def test_unknown_config_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("qubits = 9\n")
        assert main(["encode", "--config", str(cfgfile)]) == 2
        cfgfile.write_text("dist = cauchy\n")
        assert main(["encode", "--config", str(cfgfile)]) == 2
        cfgfile.write_text("domain = 1\n")
        assert main(["encode", "--config", str(cfgfile)]) == 2

    def test_sweep_degree_cli(self, tmp_path):
        out = tmp_path / "deg.csv"
        code = main(
            ["sweep-degree", "--dist", "gaussian", "--sigma", "0.3", "--n", "6",
             "--degrees", "1,2,3", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 4
