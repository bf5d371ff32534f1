import json

import numpy as np
import pytest

from mpsprep import (
    CSV_COLUMNS,
    Circuit,
    CompressionOptions,
    DistributionSpec,
    Gate,
    RunConfig,
    SchemaError,
    build_pipeline,
    deserialize_circuit,
    encode,
    error_decomposition,
    fidelity,
    oracle_compare,
    render_csv,
    run,
    serialize_circuit,
    spectra,
    sweep_degree,
    sweep_sigma,
    target_amplitudes,
)
from mpsprep.cli import main


def gaussian_config(n=8, sigma=1.0, **kw):
    spec = DistributionSpec("gaussian", mu=1.0, sigma=sigma, domain=(0.0, 2.0))
    return RunConfig(spec=spec, n_qubits=n, **kw)


class TestEncode:
    def test_gaussian_fidelity(self):
        _, report = encode(gaussian_config(n=10))
        assert report.fidelity >= 0.999
        assert report.fidelity_vs == "exact_target"
        assert report.gate_count == 10
        assert max(report.compressed_bonds) <= 2
        assert max(report.assembled_bonds) == 4

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
        _, report = encode(gaussian_config(n=6), include_decay_fit=True)
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["config"]["distribution"] == "gaussian"
        assert parsed["errors"]["total"] >= 0
        assert "beta" in parsed["decay_fit"]

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
        monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "7")
        _, report = encode(gaussian_config(n=8))
        assert report.fidelity_vs == "compressed_mps"
        assert report.fidelity >= 1.0 - 1e-8  # extraction is exact at rank 2

    def test_config_validation(self):
        with pytest.raises(ValueError, match="support_bit"):
            gaussian_config(n=3, support_bit=3)

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
        assert report.fidelity_vs == "compressed_mps"
        assert report.fidelity >= 1.0 - 1e-10

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

    def test_rank1_target(self):
        cfg = gaussian_config(n=7, compression=CompressionOptions(target_chi=1))
        circuit, report = encode(cfg)
        assert max(report.compressed_bonds) == 1
        assert report.gate_count == 7
        assert 0.9 < report.fidelity <= 1.0


class TestErrorDecompositionReference:
    DOMAINS = {
        "gaussian": (0.0, 2.0), "lorentzian": (0.0, 2.0), "lognormal": (0.0, 5.0)
    }

    @staticmethod
    def dense_reference(result):
        # The four-dense-vector formulas: every figure from 2^N vectors.
        exact = target_amplitudes(result.spec, result.grid.n_qubits)
        pp_state = result.assembled.normalize().to_statevector()
        chi_state = result.compressed.normalize().to_statevector()
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

    def test_above_limit_fidelity_is_gate_overlap(self, monkeypatch):
        cfg = gaussian_config(n=10, sigma=0.3)
        result = build_pipeline(cfg.spec, cfg.n_qubits)
        gate_err = error_decomposition(result).gate_error
        monkeypatch.setenv("MPSPREP_DENSE_LIMIT", "8")
        _, report = encode(cfg)
        assert report.fidelity_vs == "compressed_mps"
        assert abs(report.fidelity - (1.0 - gate_err)) <= 1e-14


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

    def test_degree_sweep_monotone(self):
        rows = sweep_degree(gaussian_config(n=7, sigma=0.1), [1, 2, 3, 4, 5])
        fids = [r.fidelity for r in rows]
        assert all(b >= a - 1e-6 for a, b in zip(fids, fids[1:]))
        assert fids[2] >= 0.99  # cubic

    def test_degree_validation(self):
        with pytest.raises(ValueError, match="degrees"):
            sweep_degree(gaussian_config(n=5), [0, 1])

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


class TestDeterminism:
    def test_byte_identical_circuit_and_rows(self, tmp_path):
        cfg = gaussian_config(n=8, sigma=0.5)

        def one_pass(name):
            circuit, _ = encode(cfg)
            path = tmp_path / name
            serialize_circuit(circuit, path)
            rows = sweep_sigma(cfg, [0.5, 1.0])
            stripped = [
                ",".join(
                    v
                    for col, v in zip(CSV_COLUMNS, r.csv_values())
                    if not col.startswith("t_")
                )
                for r in rows
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
        assert 0.0 < rep.ratio <= 1.0 + 1e-9
        assert not rep.exceeds_one

    def test_exactly_representable_target(self):
        spec = DistributionSpec(
            "custom", domain=(0.0, 2.0), pdf_fn=lambda x: (np.asarray(x) + 1.0) ** 2
        )
        cfg = RunConfig(spec=spec, n_qubits=8, support_bit=0, degree=1)
        rep = oracle_compare(cfg)
        assert rep.ratio == pytest.approx(1.0, abs=1e-8)

    def test_stability_across_sizes(self):
        ratios = [
            oracle_compare(gaussian_config(n=n, sigma=0.4)).ratio for n in (6, 9, 12)
        ]
        assert max(abs(r - ratios[0]) for r in ratios) <= 0.01


class TestSerialization:
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

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError, match="not valid JSON"):
            deserialize_circuit(path)


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
        assert out.read_text().startswith("sigma,beta,alpha")
        assert detail.read_text().startswith("sigma,cut,k")

    def test_oracle_compare_out(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(
            ["oracle-compare", "--dist", "gaussian", "--sigma", "0.4",
             "--n-list", "6,8", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_usage_error_exit_code(self):
        assert main(["encode", "--n", "not-a-number"]) == 1
        assert main(["no-such-verb"]) == 1

    def test_io_error_exit_code(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.json")]) == 3

    def test_numerical_error_exit_code(self):
        # lognormal over a negative domain is rejected by validation
        assert main(["encode", "--dist", "lognormal", "--domain=-1,1"]) == 2

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
