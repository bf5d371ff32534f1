"""Command-line interface.

Verbs map one-to-one onto the library entry points: ``encode`` builds a
single circuit, ``sweep-sigma`` / ``sweep-degree`` produce CSV campaigns,
``spectra`` reports decay fits and accuracy estimates, ``oracle-compare``
scores runs against the exact-SVD baseline, and ``validate`` checks a
serialized circuit. An optional ``key = value`` config file supplies
defaults; explicit flags win. Exit codes: 0 success, 1 usage error,
2 numerical failure, 3 I/O or file-format error.

Example:
    mpsprep encode --dist gaussian --mu 1 --sigma 1 --domain 0,2 \\
        --n 10 --k 3 --p 3 --chi 2 --out circuit.json --report report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .functions import DistributionSpec
from .mps import CompressionOptions, dense_qubit_limit
from .circuits import validate_circuit
from .simulate import RunConfig
from .pipeline import (
    SchemaError,
    _csv,
    _sig12,
    deserialize_circuit,
    encode,
    oracle_compare,
    render_csv,
    serialize_circuit,
    spectra,
    sweep_degree,
    sweep_sigma,
)

USAGE_ERROR, NUMERICAL_ERROR, IO_ERROR = 1, 2, 3

DEFAULT_DOMAINS = {
    "gaussian": (0.0, 2.0),
    "lorentzian": (0.0, 2.0),
    "lognormal": (0.0, 5.0),  # DistributionSpec pins the lower bound to 0.125
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_domain(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("domain must be 'a,b'")
    return float(parts[0]), float(parts[1])


def _parse_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


# Every run setting once: config-file key -> (the class and field it
# sets, argparse keywords of its --flag). A setting given neither as a
# flag nor in the file takes the field's default, except for those in
# _CLI_DEFAULTS and the per-distribution domain.
_RUN_KEYS = {
    "dist": (DistributionSpec, "kind", dict(choices=sorted(DEFAULT_DOMAINS))),
    "mu": (DistributionSpec, "mu", dict(type=float)),
    "sigma": (DistributionSpec, "sigma", dict(type=float)),
    "domain": (DistributionSpec, "domain", dict(type=_parse_domain, metavar="A,B")),
    "n": (RunConfig, "n_qubits", dict(type=int, help="number of qubits")),
    "k": (RunConfig, "support_bit", dict(type=int, help="support bit (2^k regions)")),
    "p": (RunConfig, "degree", dict(type=int, help="polynomial degree")),
    "samples": (
        RunConfig, "samples_per_region", dict(type=int, help="fit samples per region")
    ),
    "chi": (
        CompressionOptions, "target_chi", dict(type=int, help="target bond dimension")
    ),
    "max_sweeps": (CompressionOptions, "max_sweeps", dict(type=int)),
    "tol": (
        CompressionOptions,
        "convergence_tol",
        dict(type=float, help="sweep convergence tolerance"),
    ),
}

_CLI_DEFAULTS = {"dist": "gaussian", "mu": 1.0, "sigma": 1.0, "n": 10}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file supplying defaults")
    for key, (_, _, flag) in _RUN_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **flag)


def _parse_setting(key: str, raw: str):
    if key not in _RUN_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    flag = _RUN_KEYS[key][2]
    try:
        value = flag.get("type", str)(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc
    if "choices" in flag and value not in flag["choices"]:
        raise ValueError(f"config key {key!r} must be one of {flag['choices']}")
    return value


def _resolve_settings(args: argparse.Namespace) -> dict:
    # The CLI defaults, then the config file, then the flags. No domain
    # unless the file or a flag sets one: its default is the family's.
    values = dict(_CLI_DEFAULTS)
    if args.config:
        for key, raw in _load_config_file(args.config).items():
            values[key] = _parse_setting(key, raw)
    for key in _RUN_KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return values


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    return _run_config(_resolve_settings(args))


def _run_config(values: dict) -> RunConfig:
    kwargs = {DistributionSpec: {}, RunConfig: {}, CompressionOptions: {}}
    for key, value in {"domain": DEFAULT_DOMAINS[values["dist"]], **values}.items():
        owner, name, _ = _RUN_KEYS[key]
        kwargs[owner][name] = value
    return RunConfig(
        spec=DistributionSpec(**kwargs[DistributionSpec]),
        compression=CompressionOptions(**kwargs[CompressionOptions]),
        **kwargs[RunConfig],
    )


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_encode(args) -> int:
    config = _resolve_run_config(args)
    circuit, report = encode(config)
    if args.out:
        serialize_circuit(circuit, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1)
            fh.write("\n")
    if (e := report.errors) is None:
        n, limit = config.n_qubits, dense_qubit_limit()
        print(f"fidelity not measured: N={n} is above the dense limit of {limit}")
    else:
        print(f"fidelity {_sig12(report.fidelity)} (vs {report.fidelity_vs})")
        values = map(_sig12, (e.pp_error, e.mps_error, e.gate_error, e.total))
        print("errors pp {} mps {} gate {} total {}".format(*values))
    print(f"gates {len(circuit.gates)} max_bond {report.result.compressed.max_bond}")
    return 0


def _cmd_sweep_sigma(args) -> int:
    values = _resolve_settings(args)
    config = _run_config(values)
    dists = args.dists.split(",") if args.dists else [config.spec.kind]
    specs = []
    for d in dists:
        if d not in DEFAULT_DOMAINS:
            raise ValueError(f"unknown distribution {d!r}")
        # As if given by --dist: the domain from the flag or the file if
        # either has one, else this family's default.
        domain = values.get("domain", DEFAULT_DOMAINS[d])
        specs.append(replace(config.spec, kind=d, domain=domain))
    n_values = args.n_list or [config.n_qubits]
    return _write_sweep(args.out, sweep_sigma(config, args.sigmas, specs, n_values))


def _cmd_sweep_degree(args) -> int:
    config = _resolve_run_config(args)
    return _write_sweep(args.out, sweep_degree(config, args.degrees))


def _write_sweep(path: str | None, rows) -> int:
    # A failed cell is a row of the CSV and a warning, not a failed command.
    _write_text(path, render_csv(rows))
    for r in rows:
        if r.error:
            cell = f"{r.distribution} sigma={r.sigma} N={r.N} p={r.p}"
            print(f"warning: {cell}: {r.error}", file=sys.stderr)
    return 0


def _cmd_spectra(args) -> int:
    config = _resolve_run_config(args)
    sigmas = args.sigmas or [config.spec.sigma]
    results = spectra(
        config.spec, config.n_qubits, sigmas, chi=config.compression.target_chi
    )
    summary = [
        (r.sigma, r.decay.beta, r.decay.joint[0], r.decay.r_squared,
         r.chi_bound_value, r.max_pdf_derivative)
        for r in results  # decay.joint is (alpha, beta)
    ]
    columns = ("sigma", "beta", "alpha", "r_squared", "chi_bound", "max_derivative")
    _write_text(args.out, _csv(columns, summary))
    if args.detail:
        detail = [
            (r.sigma, cut, k, float(value))
            for r in results
            for cut, spectrum in enumerate(r.spectra, start=1)
            for k, value in enumerate(spectrum, start=1)
        ]
        _write_text(args.detail, _csv(("sigma", "cut", "k", "singular_value"), detail))
    return 0


def _cmd_oracle_compare(args) -> int:
    config = _resolve_run_config(args)
    n_values = args.n_list or [config.n_qubits]
    rows = []
    for n in n_values:
        rep = oracle_compare(replace(config, n_qubits=n))
        rows.append(
            (config.spec.kind, config.spec.sigma, n, rep.f_circuit, rep.f_optimal,
             rep.ratio, rep.exceeds_one)
        )
    columns = ("distribution", "sigma", "N", "f_circuit", "f_optimal", "ratio", "exceeds_one")
    _write_text(args.out, _csv(columns, rows))
    return 0


def _cmd_validate(args) -> int:
    circuit = deserialize_circuit(args.circuit)
    report = validate_circuit(circuit)
    print(
        f"qubits {report.n_qubits} gates {report.gate_count} "
        f"(two-qubit {report.two_qubit_count}) "
        f"max_orthogonality_deviation {_sig12(report.max_orthogonality_deviation)} "
        f"staircase {_sig12(report.staircase)}"
    )
    for issue in report.issues:
        print(f"issue: {issue}")
    return 0 if report.ok else NUMERICAL_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mpsprep", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="build one state-preparation circuit")
    _add_run_flags(p)
    p.add_argument("--out", help="circuit JSON output path")
    p.add_argument("--report", help="report JSON output path")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("sweep-sigma", help="fidelity vs standard deviation CSV")
    _add_run_flags(p)
    p.add_argument("--sigmas", type=_parse_floats, required=True, metavar="S1,S2,...")
    p.add_argument("--dists", help="comma list, e.g. gaussian,lognormal,lorentzian")
    p.add_argument("--n-list", dest="n_list", type=_parse_ints, metavar="N1,N2,...")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep_sigma)

    p = sub.add_parser("sweep-degree", help="fidelity vs polynomial degree CSV")
    _add_run_flags(p)
    p.add_argument("--degrees", type=_parse_ints, required=True, metavar="D1,D2,...")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep_degree)

    p = sub.add_parser("spectra", help="unfolding spectra and decay fits")
    _add_run_flags(p)
    p.add_argument("--sigmas", type=_parse_floats, metavar="S1,S2,...")
    p.add_argument("--out", help="summary CSV path (default stdout)")
    p.add_argument("--detail", help="optional per-singular-value CSV path")
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("oracle-compare", help="score against the exact-SVD baseline")
    _add_run_flags(p)
    p.add_argument("--n-list", dest="n_list", type=_parse_ints, metavar="N1,N2,...")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("validate", help="check a serialized circuit")
    p.add_argument("circuit", help="circuit JSON path")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:  # ahead of ValueError: SchemaError is one
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
