import importlib
import pathlib
import subprocess
import sys

import pytest

import mpsprep

LAYER_MODULES = ("linalg", "mps", "functions", "circuits", "simulate", "analysis", "pipeline")
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", LAYER_MODULES)
def test_layer_exports_resolve_and_are_reexported(name):
    # Tooling that walks each layer's __all__ (such as a tracer wrapping
    # every public function) breaks on a stale entry.
    mod = importlib.import_module(f"mpsprep.{name}")
    for attr in mod.__all__:
        assert hasattr(mod, attr), f"mpsprep.{name}.__all__ lists missing {attr!r}"
        assert getattr(mpsprep, attr, None) is getattr(mod, attr), (
            f"mpsprep does not re-export {name}.{attr}"
        )


def test_benchmark_tracer_installs():
    # The benchmark's tracer wraps every name in each layer's __all__ and
    # the Mps methods it lists; a removal it depends on fails here first.
    # One traced encode checks that calls through the package and between
    # layers reach the wrappers. A subprocess, because installing patches
    # the package globally.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import mpsprep, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install(mpsprep)\n"
        "tracer.enabled = True\n"
        "spec = mpsprep.DistributionSpec('gaussian', 1.0, 1.0, (0.0, 2.0))\n"
        "mpsprep.encode(mpsprep.RunConfig(spec=spec, n_qubits=8))\n"
        "layers = tracer.layers()\n"
        "for name in ('pipeline.encode', 'simulate.build_pipeline', 'mps.compress_als'):\n"
        "    assert layers.get(name, {}).get('calls') == 1, (name, sorted(layers))\n"
        # At N=64 compression sets a |+> tail aside; the head is still
        # compressed by one compress_als call and one tt_round call.
        "tracer.spans.clear()\n"
        "mpsprep.encode(mpsprep.RunConfig(spec=spec, n_qubits=64))\n"
        "layers = tracer.layers()\n"
        "for name in ('mps.compress_als', 'mps.tt_round'):\n"
        "    assert layers.get(name, {}).get('calls') == 1, (name, layers.get(name))\n"
    )
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    cmd = [sys.executable, "-c", code, *paths]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_oracle_selfcheck():
    # The benchmark's oracle checks run, Gate/Circuit construction and
    # target_amplitudes independently; a change that breaks them fails here.
    cmd = [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_setup_loads_no_scipy_or_fractions():
    # What the benchmark's setup probe times: a cold `import mpsprep` and
    # one warm-up encode. The package imports no scipy, and the grid's
    # exact spacing test needs no `fractions` (which loads `decimal`).
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import mpsprep\n"
        "spec = mpsprep.DistributionSpec('gaussian', 1.0, 1.0, (0.0, 2.0))\n"
        "mpsprep.encode(mpsprep.RunConfig(spec=spec, n_qubits=8))\n"
        "print(sorted({'scipy', 'fractions'} & set(sys.modules)))\n"
    )
    cmd = [sys.executable, "-c", code, str(ROOT / "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
