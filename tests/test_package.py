import ast
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


def _loaded_names(*dirs):
    # Every name some Python file under `dirs` reads: a bare name in a
    # load context or the attribute of a dotted access. A name that is only
    # defined or imported is not read.
    names = set()
    for path in (p for d in dirs for p in sorted(d.rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _private_definitions(path):
    # The module-level functions, classes and constants of `path` whose
    # names start with one underscore.
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_no_dead_helper():
    # A private helper that nothing in the package reads, or a public name
    # that neither the package nor its tests read, is dead code.
    src = ROOT / "src" / "mpsprep"
    in_src = _loaded_names(src)
    dead = [
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name in _private_definitions(path)
        if name not in in_src
    ]
    in_tests = in_src | _loaded_names(ROOT / "tests")
    for name in LAYER_MODULES:
        mod = importlib.import_module(f"mpsprep.{name}")
        dead += [f"{name}.{attr}" for attr in mod.__all__ if attr not in in_tests]
    assert not dead, f"defined but never read: {dead}"
