import importlib

import pytest

import mpsprep

LAYER_MODULES = ("linalg", "mps", "functions", "circuits", "simulate", "analysis", "pipeline")


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
