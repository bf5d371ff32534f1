"""Print the seconds taken by `import mpsprep` plus one small warm-up encode.

Run from a fresh interpreter so that the import is cold:
``python3 perfbench/setup_probe.py``. It imports mpsprep from ``src/``
next to this directory.
"""

import pathlib
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

t0 = time.perf_counter()
import mpsprep  # noqa: E402

spec = mpsprep.DistributionSpec("gaussian", 1.0, 1.0, (0.0, 2.0))
mpsprep.encode(mpsprep.RunConfig(spec=spec, n_qubits=8))
elapsed = time.perf_counter() - t0
if not pathlib.Path(mpsprep.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"imported mpsprep from {mpsprep.__file__}, not from {SRC}")
print(repr(elapsed))
