"""Spans around every call into mpsprep's layer modules, recorded from outside.

:meth:`Tracer.install` replaces each public function of the layer modules
in every module namespace that holds it, so a call is traced wherever
its caller looks the name up (``mpsprep.simulate.compress_als`` as well
as ``mpsprep.compress_als``). A layer that the program stops calling
simply records no spans. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter, defaultdict

LAYER_MODULES = ("linalg", "mps", "functions", "circuits", "simulate", "analysis", "pipeline")
MPS_METHODS = ("to_statevector", "amplitude", "norm", "normalize", "canonicalize")
# Layers whose result is one dense 2^N vector.
DENSE_MAKERS = ("mps.to_statevector", "simulate.run", "functions.target_amplitudes")


class Tracer:
    def __init__(self):
        self.installed = False
        self.enabled = False  # spans are recorded only while installed and enabled
        self.op = -1  # index of the operation the next spans belong to
        # One row per span: [name, start_ns, end_ns, parent, op, outermost].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.dense_bytes = 0
        self.assemble_max_bond = 0

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in LAYER_MODULES
        ]
        for short, mod in zip(LAYER_MODULES, modules[1:]):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for holder in modules:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, key, traced)
        for meth in MPS_METHODS:
            setattr(package.Mps, meth, self._wrap(f"mps.{meth}", getattr(package.Mps, meth)))
        self.installed = True

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0, 0, parent, self.op, self._active[name] == 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._active[name] += 1
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._active[name] -= 1
                self._stack.pop()
            if name in DENSE_MAKERS:
                self.dense_bytes += out.nbytes
            elif name == "functions.assemble":
                self.assemble_max_bond = max(self.assemble_max_bond, out.max_bond)
            return out

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive ms (outermost spans only) and self ms."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for i, (name, start, end, _, _, outermost) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            if outermost:
                row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        """Write spans as [name index, start ns, end ns, parent index, op] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[index[s[0]], s[1] - t0, s[2] - t0, s[3], s[4]] for s in self.spans]
        payload = dict(meta, names=names, span_fields=["name", "start_ns", "end_ns", "parent", "op"],
                       layers=self.layers(), spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
