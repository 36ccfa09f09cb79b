"""Per-layer tracing of sheafgauge from outside the package.

``Tracer.install`` replaces every public function of the layer modules, and
the dense ``numpy.linalg`` kernels they call, with a timing wrapper in every
``sheafgauge.*`` namespace that binds it (``from .x import f`` copies a
binding, so patching the defining module alone would miss callers).
``uninstall`` restores the originals. No file of the package changes.

Each wrapped call is one span: name, start, end, parent span and op id. A
span's self time is its duration minus the time its child spans cover; the
bookkeeping done by the wrapper itself (digests, file sizes) is charged to
neither and is reported as ``trace.bookkeeping_s``. Spans stay in memory
and are written out once, when the run ends.

Counts (calls, distinct inputs, work, bytes, errors) are accumulated only
for the ops in the count window, a fixed set of op indices, so they repeat
exactly between two traced runs of the same seed however many ops fit in
the run's time. Self times are averaged over every traced op.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("complexes", "sheaves", "operators", "spectral", "diagnostics", "fileio", "cli")
LINALG_KERNELS = ("eigh", "eigvalsh", "svd", "qr", "inv", "norm")

# Where the distinct-input digest is taken. Coboundary and Laplacian take a
# sheaf, not a matrix, so the operator they assemble stands for their input.
_DIGEST_ARG = {"spectral.eigendecompose": lambda a: a.matrix,
               "linalg.eigh": lambda a: a,
               "linalg.eigvalsh": lambda a: a}
_DIGEST_RESULT = {"operators.coboundary", "operators.laplacian"}
_CUBED = {"linalg.eigh", "linalg.eigvalsh"}
_FILE_WRITERS = {"fileio.write_csv", "fileio.write_json"}


def _digest(matrix) -> bytes:
    a = np.ascontiguousarray(matrix)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.data)
    return h.digest()


class _Stat:
    __slots__ = ("calls", "self_s", "errors", "work_n3", "bytes", "distinct", "op_digests")

    def __init__(self):
        self.calls = 0          # window ops only
        self.self_s = 0.0       # every traced op
        self.errors = 0         # window ops only
        self.work_n3 = 0        # window ops only
        self.bytes = 0          # window ops only
        self.distinct = 0       # distinct digests, summed per window op
        self.op_digests = set()


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list = []
        self.bookkeeping_s = 0.0
        self.traced_ops = 0
        self.window_ops = 0
        self._stack: list = []
        self._op = None
        self._in_window = False
        self._patches: list = []
        self._wrappers: dict = {}

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(qualified name, original function) for every function to wrap."""
        targets = []
        for layer in LAYERS:
            module = sys.modules[f"sheafgauge.{layer}"]
            for attr, value in sorted(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    targets.append((f"{layer}.{attr}", value))
        for kernel in LINALG_KERNELS:
            targets.append((f"linalg.{kernel}", getattr(np.linalg, kernel)))
        return targets

    def install(self):
        if self._patches:
            return
        if not self._wrappers:
            for name, fn in self._targets():
                self.stats[name] = _Stat()
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn))
        wrappers = self._wrappers
        namespaces = [np.linalg] + [
            module for key, module in sorted(sys.modules.items())
            if module is not None and (key == "sheafgauge" or key.startswith("sheafgauge."))
        ]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int, in_window: bool):
        self._op = op_id
        self._in_window = in_window
        self.traced_ops += 1
        if in_window:
            self.window_ops += 1

    def end_op(self):
        if self._in_window:
            for stat in self.stats.values():
                stat.distinct += len(stat.op_digests)
                stat.op_digests.clear()
        self._op = None
        self._in_window = False

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name, fn):
        stat_for = self.stats
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        digest_arg = _DIGEST_ARG.get(name)
        digest_result = name in _DIGEST_RESULT
        cubed = name in _CUBED
        writes_file = name in _FILE_WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = clock()
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            failed = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                stat = stat_for[name]
                stat.self_s += (end - start) - frame[0]
                spans[sid] = (name, start, end, parent, self._op)
                if self._in_window:
                    stat.calls += 1
                    stat.errors += failed
                    if not failed:
                        if digest_arg is not None:
                            stat.op_digests.add(_digest(digest_arg(args[0])))
                        elif digest_result:
                            stat.op_digests.add(_digest(result.matrix))
                        if cubed:
                            stat.work_n3 += int(np.shape(args[0])[-1]) ** 3
                        if writes_file:
                            stat.bytes += os.path.getsize(args[0])
                done = clock()
                self.bookkeeping_s += (start - outer) + (done - end)
                if stack:
                    stack[-1][0] += done - outer
            return result

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-op values for every wrapped function and every layer."""
        traced = max(self.traced_ops, 1)
        window = max(self.window_ops, 1)
        out = {}
        layer_self = {}
        layer_errors = {}
        for name, s in sorted(self.stats.items()):
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = s.calls / window
            out[f"{name}.self_s"] = s.self_s / traced
            out[f"{name}.unique_ratio"] = s.distinct / s.calls if s.calls else 0.0
            out[f"{name}.work_n3"] = s.work_n3 / window
            out[f"{name}.bytes"] = s.bytes / window
            layer_self[layer] = layer_self.get(layer, 0.0) + s.self_s / traced
            layer_errors[layer] = layer_errors.get(layer, 0) + s.errors / window
        for layer in LAYERS + ("linalg",):
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
            out[f"{layer}.errors"] = layer_errors.get(layer, 0.0)
        out["trace.bookkeeping_s"] = self.bookkeeping_s / traced
        return out

    def write_spans(self, path):
        """All spans as rows of [name, start_s, end_s, parent index, op id]."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - t0, end - t0, parent, op]
                for name, start, end, parent, op in self.spans]
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": rows}, handle)
