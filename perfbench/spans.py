"""Outside-in tracing of tropsolve's public functions.

``Tracer.install`` wraps every function in each module's ``__all__`` at
every module attribute that holds it (matched by identity), the
``__init__`` of every public class, and a few scalar methods on the
``MAX_PLUS`` instance.  Each call records a span (name, start, end,
parent, op id) in flat arrays; nothing is written until ``dump``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

MODULES = ("semiring", "tensor", "spectral", "solver", "oracle", "cli")
SCALAR_METHODS = ("add", "rational_pow", "format_scalar", "parse_scalar")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.cols_in = 0
        self.cols_out = 0
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._undo: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        counted = name == "tensor.reduce_generators"
        start, end, stack, depth = self.start, self.end, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.outermost.append(depth[nid] == 0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if counted:
                self.cols_in += np.shape(args[0])[1]
                self.cols_out += result.shape[1]
            return result

        return traced

    def install(self) -> None:
        """Wrap the public surface of every tropsolve module."""
        pkg = [m for k, m in sys.modules.items() if k == "tropsolve" or k.startswith("tropsolve.")]
        for short in MODULES:
            mod = sys.modules[f"tropsolve.{short}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                name = f"{short}.{attr}"
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if "__init__" in obj.__dict__:
                        self._set(obj, "__init__", self._wrap(name, obj.__dict__["__init__"]))
                elif callable(obj):
                    wrapped = self._wrap(name, obj)
                    for m in pkg:
                        for key, val in list(vars(m).items()):
                            if val is obj:
                                self._set(m, key, wrapped)
        sf = sys.modules["tropsolve.semiring"].MAX_PLUS
        for attr in SCALAR_METHODS:
            self._set(sf, attr, self._wrap(f"semiring.{attr}", getattr(sf, attr)), instance=True)

    def _set(self, owner, key, value, instance=False) -> None:
        self._undo.append((owner, key, None if instance else getattr(owner, key), instance))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, old, instance in reversed(self._undo):
            if instance:
                delattr(owner, key)
            else:
                setattr(owner, key, old)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "outermost": np.frombuffer(self.outermost, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds (outermost spans only) and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=np.where(a["outermost"], dur, 0.0), minlength=k)
        own = np.bincount(a["name"], weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
