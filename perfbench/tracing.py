"""Span tracing of the hardyframes layers, done from outside the package.

`install` wraps every public module-level function of the nine layer
modules and rebinds every reference to it across `hardyframes.*` (modules
import each other's functions by name, so patching only the defining
module would miss most calls).  Each call records a span
`[name, start, end, parent]` in memory; `aggregate` turns the spans of one
process into per-name calls, busy time and self time.

Self time is a span's duration minus the durations of its direct child
spans.  Busy time sums only the outermost span of a name, so a function
that re-enters itself is not counted twice.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

LAYERS = (
    "series",
    "symbols",
    "orbits",
    "frames",
    "diagnostics",
    "verify",
    "config",
    "jsonio",
    "cli",
)


def _orbit_key(sig, args, kwargs, result) -> str:
    """Identity of an orbit's inputs: symbol spec, seed, length, order."""
    bound = sig.bind(*args, **kwargs).arguments
    h = hashlib.sha1()
    h.update(repr(bound["sym"].spec).encode())
    h.update(bound["f"].coeffs.tobytes())
    h.update(f"{bound['count']}:{bound['order']}".encode())
    return h.hexdigest()


def _frame_section_flops(sig, args, kwargs, result) -> int:
    # K+1 complex outer products of length N+1, 8 real flops per entry.
    return 8 * result.orbit_len * (result.order + 1) ** 2


def _dumps_bytes(sig, args, kwargs, result) -> int:
    return len(result)


# Extra per-span figures recorded for a few functions, keyed by span name.
EXTRAS = {
    "orbits.orbit": _orbit_key,
    "frames.frame_section": _frame_section_flops,
    "jsonio.dumps_canonical": _dumps_bytes,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []
        self.extras: dict[int, object] = {}
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn, label=None):
        """Wrap fn so each call records a span; label(args) may rename it."""
        fixed = self._intern(name)
        spans, stack, extras = self.spans, self._stack, self.extras
        extra = EXTRAS.get(name)
        sig = inspect.signature(fn) if extra is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = fixed if label is None else self._intern(label(args, kwargs))
            i = len(spans)
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(i)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                extras[i] = extra(sig, args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "extras": {str(k): v for k, v in self.extras.items()},
        }


def _verify_label(args, kwargs) -> str:
    # One span name per suite id: verify.P1, verify.Ex_3_1, ...
    prop = args[0] if args else kwargs["proposition"]
    return f"verify.{prop}"


def install(tracer: Tracer) -> int:
    """Wrap the public functions of the layer modules; return how many."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"hardyframes.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            label = _verify_label if (layer, attr) == ("verify", "verify") else None
            wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj, label))
    for modname, mod in list(sys.modules.items()):
        if modname != "hardyframes" and not modname.startswith("hardyframes."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(wrappers)


def aggregate(dump: dict) -> dict:
    """Per span name: calls, busy_s, self_s, plus the recorded extras.

    Extras are summed when numeric (flops, bytes) and collected as a set
    of keys otherwise (orbit identities).
    """
    names = dump["names"]
    spans = dump["spans"]
    extras = {int(k): v for k, v in dump["extras"].items()}
    n = len(spans)
    child_time = [0.0] * n
    for name_idx, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    stats: dict[str, dict] = {}
    for i, (name_idx, start, end, parent) in enumerate(spans):
        name = names[name_idx]
        st = stats.get(name)
        if st is None:
            st = stats[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        dur = end - start
        st["calls"] += 1
        st["self_s"] += dur - child_time[i]
        a = parent
        while a >= 0 and spans[a][0] != name_idx:
            a = spans[a][3]
        if a < 0:
            st["busy_s"] += dur
        if i in extras:
            value = extras[i]
            if isinstance(value, str):
                st.setdefault("keys", set()).add(value)
            else:
                st["extra"] = st.get("extra", 0) + value
    return stats
