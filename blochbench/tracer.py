"""Span tracing installed from outside the library.

:meth:`Tracer.install` wraps every public function of the layer modules, the
two kernels and each dataclass ``__post_init__`` (the value validations),
and rebinds every blochiso namespace and module-level dict that holds one of
them, since modules import names directly (``channels`` binds
``hermitian_eig`` itself, ``cli._CONVERSIONS`` holds ``phi_inverse``). Spans
(name, start, end, parent, request) are kept per request and folded into
totals when the request ends:

- ``self`` time is a span's duration minus its direct children;
- ``own`` time adds the own time of children in the same layer, so
  ``matrix.hermitian_eig`` own time is the wrapper cost net of the kernel;
- a layer's self time sums the self time of every span in it.

A re-entrant call (``cli.dumps`` recurses) runs inside its outermost span.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = {
    "blochiso.matrix": "matrix",
    "blochiso.bloch": "bloch",
    "blochiso.so3": "so3",
    "blochiso.su2": "su2",
    "blochiso.isomorphism": "isomorphism",
    "blochiso.channels": "channels",
    "blochiso.cli": "cli",
}
KERNELS = ("matmul", "jacobi_hermitian")


def _matmul_cmacs(args) -> tuple[str, int]:
    ar, ac, _a, bc, _b = args
    return "kernels.matmul.cmacs", ar * ac * bc


def _eig_key(args):
    m = args[0]
    return (m.rows, m.entries)


def _choi_key(args):
    return tuple(op.entries for op in args[0].operators)


# Spans whose inputs are keyed, to count distinct inputs per request.
UNIQUE_KEYS = {"matrix.hermitian_eig": _eig_key, "channels.choi_of": _choi_key}


class Tracer:
    def __init__(self, keep_requests: int = 0):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.keys: dict[str, set] = {name: set() for name in UNIQUE_KEYS}
        self.totals = {
            "requests": 0,
            "calls": {},
            "incl": {},
            "self": {},
            "own": {},
            "layer": {},
            "extra": {},
            "unique": {},
            "classes": {},
        }
        self.kept: list[list] = []
        self.keep_requests = keep_requests
        self.request = 0

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, keys = self.spans, self.stack, self.keys
        extra = self.totals["extra"]
        key_of = UNIQUE_KEYS.get(name)
        active = [0]

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            if key_of is not None:
                keys[name].add(key_of(args))
            elif name == "kernels.matmul":
                counter, n = _matmul_cmacs(args)
                extra[counter] = extra.get(counter, 0) + n
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            active[0] = 1
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                active[0] = 0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layer functions in every loaded blochiso namespace."""
        from blochiso import _kernels

        wrappers = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isclass(obj) and "__post_init__" in vars(obj):
                    obj.__post_init__ = self._wrap(vars(obj)["__post_init__"], f"{layer}.{attr}", layer)
                elif inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for attr in KERNELS:
            obj = getattr(_kernels, attr)
            wrappers[id(obj)] = (obj, self._wrap(obj, f"kernels.{attr}", "kernels"))
        for modname, mod in list(sys.modules.items()):
            if modname != "blochiso" and not modname.startswith("blochiso."):
                continue
            for attr, obj in list(vars(mod).items()):
                # Module-level tables (cli._CONVERSIONS) bind functions too.
                table = obj if isinstance(obj, dict) else {}
                for key, value in list(table.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        table[key] = hit[1]
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def end_request(self, cls: str) -> None:
        """Fold the finished request's spans into the totals."""
        spans, t = self.spans, self.totals
        n = len(spans)
        durations = [rec[3] - rec[2] for rec in spans]
        own = durations[:]
        for i in range(n):
            parent = spans[i][4]
            if parent >= 0:
                own[parent] -= durations[i]
        self_time = own[:]
        for i in range(n - 1, -1, -1):
            parent = spans[i][4]
            if parent >= 0 and spans[parent][1] == spans[i][1]:
                own[parent] += own[i]
        per_class = t["classes"].setdefault(cls, {"requests": 0, "calls": {}})
        per_class["requests"] += 1
        t["requests"] += 1
        calls, incl, selfs, owns, layers = t["calls"], t["incl"], t["self"], t["own"], t["layer"]
        class_calls = per_class["calls"]
        for i, (name, layer, _s, _e, _p) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            class_calls[name] = class_calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + durations[i]
            selfs[name] = selfs.get(name, 0.0) + self_time[i]
            owns[name] = owns.get(name, 0.0) + own[i]
            layers[layer] = layers.get(layer, 0.0) + self_time[i]
        for name, seen in self.keys.items():
            t["unique"][name] = t["unique"].get(name, 0) + len(seen)
            seen.clear()
        if self.request < self.keep_requests:
            self.kept.extend([rec[0], rec[2], rec[3], rec[4], self.request] for rec in spans)
        self.request += 1
        spans.clear()
