"""Layer spans recorded from outside the library, for the traced benchmark run.

`Tracer.install` wraps the public functions of the six mtkit layer modules
and the `ExactMatrix` methods.  A wrapped function replaces the original in
every mtkit module namespace that holds it (so `minuscule.weyl_orbit` and
the names imported into `cli` are traced too).  Each call appends one span
(name, parent, start, end) to in-memory arrays; `self_times` turns them into
per-layer self time, a span's duration minus the part its child spans cover.
Counter hooks run after a span has closed; their cost, like that of the
speed samples taken while a span is open, is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("roots", "minuscule", "drops", "oracle", "decision", "cli")

# Per-weight leaf helpers: each call does a few integer operations, and
# wrapping them would make the spans outnumber the work they describe.
UNTRACED = frozenset({"roots.pairing", "roots.pair_with_coroot",
                      "roots.simple_reflection", "roots.reflect_in_root"})

MATRIX_METHODS = {
    "__matmul__": "oracle.matmul",
    "kron": "oracle.kron",
    "rank": "oracle.rank",
    "sub_identity": "oracle.sub_identity",
    "is_zero": "oracle.is_zero",
    "is_identity": "oracle.is_identity",
}


def self_times(names, parents, starts, ends, lost) -> dict[int, list[int]]:
    """Map name id -> [self time in ns, calls] over all spans.

    A span's self time is its duration minus its children's durations and
    minus `lost`, the time that counter hooks and speed samples spent in it.
    """
    own = [e - s - x for s, e, x in zip(starts, ends, lost)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    out: dict[int, list[int]] = {}
    for name, t in zip(names, own):
        entry = out.setdefault(name, [0, 0])
        entry[0] += t
        entry[1] += 1
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_lost = array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._seen_data: set = set()

    def wrap(self, name: str, fn, after=None, on_error=None):
        """Return `fn` recording one span per call; `after(args, result)` and
        `on_error(exc)` update counters outside the span."""
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, lost = self.span_start, self.span_end, self.span_lost
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            lost.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                t = clock()
                after(args, result)
                if stack:
                    lost[stack[-1]] += clock() - t
            return result

        return traced

    def charge(self, ns: int) -> None:
        """Charge `ns` of foreign work (a speed sample) to no layer."""
        if self.stack:
            self.span_lost[self.stack[-1]] += ns

    # --- counter hooks ---------------------------------------------------------

    def _hooks(self):
        c = self.counters

        def orbit(args, result):
            c["roots.orbit_weights"] += len(result)

        def datum(args, result):
            # build_root_datum is memoized: count the roots of each type once
            if result.cartan_type not in self._seen_data:
                self._seen_data.add(result.cartan_type)
                c["roots.positive_roots"] += len(result.positive_roots)

        def drop(args, result):
            c["drops.weights_scanned"] += len(args[0].orbit)

        def candidates(args, result):
            c["drops.candidates"] += len(result.candidates)

        def degree(args, result):
            c["oracle.degrees_certified"] += 1

        def matmul(args, result):
            rows = result.rows
            bits = max(-min(map(min, rows)), max(map(max, rows))).bit_length()
            if bits > c["oracle.max_entry_bits"]:
                c["oracle.max_entry_bits"] = bits

        def verdict(args, result):
            c["decision.status." + result.status.value] += 1

        def rejected(exc):
            if type(exc).__name__ == "QueryInvalid":
                c["decision.rejected"] += 1

        return {
            "roots.weyl_orbit": (orbit, None),
            "roots.build_root_datum": (datum, None),
            "drops.root_element_drop": (drop, None),
            "drops.classify_symplectic_minuscule": (candidates, None),
            "oracle.nilpotency_degree": (degree, None),
            "oracle.matmul": (matmul, None),
            "decision.mt_check": (verdict, rejected),
        }

    def install(self) -> None:
        """Wrap every traced function in every mtkit module that holds it."""
        hooks = self._hooks()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mtkit" or name.startswith("mtkit."))]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"mtkit.{layer}"]
            for attr, fn in list(vars(module).items()):
                span = f"{layer}.{attr}"
                if (attr.startswith("_") or span in UNTRACED or not callable(fn)
                        or inspect.isclass(fn) or getattr(fn, "__module__", None) != module.__name__):
                    continue
                replaced[id(fn)] = self.wrap(span, fn, *hooks.get(span, (None, None)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

        matrix = sys.modules["mtkit.oracle"].ExactMatrix
        for method, span in MATRIX_METHODS.items():
            setattr(matrix, method, self.wrap(span, vars(matrix)[method], *hooks.get(span, (None, None))))
        identity = vars(matrix)["identity"].__func__
        matrix.identity = classmethod(self.wrap("oracle.identity", identity))

    def summary(self) -> dict:
        """Per-span-name [self seconds, calls] plus the counters."""
        agg = self_times(self.span_name, self.span_parent, self.span_start,
                         self.span_end, self.span_lost)
        return {
            "spans": {self.names[nid]: [ns / 1e9, calls] for nid, (ns, calls) in agg.items()},
            "counters": dict(self.counters),
        }

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw span arrays."""
        fields = {"name": self.span_name, "parent": self.span_parent,
                  "start_ns": self.span_start, "end_ns": self.span_end,
                  "hook_ns": self.span_lost}
        header = {"names": self.names, "spans": len(self.span_name),
                  "fields": [[k, a.typecode] for k, a in fields.items()]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for a in fields.values():
                a.tofile(f)
