"""Spans and cache counters at supervogan's module boundaries.

A ``Tracer`` replaces a public function by a recording wrapper in every
``supervogan`` module that binds it, so calls from inside the package are
seen as well as calls from the benchmark.  Spans are kept in memory as
parallel arrays (name, parent, start, end); self time is a span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, function) pairs whose calls become spans.
TRACED = (
    ("cli", "main"),
    ("cli", "parse_family_spec"),
    ("render", "render_ascii"),
    ("render", "document_json"),
    ("render", "parse_document"),
    ("classify", "classify"),
    ("vogan", "canonical_block_painting"),
    ("vogan", "reduce_with_trail"),
    ("vogan", "enumerate_vogan"),
    ("algebra", "build_diagram"),
    ("algebra", "cartan_matrix"),
    ("algebra", "dual_basis"),
    ("algebra", "generate_roots"),
    ("algebra", "root_expansion"),
    ("algebra", "noncompact_parity"),
    ("linalg", "solve_exact"),
    ("linalg", "invert"),
)


def package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "supervogan" or name.startswith("supervogan."))
    ]


class Caches:
    """Every ``functools`` cache bound at module level in the package."""

    def __init__(self):
        self.by_name: dict[str, object] = {}
        for module in package_modules():
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)) and callable(
                    getattr(value, "cache_clear", None)
                ):
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__qualname__}"
                    self.by_name.setdefault(name, value)

    def clear(self) -> None:
        for cache in self.by_name.values():
            cache.cache_clear()

    def entries(self) -> int:
        return sum(cache.cache_info().currsize for cache in self.by_name.values())

    def counters(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) per cache."""
        out = {}
        for name, cache in self.by_name.items():
            info = cache.cache_info()
            out[name] = (info.hits, info.misses)
        return out


class Tracer:
    """Recording wrappers for ``TRACED``; ``install`` and ``uninstall`` swap
    them in and out of the package's modules."""

    def __init__(self):
        self.names = [f"{module}.{func}" for module, func in TRACED]
        self.bindings: list[tuple[object, str, object, object]] = []
        for nid, (module_name, func) in enumerate(TRACED):
            original = getattr(sys.modules[f"supervogan.{module_name}"], func)
            wrapper = self._wrap(nid, original)
            for module in package_modules():
                for attr, value in vars(module).items():
                    if value is original:
                        self.bindings.append((module, attr, original, wrapper))
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.forms: set[tuple[str, str]] = set()
        self.trail_flips = 0

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def _wrap(self, nid: int, original):
        name = self.names[nid]
        tracer = self

        def record_result(result) -> None:
            if name == "classify.classify":
                tracer.forms.add((result.family.display(), result.super_name))
            elif name == "vogan.reduce_with_trail":
                tracer.trail_flips += len(result[1])

        def wrapper(*args, **kwargs):
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.span_start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer.stack.pop()
            record_result(result)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total ms and self ms per traced function."""
        size = len(self.names)
        calls = [0] * size
        total = [0.0] * size
        child = [0.0] * size
        names, parents, starts, ends = (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
        )
        for i in range(len(names)):
            dur = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            total[nid] += dur
            parent = parents[i]
            if parent >= 0:
                child[names[parent]] += dur
        return {
            self.names[k]: {
                "calls": calls[k],
                "ms": total[k] * 1e3,
                "self_ms": (total[k] - child[k]) * 1e3,
            }
            for k in range(size)
        }

    def spans(self) -> dict:
        """The recorded spans, columnwise, times in microseconds from the first."""
        origin = self.span_start[0] if self.span_start else 0.0
        return {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start_us": [round((t - origin) * 1e6, 1) for t in self.span_start],
            "end_us": [round((t - origin) * 1e6, 1) for t in self.span_end],
        }
