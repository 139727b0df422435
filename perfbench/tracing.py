"""Layer timing for the traced benchmark run.

:class:`LayerTracer` replaces public entry points of the program's
modules with timing wrappers, from the benchmark's side: nothing in
``src/`` changes.  Each wrapper is a span.  Spans are aggregated in
memory as they close (per layer: calls, inclusive seconds, self
seconds) and read out once the run ends; keeping every span would cost
hundreds of megabytes on the kernel workloads, where each node makes
several wrapped calls per round.

Self time is a span's duration minus the duration of the wrapped spans
directly inside it.  Every span below the root nests inside the root, so
the self times of all layers, the root's included, add up to the root's
wall time; the root's own self time is the part no layer claims
(``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Name of the span wrapped around the whole measured phase.
ROOT = "bench.measured"


class _Layer:
    __slots__ = ("calls", "inclusive", "self_time", "rows")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.rows = 0


class LayerTracer:
    """Installs timing wrappers and aggregates their spans per layer."""

    def __init__(self) -> None:
        self.layers: Dict[str, _Layer] = {}
        #: Child time of every open span, innermost last.
        self._open: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_started: Optional[float] = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _wrap(
        self,
        original: Callable[..., Any],
        name: str,
        rows: Optional[Callable[[Tuple[Any, ...]], int]] = None,
    ) -> Callable[..., Any]:
        layer = self.layers.setdefault(name, _Layer())
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                layer.calls += 1
                layer.inclusive += elapsed
                layer.self_time += elapsed - children[0]
                if rows is not None:
                    layer.rows += rows(args)
                if open_spans:
                    open_spans[-1][0] += elapsed

        return wrapper

    def span(self, name: str, body: Callable[[], Any]) -> Any:
        """Run ``body`` as one span named ``name``; returns its result."""
        return self._wrap(body, name)()

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap_method(
        self,
        owner: type,
        attribute: str,
        name: str,
        rows: Optional[Callable[[Tuple[Any, ...]], int]] = None,
    ) -> None:
        """Time ``owner.attribute`` (a plain function on the class)."""
        original = owner.__dict__[attribute]
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner.__name__}.{attribute} is not a plain method")
        setattr(owner, attribute, self._wrap(original, name, rows))
        self._patches.append((owner, attribute, original))

    def wrap_function(
        self,
        original: Callable[..., Any],
        name: str,
        rows: Optional[Callable[[Tuple[Any, ...]], int]] = None,
    ) -> None:
        """Time a module-level function under every name it is bound to.

        Modules that did ``from module import function`` hold their own
        reference, so each loaded module's binding is replaced.
        """
        wrapper = self._wrap(original, name, rows)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    self._patches.append((module, attribute, original))

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def start_gc_overlay(self) -> None:
        """Time garbage collections (an overlay: GC runs inside spans)."""
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched binding and detach the GC callback."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def layer(self, name: str) -> _Layer:
        return self.layers.get(name, _Layer())

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per-layer calls / inclusive / self seconds, for the record."""
        return {
            name: {
                "calls": layer.calls,
                "inclusive_s": layer.inclusive,
                "self_s": layer.self_time,
                **({"rows": layer.rows} if layer.rows else {}),
            }
            for name, layer in sorted(self.layers.items())
        }

    def self_time_sum(self) -> float:
        return sum(layer.self_time for layer in self.layers.values())
