"""In-memory spans recorded by the benchmark around its calls into quchain.

Nothing inside the package is wrapped: a span covers one public call made by
the benchmark, so time the package spends in other modules internally is
charged to the module whose public function was called.  The first dotted
component of a span name is its layer (``engine.optimize`` -> ``engine``).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time

_NULL = contextlib.nullcontext()


class Tracer:
    """Thread-safe span recorder; ``span`` is a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, job: str = ""):
        if not self.enabled:
            return _NULL
        return self._record(name, job)

    @contextlib.contextmanager
    def _record(self, name: str, job: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                {
                    "name": name,
                    "job": job,
                    "parent": parent,
                    "thread": threading.current_thread().name,
                    "start": time.perf_counter(),
                    "end": None,
                }
            )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def total(self, name: str, job: str | None = None) -> float:
        """Summed duration of the spans called ``name`` (of one job, if given)."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (job is None or s["job"] == job)
        )

    def layer_self_times(self, root_layer: str) -> dict[str, float]:
        """Seconds of self time per layer, over span trees whose root span is
        in ``root_layer``.

        A span's self time is its duration minus the durations of its direct
        children; summed per layer, self times add up to the root spans'
        total duration.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        roots: list[int] = []
        for i, s in enumerate(self.spans):
            p = s["parent"]
            roots.append(i if p is None else roots[p])
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if self.spans[roots[i]]["name"].split(".", 1)[0] != root_layer:
                continue
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)
            f.write("\n")
