"""In-memory span tracer for the benchmark's traced run.

Spans are recorded at layer boundaries: around the pipeline calls the
benchmark itself makes, and around the module globals that `awci.sweep` and
`awci.assemble` call through (the wrappers replace those globals for the
duration of one traced job and are removed afterwards). Every span carries a
name, start, end, parent span and job id. Per job the tracer keeps, for each
span name, the call count, total time and self time (span time minus the time
covered by child spans), plus free-form counts added by the caller. Raw spans
are kept for the first `KEEP_JOBS` traced jobs only, because the hot leaves
(`filter_position`, `make_pair`) are entered tens of thousands of times per
job.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

KEEP_JOBS = 2  # traced jobs whose raw spans are kept


class Tracer:
    def __init__(self) -> None:
        self.jobs: list[dict] = []    # per traced job: {"spans": {...}, "counts": {...}}
        self.spans: list[tuple] = []  # (job, span_id, parent_id, name, start, end)
        self._stack: list[list] = []  # open frames: [name, start, child_s, span_id]
        self._next_id = 0
        self._job_id = -1
        self._keep = False
        self._stats: dict[str, list] = {}
        self._counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- job lifetime ------------------------------------------------------
    def begin_job(self, job_id: int) -> None:
        self._job_id = job_id
        self._stats = {}
        self._counts = {}
        self.jobs.append({"job": job_id, "spans": self._stats, "counts": self._counts})
        self._keep = len(self.jobs) <= KEEP_JOBS

    def add(self, name: str, value: float) -> None:
        self._counts[name] = self._counts.get(name, 0) + value

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> list:
        frame = [name, 0.0, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        stats = self._stats.get(frame[0])
        if stats is None:
            stats = self._stats[frame[0]] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if self._keep:
            self.spans.append((self._job_id, frame[3],
                               parent[3] if parent is not None else None,
                               frame[0], frame[1], end))

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    # -- module wrappers ---------------------------------------------------
    def patch(self, module: object, attr: str, name: str,
              on_result: Callable[["Tracer", tuple, object], None] | None = None) -> None:
        """Replace `module.attr` with a span-recording wrapper until `unpatch`."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------
    def write_spans(self, path) -> None:
        """Write the kept raw spans as JSON lines."""
        with open(path, "w") as fh:
            for job, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
