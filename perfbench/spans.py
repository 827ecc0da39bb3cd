"""In-memory spans for the traced run, written as Chrome trace JSON.

A span is ``(name, call id, parent name, start, end, args)``.  Root
spans wrap one library call or one served request; the layer replays
that follow a library call are its children (same call id), recorded on
their own track because they run after the call, not inside it.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

TRACK_CALLS = 1
TRACK_REPLAY = 2
TRACK_SERVE = 3


class Spans:
    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self.epoch_ns = time.perf_counter_ns()

    def add(self, name: str, call_id: int, parent: str | None,
            start_s: float, end_s: float, track: int, **args: Any) -> None:
        self.records.append({
            "name": name, "call_id": call_id, "parent": parent,
            "start_ns": int(start_s * 1e9) - self.epoch_ns,
            "dur_ns": max(0, int((end_s - start_s) * 1e9)),
            "track": track, "args": args,
        })

    def call(self, name: str, call_id: int, parent: str | None, track: int,
             fn: Callable[[], Any], **args: Any) -> tuple[Any, float]:
        """Run ``fn`` inside a span; return its value and duration (s)."""
        t0 = time.perf_counter()
        value = fn()
        t1 = time.perf_counter()
        self.add(name, call_id, parent, t0, t1, track, **args)
        return value, t1 - t0

    def write_chrome(self, path: str) -> None:
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": os.getpid(), "tid": 0,
             "args": {"name": "perfbench"}},
        ]
        for tid, label in ((TRACK_CALLS, "calls"), (TRACK_REPLAY, "layer replay"),
                           (TRACK_SERVE, "serve requests")):
            events.append({"name": "thread_name", "ph": "M", "pid": os.getpid(),
                           "tid": tid, "args": {"name": label}})
        for r in self.records:
            events.append({
                "name": r["name"], "cat": r["parent"] or "root", "ph": "X",
                "ts": r["start_ns"] / 1e3, "dur": r["dur_ns"] / 1e3,
                "pid": os.getpid(), "tid": r["track"],
                "args": {"call_id": r["call_id"], "parent": r["parent"],
                         **r["args"]},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
