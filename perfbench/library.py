"""Library phase: each op timed back-to-back with its single-core floor.

Every call uses the public defaults with ``p = nproc``:

* ``merge(a, b, p=p)``; floor ``np.concatenate((a, b), out=o);
  o.sort(kind="stable")``;
* ``parallel_merge_sort(x, p)``; floor ``np.sort(x)`` (stable for f64);
* ``external_sort(x, memory_elements=M, parallel=True, workers=p)``;
  floor an in-RAM ``np.sort(x)``.

The op and its floor run on the same input one after the other,
alternating which goes first, and the op's output must equal the
floor's byte for byte.  ``vs_floor`` is the floor's summed time over
the op's summed time, so a value above 1 beats one-core NumPy.

With a :class:`~spans.Spans` recorder (the traced run) each input also
gets a root-span call (``metrics=`` attached, never ``trace=``, so the
autotuner routes it like any untraced call) and then a replay of its
layers through their public functions, as child spans.
"""

from __future__ import annotations

import tempfile
import time
from collections import defaultdict

import numpy as np

from repro import MergeStats, MetricsRegistry, merge, parallel_merge, parallel_merge_sort
from repro.backends import TaskBatch
from repro.execution import get_autotuner, run_chunk_sorts, run_merge_round, shared_backend
from repro.core.sequential import merge_vectorized
from repro.core.merge_path import partition_merge_path
from repro.external.io_model import IOCounter
from repro.external.planner import plan_blocks
from repro.external.runs import form_runs
from repro.external.sort import external_sort
from repro.validation import check_mergeable

from inputs import LIBRARY_OPS
from spans import TRACK_CALLS, TRACK_REPLAY, Spans


def same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    """Byte identity: ``+0.0``/``-0.0`` order and NaN placement count."""
    return (x.dtype == y.dtype and x.shape == y.shape
            and np.array_equal(np.ascontiguousarray(x).view(np.uint8),
                               np.ascontiguousarray(y).view(np.uint8)))


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values between the first and third quartiles."""
    v = np.sort(np.asarray(values, dtype=float))
    cut = len(v) // 4
    return float(np.mean(v[cut:len(v) - cut]))


def program(op: str, args: tuple, p: int, memory: int):
    if op.startswith("merge."):
        return merge(args[0], args[1], p=p)
    if op.startswith("sort."):
        return parallel_merge_sort(args[0], p)
    return external_sort(args[0], memory_elements=memory, parallel=True,
                         workers=p)


def floor(op: str, args: tuple, out: np.ndarray | None):
    if op.startswith("merge."):
        np.concatenate(args, out=out)
        out.sort(kind="stable")
        return out
    if op == "sort.f64":
        return np.sort(args[0], kind="stable")
    return np.sort(args[0])


class Library:
    """Runs the library phase and accumulates its sums."""

    def __init__(self, p: int, memory: int, spans: Spans | None) -> None:
        self.p = p
        self.memory = memory
        self.spans = spans
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.op_s: dict[str, float] = defaultdict(float)
        self.floor_s: dict[str, float] = defaultdict(float)
        self.elements: dict[str, int] = defaultdict(int)
        self.slice_ratios: dict[str, list[float]] = defaultdict(list)
        self.serial_routes = 0
        self.routed = 0
        # traced-run sums
        self.root_s: dict[str, float] = defaultdict(float)
        self.crit_s: dict[str, float] = defaultdict(float)
        self.traced_op_s = 0.0
        self.layer: dict[str, list[float]] = defaultdict(list)
        self._k = 0

    # -- untraced measurement ---------------------------------------------
    def run(self, inputs: dict[str, list[tuple]], budget_s: float,
            slice_s: float) -> None:
        """Round-robin over the ops until ``budget_s`` is spent.

        Each round gives every op at least one call and at least
        ``slice_s`` seconds, so each op's share of the phase is fixed by
        the design, not by how fast it happens to be.  Each slice yields
        one floor ratio; the reported ratio is their interquartile mean,
        so a burst of outside load spoils a few slices, not the result.
        """
        cursor = dict.fromkeys(LIBRARY_OPS, 0)
        outs = {
            op: [np.empty(sum(len(x) for x in args), dtype=args[0].dtype)
                 if op.startswith("merge.") else None for args in inputs[op]]
            for op in LIBRARY_OPS
        }
        deadline = time.perf_counter() + budget_s
        first = True
        while first or time.perf_counter() < deadline:
            first = False
            for op in LIBRARY_OPS:
                t_slice = time.perf_counter()
                op_s, floor_s = self.op_s[op], self.floor_s[op]
                while True:
                    i = cursor[op] % len(inputs[op])
                    cursor[op] += 1
                    self.measure(op, inputs[op][i], outs[op][i])
                    if time.perf_counter() - t_slice >= slice_s:
                        break
                self.slice_ratios[op].append(
                    (self.floor_s[op] - floor_s) / (self.op_s[op] - op_s))

    def measure(self, op: str, args: tuple, out) -> None:
        n = sum(len(x) for x in args)
        if op != "extsort":
            self.routed += 1
            self.serial_routes += get_autotuner().choose_backend("threads", n) == "serial"
        t0 = time.perf_counter()
        if self._k % 2 == 0:
            got = program(op, args, self.p, self.memory)
            t1 = time.perf_counter()
            want = floor(op, args, out)
            t2 = time.perf_counter()
            op_s, floor_s = t1 - t0, t2 - t1
        else:
            want = floor(op, args, out)
            t1 = time.perf_counter()
            got = program(op, args, self.p, self.memory)
            t2 = time.perf_counter()
            op_s, floor_s = t2 - t1, t1 - t0
        self._k += 1
        self.calls[op] += 1
        self.op_s[op] += op_s
        self.floor_s[op] += floor_s
        self.elements[op] += n
        if not same_bytes(got, want):
            self.failed[op] += 1
        if self.spans is not None:
            self.traced(op, args, want, op_s)

    # -- traced run: root call + layer replay -----------------------------
    def traced(self, op: str, args: tuple, want: np.ndarray, untraced_s: float) -> None:
        spans = self.spans
        cid = len(spans.records)
        reg = MetricsRegistry()
        n = sum(len(x) for x in args)
        io = None
        if op.startswith("merge."):
            # merge() takes no metrics=; with p > 1 this is exactly its body.
            fn = lambda: parallel_merge(args[0], args[1], self.p, backend="threads",  # noqa: E731
                                        kernel="auto", metrics=reg)
        elif op.startswith("sort."):
            fn = lambda: parallel_merge_sort(args[0], self.p, metrics=reg)  # noqa: E731
        else:
            io = IOCounter(block_elements=max(1, self.memory // 8))
            fn = lambda: external_sort(args[0], memory_elements=self.memory,  # noqa: E731
                                       parallel=True, workers=self.p, io=io,
                                       metrics=reg)
        got, root_s = spans.call(op, cid, None, TRACK_CALLS, fn, n=n)
        if not same_bytes(got, want):
            self.failed[op] += 1
        snap = reg.snapshot()
        family = op.split(".")[0]
        self.layer[f"execution.dispatches_per_call.{family}"].append(
            snap.get("exec.dispatches_per_call", 0))
        if family == "merge":
            crit = self._replay_merge(cid, op, args)
        elif family == "sort":
            crit = self._replay_sort(cid, op, args, want)
        else:
            crit = self._replay_extsort(cid, args)
            for key, name in (("runs", "extsort.runs"), ("passes", "extsort.passes"),
                              ("blocks", "extsort.blocks"),
                              ("transfer_ratio", "extsort.transfer_ratio")):
                self.layer[f"external.{key}"].append(snap.get(name, 0))
            self.layer["external.dispatches"].append(snap.get("exec.dispatches_per_call", 0))
            self.layer["external.read_blocks"].append(io.read_blocks)
            self.layer["external.write_blocks"].append(io.write_blocks)
        self.root_s[op] += root_s
        self.crit_s[op] += crit
        self.traced_op_s += untraced_s

    def _replay(self, name: str, cid: int, parent: str, fn, **args):
        return self.spans.call(name, cid, parent, TRACK_REPLAY, fn, **args)

    def _backend(self, n: int):
        name = get_autotuner().choose_backend("threads", n)
        return name, shared_backend(name, self.p)

    def _replay_merge(self, cid: int, op: str, args: tuple) -> float:
        a, b = args
        n = len(a) + len(b)
        _, t_val = self._replay("validate", cid, op, lambda: check_mergeable(a, b))
        stats = MergeStats()
        part, t_part = self._replay(
            "partition", cid, op,
            lambda: partition_merge_path(a, b, self.p, check=False, stats=stats))
        name, be = self._backend(n)
        _, t_disp = self._replay(
            "dispatch", cid, op,
            lambda: be.run_batch(TaskBatch([int] * self.p, label="perfbench.noop")),
            backend=name)
        seg_s, largest = [], None
        for seg in part.segments:
            if seg.length == 0:
                continue
            sa, sb = a[seg.a_start:seg.a_end], b[seg.b_start:seg.b_end]
            _, t = self._replay("kernel", cid, op,
                                lambda: merge_vectorized(sa, sb, check=False),
                                segment=seg.index, length=seg.length)
            seg_s.append(t)
            if largest is None or seg.length > largest[0]:
                largest = (seg.length, sa, sb, t)
        self.layer["validation.s"].append(t_val)
        self.layer["validation.elements"].append(n)
        self.layer["core.merge_path.s"].append(t_part)
        self.layer["core.merge_path.probes"].append(stats.search_probes)
        self.layer["execution.dispatch.s"].append(t_disp)
        length, sa, sb, t_kernel = largest
        out = np.empty(length, dtype=np.result_type(sa, sb))
        t0 = time.perf_counter()
        floor(op, (sa, sb), out)
        t_floor = time.perf_counter() - t0
        self.layer["core.sequential.s"].append(t_kernel)
        self.layer["core.sequential.elements"].append(length)
        self.layer["core.sequential.floor_s"].append(t_floor)
        kernels = sum(seg_s) if name == "serial" else max(seg_s)
        return t_val + t_part + t_disp + kernels

    def _replay_sort(self, cid: int, op: str, args: tuple, want: np.ndarray) -> float:
        x = args[0]
        kind = op.split(".")[1]
        name, be = self._backend(len(x))
        arr = x.copy()
        runs, t_chunks = self._replay(
            "chunk_sorts", cid, op,
            lambda: run_chunk_sorts(arr, min(self.p, len(arr)), backend=be),
            backend=name)
        t_rounds, r = 0.0, 1
        while len(runs) > 1:
            per_pair = max(1, self.p // (len(runs) // 2))
            runs, t = self._replay(
                "merge_round", cid, op,
                lambda: run_merge_round(runs, per_pair, backend=be,
                                        kernel="vectorized", round_index=r),
                round=r)
            t_rounds += t
            r += 1
        if not same_bytes(runs[0], want):
            self.failed[op] += 1
        self.layer[f"execution.chunk_sorts.s.{kind}"].append(t_chunks)
        self.layer[f"execution.merge_rounds.s.{kind}"].append(t_rounds)
        return t_chunks + t_rounds

    def _replay_extsort(self, cid: int, args: tuple) -> float:
        x = args[0]
        with tempfile.TemporaryDirectory() as d:
            runs, t_form = self._replay(
                "form_runs", cid, "extsort",
                lambda: form_runs(x, self.memory, d))
            _, t_plan = self._replay(
                "plan", cid, "extsort",
                lambda: plan_blocks(runs, max(1, self.memory // 2)))
        self.layer["external.form_runs.s"].append(t_form)
        self.layer["external.plan.s"].append(t_plan)
        return t_form + t_plan

    # -- results -------------------------------------------------------------
    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """``name -> (value, unit, samples)`` for the gated metrics."""
        return {f"{op}.vs_floor": (interquartile_mean(self.slice_ratios[op]), "x",
                                   self.calls[op])
                for op in LIBRARY_OPS}

    def per_layer(self) -> dict[str, tuple[float, str]]:
        L = self.layer

        def mean(key: str) -> float:
            return float(np.mean(L[key]))

        def per_elem_ns(key: str, elems: str) -> float:
            return sum(L[key]) / sum(L[elems]) * 1e9

        out: dict[str, tuple[float, str]] = {
            "validation.ns_per_elem": (per_elem_ns("validation.s", "validation.elements"), "ns"),
            "core.merge_path.us_per_call": (mean("core.merge_path.s") * 1e6, "us"),
            "core.merge_path.probes": (mean("core.merge_path.probes"), "count"),
            "core.sequential.ns_per_elem": (per_elem_ns("core.sequential.s",
                                                        "core.sequential.elements"), "ns"),
            "core.sequential.vs_floor": (sum(L["core.sequential.floor_s"])
                                         / sum(L["core.sequential.s"]), "x"),
            "execution.dispatch_us": (mean("execution.dispatch.s") * 1e6, "us"),
            "execution.autotune.route_serial_share": (self.serial_routes / max(1, self.routed), "ratio"),
            "external.form_runs_ms": (mean("external.form_runs.s") * 1e3, "ms"),
            "external.plan_ms": (mean("external.plan.s") * 1e3, "ms"),
            "trace.overhead": (sum(self.root_s.values()) / self.traced_op_s, "x"),
        }
        for family in ("merge", "sort", "extsort"):
            out[f"execution.dispatches_per_call.{family}"] = (
                mean(f"execution.dispatches_per_call.{family}"), "count")
        for kind in ("i64", "f64"):
            out[f"execution.chunk_sorts_ms.{kind}"] = (mean(f"execution.chunk_sorts.s.{kind}") * 1e3, "ms")
            out[f"execution.merge_rounds_ms.{kind}"] = (mean(f"execution.merge_rounds.s.{kind}") * 1e3, "ms")
        for key in ("runs", "passes", "blocks", "dispatches", "read_blocks",
                    "write_blocks", "transfer_ratio"):
            out[f"external.{key}"] = (mean(f"external.{key}"),
                                      "ratio" if key == "transfer_ratio" else "count")
        for op in LIBRARY_OPS:
            out[f"floor.{op}.melem_s"] = (self.elements[op] / self.floor_s[op] / 1e6, "Melem/s")
            out[f"{op}.melem_s"] = (self.elements[op] / self.op_s[op] / 1e6, "Melem/s")
            out[f"trace.coverage.{op}"] = (self.crit_s[op] / self.root_s[op], "ratio")
        return out
