"""The batched execution engine: one dispatch per phase, not per pair.

Before this module, ``parallel_merge_sort`` dispatched each pair of a
merge round separately — ``pairs`` fork/join barriers per round,
``O(p · log N)`` backend dispatches per sort call.  Since every segment
task of a round is independent of every other (disjoint output slices
across pairs *and* within them — Theorem 14), the whole round is one
logical fork/join: gather all segments of all pairs into a single
:class:`~repro.backends.TaskBatch`, submit once, barrier once.  That is
how GPU merge-path implementations launch a round (one grid, all
blocks), and it drops dispatch count to ``O(log N)`` per sort call.

Two helpers constitute the engine:

:func:`run_merge_round`
    All pairs of one round → one batch.  An odd run out is carried to
    the next round *at zero dispatch cost* (it used to ride along as
    either a degenerate 1-task batch or an extra list pass).  It is the
    only place merge tasks are built: ``parallel_merge`` is one round
    over one pair, and the merge sort and natural merge sort run every
    round through it; it alone decides between in-process closures and
    shared-memory offset jobs
    (:class:`~repro.execution.arena.RoundArena`).
:func:`run_chunk_sorts`
    Round 0 (the per-processor local sorts) → one batch; when a process
    pool may run it the array is staged once in shared memory
    (:class:`~repro.execution.arena.ChunkSortArena`) so chunk data is
    not pickled.

Both route through :meth:`Backend.run_batch`, so every round shows up
as one ``exec.batch`` span and one tick of the ``dispatches`` counter —
which is exactly what the ``exec.dispatches_per_call`` metric audits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..backends import Backend, TaskBatch
from ..backends.base import innermost_backend
from ..backends.processes import ProcessBackend
from ..obs.tracer import NULL_SPAN
from ..types import MergeStats
from ..core.merge_path import partition_merge_path
from ..core.sequential import merge_into, result_dtype
from .arena import ChunkSortArena, RoundArena
from .autotune import get_autotuner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer

__all__ = ["run_merge_round", "run_chunk_sorts"]


def _process_pool_may_run(backend: Backend) -> bool:
    """Whether a batch sent to ``backend`` may execute in a process pool.

    True when the innermost backend of a wrapper chain is a
    :class:`ProcessBackend`, or when it is a
    :class:`~repro.resilience.DegradingBackend` any of whose levels is
    (a batch may replay on any level).  Such batches must be picklable,
    so they ship as shared-memory offset jobs instead of closures.
    """
    from ..resilience.degrade import DegradingBackend

    be = innermost_backend(backend)
    if isinstance(be, DegradingBackend):
        return any(
            entry == "processes"
            or (isinstance(entry, Backend)
                and isinstance(innermost_backend(entry), ProcessBackend))
            for entry in be.chain
        )
    return isinstance(be, ProcessBackend)


def _publish_times(metrics: "MetricsRegistry | None", results) -> None:
    if metrics is None or not results:
        return
    times = [r.elapsed_s for r in results]
    mean = sum(times) / len(times)
    if mean > 0:
        metrics.gauge("balance.task_time_imbalance").set(max(times) / mean)


def run_merge_round(
    runs: Sequence[np.ndarray],
    procs_per_pair: int,
    *,
    backend: Backend,
    kernel: str = "vectorized",
    stats: MergeStats | None = None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
    round_index: int = 1,
) -> list[np.ndarray]:
    """Merge adjacent pairs of ``runs`` in **one** batched dispatch.

    Partitions every pair with Algorithm 1 (``procs_per_pair`` segments
    each), fuses all segment tasks into a single
    :class:`~repro.backends.TaskBatch`, and returns the next round's
    runs.  An odd trailing run is carried over untouched — it costs no
    task and no dispatch.  ``parallel_merge`` is this function over one
    pair.

    When a process pool may execute the batch (see
    :func:`_process_pool_may_run`) the round is staged through a
    :class:`RoundArena`: two shared-memory blocks for the whole round,
    picklable offset jobs, still one dispatch.  Otherwise each segment
    is an in-process closure writing a view of the pair's output.
    Either way every task returns its segment's :class:`MergeStats`
    (when ``stats`` is given), folded here, so the counts do not
    depend on the backend; only the closures record ``segment.merge``
    spans, since worker processes do not share the caller's tracer.
    """
    if len(runs) < 2:
        return list(runs)
    pairs = [(runs[i], runs[i + 1]) for i in range(0, len(runs) - 1, 2)]
    tail = runs[-1] if len(runs) % 2 else None

    partitions = [
        partition_merge_path(
            a, b, procs_per_pair, check=False, stats=stats, tracer=trace
        )
        for a, b in pairs
    ]
    if metrics is not None:
        metrics.counter("merge.segments").inc(sum(
            1 for part in partitions for s in part.segments if s.length > 0
        ))
        metrics.gauge("balance.work_spread").set(
            max(part.max_imbalance for part in partitions)
        )

    seg_hint = max(1, max(p.total_length for p in partitions) // procs_per_pair)
    resolved_kernel = get_autotuner().resolve_kernel(kernel, seg_hint)
    count = stats is not None
    meta = {"round": round_index, "pairs": len(pairs),
            "procs_per_pair": procs_per_pair}

    if _process_pool_may_run(backend):
        with RoundArena(
            [(a, b, part) for (a, b), part in zip(pairs, partitions)],
            kernel=resolved_kernel, count=count,
        ) as arena:
            results = backend.run_batch(
                TaskBatch(arena.tasks(), label="merge.round", meta=meta)
            )
            merged = arena.results()
    else:
        merged = [
            np.empty(part.total_length, dtype=result_dtype(a, b))
            for (a, b), part in zip(pairs, partitions)
        ]

        def make_task(a, b, out, seg, worker):
            def task() -> MergeStats | None:
                seg_stats = MergeStats() if count else None
                span = (
                    trace.span(
                        "segment.merge",
                        index=seg.index, worker=worker, round=round_index,
                        a_start=seg.a_start, a_end=seg.a_end,
                        b_start=seg.b_start, b_end=seg.b_end,
                        out_start=seg.out_start, out_end=seg.out_end,
                        length=seg.length,
                    )
                    if trace is not None
                    else NULL_SPAN
                )
                with span:
                    merge_into(
                        out[seg.out_start:seg.out_end],
                        a[seg.a_start:seg.a_end],
                        b[seg.b_start:seg.b_end],
                        kernel=resolved_kernel,
                        stats=seg_stats,
                    )
                    if seg_stats is not None:
                        span.set(comparisons=seg_stats.comparisons,
                                 moves=seg_stats.moves)
                return seg_stats

            return task

        tasks = [
            make_task(a, b, out, seg,
                      worker=pair_idx * procs_per_pair + seg.index)
            for pair_idx, ((a, b), part, out)
            in enumerate(zip(pairs, partitions, merged))
            for seg in part.segments
            if seg.length > 0
        ]
        results = backend.run_batch(
            TaskBatch(tasks, label="merge.round", meta=meta)
        )

    _publish_times(metrics, results)
    if stats is not None:
        for r in results:
            stats.merge(r.value)
    if tail is not None:
        merged.append(tail)
    return merged


def run_chunk_sorts(
    arr: np.ndarray,
    chunks: int,
    *,
    backend: Backend,
    base_sort: str = "numpy",
    sort_chunk=None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> list[np.ndarray]:
    """Round 0 of the sort: every chunk's local sort as one batch.

    ``sort_chunk`` is the per-chunk callable (defaults to a stable numpy
    sort).  With the default numpy sort, whenever a process pool may
    execute the batch the chunks are staged through a
    :class:`ChunkSortArena`, so no chunk data is pickled.
    """
    n = len(arr)
    chunks = min(chunks, n)
    bounds = [(k * n) // chunks for k in range(chunks + 1)]

    if (
        sort_chunk is None
        and base_sort == "numpy"
        and _process_pool_may_run(backend)
    ):
        with ChunkSortArena(arr, bounds) as arena:
            results = backend.run_batch(
                TaskBatch(arena.tasks(), label="sort.chunks",
                          meta={"round": 0, "chunks": chunks})
            )
            _publish_times(metrics, results)
            return arena.results()

    if sort_chunk is None:
        def sort_chunk(chunk: np.ndarray) -> np.ndarray:
            return np.sort(chunk, kind="mergesort")

    views = [arr[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

    def make_task(idx: int, chunk: np.ndarray):
        def task() -> np.ndarray:
            span = (
                trace.span("sort.chunk", index=idx, worker=idx,
                           length=len(chunk))
                if trace is not None
                else NULL_SPAN
            )
            with span:
                return sort_chunk(chunk)

        return task

    results = backend.run_batch(
        TaskBatch(
            [make_task(i, c) for i, c in enumerate(views)],
            label="sort.chunks", meta={"round": 0, "chunks": len(views)},
        )
    )
    _publish_times(metrics, results)
    ordered = sorted(results, key=lambda r: r.index)
    return [r.value for r in ordered]
