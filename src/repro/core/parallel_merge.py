"""Algorithm 1 — Parallel Merge.

Direct implementation of the paper's Algorithm 1:

1. Processor ``k`` (0-based) owns output positions
   ``[k·N/p, (k+1)·N/p)`` where ``N = |A| + |B|``.
2. It binary-searches the merge path's intersection with its starting
   diagonal (Theorem 14) — one scalar search per diagonal, done up
   front by :func:`repro.core.merge_path.partition_merge_path`.
3. It merges its sub-arrays sequentially into its disjoint output slice.
4. Implicit barrier: :meth:`Backend.run_batch` returns only when every
   segment is done.

Steps 2–4 are :func:`repro.execution.engine.run_merge_round` over the
single pair ``[a, b]`` — the same code path as every round of the
parallel merge sort and the natural merge sort, traced or not, on every
backend.  This module adds validation, backend resolution and the
per-call metrics.

No locks, no atomics, no inter-processor communication — cores share
only read-only inputs, matching the Remark after Algorithm 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..backends import Backend, get_backend
from ..types import MergeStats
from ..validation import as_array, check_mergeable, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry, Tracer
    from ..resilience import ExecutionTelemetry, RetryPolicy

__all__ = ["parallel_merge", "merge"]


class _TracerScope:
    """Temporarily install a tracer on a backend (and its inner chain).

    Backends carry an optional ``tracer`` attribute consulted on every
    task execution; entry points install the caller's tracer for the
    duration of the call and restore the previous state afterwards, so
    a pooled backend shared across calls is never left traced.
    """

    def __init__(self, backend: Backend, tracer: "Tracer | None") -> None:
        self._saved: list[tuple[Backend, object]] = []
        if tracer is None:
            return
        seen: set[int] = set()
        be: object = backend
        while isinstance(be, Backend) and id(be) not in seen:
            seen.add(id(be))
            self._saved.append((be, be.__dict__.get("tracer", _TracerScope)))
            be.tracer = tracer
            be = getattr(be, "inner", None)

    def __enter__(self) -> "_TracerScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for be, prev in self._saved:
            if prev is _TracerScope:  # attribute was absent (class default)
                be.__dict__.pop("tracer", None)
            else:
                be.tracer = prev


def _snapshot(stats: MergeStats | None) -> tuple[int, int, int]:
    """Field snapshot used to flush only this call's delta to metrics."""
    if stats is None:
        return (0, 0, 0)
    return (stats.comparisons, stats.moves, stats.search_probes)


def _resolve_execution(
    backend: Backend | str,
    p: int,
    resilience: "RetryPolicy | bool | None",
    telemetry: "ExecutionTelemetry | None",
    metrics: "MetricsRegistry | None" = None,
    *,
    n: int | None = None,
    trace: "Tracer | None" = None,
) -> tuple[Backend, bool, int]:
    """Shared backend setup for the parallel entry points.

    Returns ``(backend, owned, telemetry_start)``: the (possibly
    resiliently wrapped) backend, whether the caller must close it, and
    how many telemetry batches it had already recorded (so only this
    call's batches are copied into the caller's sink afterwards).

    String-named pooled backends (``serial``/``threads``/``processes``)
    resolve to the process-wide shared instances of
    :mod:`repro.execution.pool` — their worker pools persist across
    calls and are **not** closed by the caller (``owned`` stays False
    unless a resilience wrapper is added, in which case only the
    wrapper is owned).  When ``n`` is given, the call is untraced and
    the name is pooled, the adaptive autotuner may reroute the name to
    a faster backend for that size (:mod:`repro.execution.autotune`);
    explicit ``Backend`` instances and traced calls are never rerouted.
    Traced calls also skip the shared pools and get a dedicated cold
    pool (closed afterwards): a warm pool may multiplex every segment
    onto one OS thread, which would gut the per-worker trace view.

    When ``metrics`` is given, any telemetry sink on the resolved
    backend that is not already bound to a registry is bound to it, so
    resilience counters (retries, timeouts, speculations, ...) land in
    the same unified registry as the kernel counts.
    """
    from ..execution.autotune import get_autotuner
    from ..execution.pool import POOLED_BACKENDS, shared_backend

    owned = isinstance(backend, str)
    if owned:
        name = backend
        if n is not None and trace is None:
            name = get_autotuner().choose_backend(name, n)
        if trace is not None or name not in POOLED_BACKENDS:
            # Traced calls get a dedicated cold pool: a warm shared pool
            # may multiplex every segment onto one OS thread, which
            # would make the per-worker trace view meaningless.
            be = get_backend(name, max_workers=p)
        else:
            be: Backend = shared_backend(name, p)
            owned = False  # lifetime belongs to the shared pool cache
    else:
        be = backend
    if resilience:
        from ..resilience import ResilientBackend, RetryPolicy

        policy = resilience if isinstance(resilience, RetryPolicy) else None
        be = ResilientBackend(be, policy, owns_inner=owned)
        owned = True
        if telemetry is not None:
            be.telemetry = telemetry
    sink = getattr(be, "telemetry", None)
    if metrics is not None and sink is not None and sink.metrics is None:
        sink.metrics = metrics
    start = len(sink.batches) if sink is not None else 0
    return be, owned, start


def _flush_telemetry(
    be: Backend, start: int, telemetry: "ExecutionTelemetry | None"
) -> None:
    """Copy batches recorded since ``start`` into the caller's sink."""
    sink = getattr(be, "telemetry", None)
    if telemetry is None or sink is None or sink is telemetry:
        return
    for batch in sink.batches[start:]:
        telemetry.record(batch)


def parallel_merge(
    a: Sequence | np.ndarray,
    b: Sequence | np.ndarray,
    p: int,
    *,
    backend: Backend | str = "threads",
    kernel: str = "vectorized",
    check: bool = True,
    stats: MergeStats | None = None,
    resilience: "RetryPolicy | bool | None" = None,
    telemetry: "ExecutionTelemetry | None" = None,
    trace: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Merge two sorted arrays with ``p`` processors (Algorithm 1).

    Parameters
    ----------
    a, b:
        Sorted input arrays (non-decreasing).
    p:
        Number of parallel workers.
    backend:
        A :class:`~repro.backends.Backend` instance or registry name
        (``"serial"``, ``"threads"``, ``"processes"``, ``"simulated"``).
        Pooled names resolve to process-wide shared instances whose
        worker pools persist across calls (:mod:`repro.execution.pool`),
        and — on untraced calls — may be rerouted by the per-host
        autotuner (e.g. ``"threads"`` → ``"serial"`` below the measured
        fork/join crossover; disable with ``REPRO_AUTOTUNE=0``).
        Explicit instances are used verbatim and never rerouted.
    kernel:
        In-segment merge kernel (see
        :data:`repro.core.sequential.KERNELS`), or ``"auto"`` to let the
        autotuner pick per segment length.
    check:
        Validate input sortedness (O(N) vectorized scan).
    stats:
        Optional operation-count sink (partition probes + merge ops).
    resilience:
        Enable the fault-tolerant execution layer
        (:mod:`repro.resilience`): ``True`` wraps the backend in a
        :class:`~repro.resilience.ResilientBackend` with the default
        :class:`~repro.resilience.RetryPolicy`; pass a policy instance
        to customize retries/timeouts/speculation.  Safe because the
        merge tasks are idempotent and write disjoint slices
        (Theorem 14).
    telemetry:
        Optional :class:`~repro.resilience.ExecutionTelemetry` sink; on
        return it holds the retry/timeout/speculation record of every
        supervised batch this call ran (requires ``resilience`` or an
        already-resilient ``backend``).
    trace:
        Optional :class:`~repro.obs.Tracer`; records ``partition.search``,
        ``segment.merge`` and ``backend.task`` spans for this call
        (export with :func:`repro.obs.write_chrome_trace`).  ``None``
        (the default) allocates no span objects at all.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; receives this
        call's kernel operation counts (``merge.*``), segment counts and
        the Theorem 14 load-balance gauges (``balance.*``), plus
        resilience counters when a supervised backend is in play.

    Returns
    -------
    numpy.ndarray
        The stable merge of ``a`` and ``b`` (ties: ``a`` first), length
        ``len(a) + len(b)``.
    """
    check_positive(p, "p")
    a = as_array(a, "A")
    b = as_array(b, "B")
    if check:
        check_mergeable(a, b)

    local_stats = stats
    if metrics is not None and local_stats is None:
        local_stats = MergeStats()
    before = _snapshot(local_stats)

    be, owned, t_start = _resolve_execution(
        backend, p, resilience, telemetry, metrics,
        n=len(a) + len(b), trace=trace,
    )
    d_start = be.dispatches
    try:
        from ..execution.engine import run_merge_round

        with _TracerScope(be, trace):
            (merged,) = run_merge_round(
                [a, b], p, backend=be, kernel=kernel, stats=local_stats,
                trace=trace, metrics=metrics,
            )
            return merged
    finally:
        _flush_telemetry(be, t_start, telemetry)
        if metrics is not None:
            metrics.counter("merge.calls").inc()
            dispatched = be.dispatches - d_start
            metrics.counter("exec.dispatches").inc(dispatched)
            metrics.gauge("exec.dispatches_per_call").set(dispatched)
            if local_stats is not None:
                metrics.record_merge_delta(before, local_stats)
        if owned:
            be.close()


def merge(
    a: Sequence | np.ndarray,
    b: Sequence | np.ndarray,
    *,
    p: int = 1,
    backend: Backend | str = "auto",
    kernel: str = "auto",
    check: bool = True,
) -> np.ndarray:
    """Friendly top-level merge.

    ``merge(a, b)`` is a stable sequential merge; pass ``p`` and a
    backend to parallelize.  This is the function the quickstart example
    showcases.

    Defaults are adaptive: ``backend="auto"`` resolves to ``"serial"``
    for ``p == 1`` and ``"threads"`` otherwise, then the autotuner
    (:mod:`repro.execution.autotune`) reroutes by measured per-host
    crossovers; ``kernel="auto"`` picks the two-pointer loop for tiny
    segments and the vectorized kernel everywhere else.  Pass explicit
    names (or set ``REPRO_AUTOTUNE=0``) to pin the configuration.
    """
    if backend == "auto":
        backend = "serial" if p == 1 else "threads"
    return parallel_merge(a, b, p, backend=backend, kernel=kernel, check=check)
