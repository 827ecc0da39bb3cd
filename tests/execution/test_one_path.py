"""One merge dispatch path: the same bytes and counts on every backend.

``parallel_merge`` is ``run_merge_round`` over one pair, so a merge is
built the same way whatever executes it: closures on in-process
backends, shared-memory offset jobs whenever a process pool may run the
batch.  Tracing observes that path; it does not pick another one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.merge_sort import parallel_merge_sort
from repro.core.parallel_merge import parallel_merge
from repro.obs import MetricsRegistry, Tracer
from repro.resilience import DegradingBackend, subscribe_degradation

BACKENDS = ["serial", "threads", "processes", "degrading"]
CHAIN = ["processes", "threads", "serial"]


def _backend(name: str):
    if name == "degrading":
        return DegradingBackend(CHAIN, max_workers=2)
    return name


def _pair() -> tuple[np.ndarray, np.ndarray]:
    """Float keys with many ties and both signed zeros, so the output
    bytes show whether every tie kept A before B."""
    g = np.random.default_rng(2024)
    a = np.sort(g.integers(-20, 20, 3000).astype(np.float64))
    b = np.sort(g.integers(-20, 20, 2500).astype(np.float64))
    a[a == 0.0] = -0.0
    return a, b


def _oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sort(np.concatenate([a, b]), kind="stable")


def _merge_counters(reg: MetricsRegistry) -> dict[str, float]:
    return {k: v for k, v in reg.snapshot().items() if k.startswith("merge.")}


def _run_merge(name: str, traced: bool) -> tuple[np.ndarray, MetricsRegistry]:
    a, b = _pair()
    reg = MetricsRegistry()
    be = _backend(name)
    try:
        out = parallel_merge(a, b, 4, backend=be, metrics=reg,
                             trace=Tracer() if traced else None)
    finally:
        if not isinstance(be, str):
            be.close()
    return out, reg


@pytest.fixture(scope="module")
def reference_counters() -> dict[str, float]:
    _, reg = _run_merge("serial", traced=False)
    return _merge_counters(reg)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", BACKENDS)
def test_parallel_merge_same_bytes_counts_and_dispatches(
    name, traced, reference_counters
):
    a, b = _pair()
    out, reg = _run_merge(name, traced)
    assert out.tobytes() == _oracle(a, b).tobytes()
    assert _merge_counters(reg) == reference_counters
    assert reference_counters["merge.comparisons"] > 0
    assert reference_counters["merge.moves"] == len(a) + len(b)
    assert reg.value("exec.dispatches_per_call") == 1


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", BACKENDS)
def test_parallel_merge_sort_three_dispatches(name, traced):
    x = np.random.default_rng(7).integers(-1000, 1000, 6000)
    reg = MetricsRegistry()
    be = _backend(name)
    try:
        out = parallel_merge_sort(x, 4, backend=be, metrics=reg,
                                  trace=Tracer() if traced else None)
    finally:
        if not isinstance(be, str):
            be.close()
    assert out.tobytes() == np.sort(x, kind="stable").tobytes()
    # round 0 (chunk sorts) + two merge rounds
    assert reg.value("exec.dispatches_per_call") == 3


def test_processes_first_chain_does_not_degrade_on_sort():
    """Closures cannot be pickled into a process pool; the engine must
    see the chain's process level and ship offset jobs instead, so
    nothing fails and nothing falls to threads."""
    events = []
    unsubscribe = subscribe_degradation(events.append)
    chain = DegradingBackend(CHAIN, max_workers=2)
    try:
        x = np.random.default_rng(3).integers(0, 10**6, 5000)
        out = parallel_merge_sort(x, 2, backend=chain)
        assert np.array_equal(out, np.sort(x))
        assert events == []
        assert chain.active_backend == "processes"
    finally:
        unsubscribe()
        chain.close()
