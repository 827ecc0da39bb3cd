"""Design-choice ablations called out in DESIGN.md §7.

Not tied to a single paper artifact; these quantify the knobs the
implementation exposes:

* in-segment kernel choice (two-pointer / galloping / vectorized) on
  uniform vs clustered data;
* partition granularity: exactly p segments vs 4p segments on the same
  backend (finer cuts help when segment costs vary — e.g. galloping on
  clustered data — at the price of more searches);
* keyed merge (payload gather) vs plain merge;
* streaming merge block size.
"""

import numpy as np
import pytest

from repro.core.keyed import merge_by_key
from repro.core.parallel_merge import parallel_merge
from repro.core.sequential import KERNELS
from repro.core.streaming import streaming_merge
from repro.backends.serial import SerialBackend
from repro.execution import run_merge_round
from repro.workloads.adversarial import staircase_runs
from repro.workloads.generators import sorted_uniform_ints

from .conftest import FULL

N = (1 << 18) if FULL else (1 << 13)
SMALL = (1 << 14) if FULL else (1 << 11)


@pytest.fixture(scope="module")
def uniform_pair():
    return sorted_uniform_ints(N, 700), sorted_uniform_ints(N, 701)


@pytest.fixture(scope="module")
def clustered_pair():
    return staircase_runs(N, run=256)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_bench_kernel_uniform(benchmark, uniform_pair, kernel):
    a, b = uniform_pair
    sa, sb = a[:SMALL], b[:SMALL]
    benchmark(KERNELS[kernel], sa, sb, check=False)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_bench_kernel_clustered(benchmark, clustered_pair, kernel):
    a, b = clustered_pair
    sa, sb = a[:SMALL], b[:SMALL]
    benchmark(KERNELS[kernel], sa, sb, check=False)


@pytest.mark.parametrize("factor", [1, 4])
def test_bench_partition_granularity(benchmark, uniform_pair, factor):
    """p segments vs 4p segments executed on the same backend."""
    a, b = uniform_pair
    p = 4
    backend = SerialBackend()

    def run():
        (merged,) = run_merge_round([a, b], p * factor, backend=backend)
        return merged

    out = benchmark(run)
    assert len(out) == 2 * N


def test_bench_merge_by_key_overhead(benchmark, uniform_pair):
    """Payload gather cost vs the plain merge (compare with FIG5 rows)."""
    a, b = uniform_pair
    av = np.arange(len(a))
    bv = np.arange(len(b))
    keys, vals = benchmark(merge_by_key, a, b, av, bv, p=1)
    assert len(keys) == len(vals) == 2 * N


def test_bench_plain_merge_reference(benchmark, uniform_pair):
    a, b = uniform_pair
    benchmark(parallel_merge, a, b, 1, backend="serial", check=False)


@pytest.mark.parametrize("L", [256, 4096])
def test_bench_streaming_block_size(benchmark, uniform_pair, L):
    """Streaming-merge throughput vs block size (per-block Python
    overhead amortizes with L)."""
    a, b = uniform_pair
    sa, sb = a[:SMALL], b[:SMALL]

    def run():
        total = 0
        for block in streaming_merge(iter(sa), iter(sb), L=L):
            total += len(block)
        return total

    assert benchmark(run) == 2 * SMALL


def test_bench_natural_sort_nearly_sorted(benchmark):
    """Adaptivity ablation: natural merge sort on 0.5%-shuffled data."""
    from repro.core.natural_sort import natural_merge_sort
    from repro.workloads.generators import nearly_sorted

    x = nearly_sorted(N, 710, swap_fraction=0.005)
    out = benchmark(natural_merge_sort, x, 4, backend="serial")
    assert np.all(out[:-1] <= out[1:])


def test_bench_standard_sort_nearly_sorted(benchmark):
    """The non-adaptive arm of the adaptivity ablation."""
    from repro.core.merge_sort import parallel_merge_sort
    from repro.workloads.generators import nearly_sorted

    x = nearly_sorted(N, 710, swap_fraction=0.005)
    out = benchmark(parallel_merge_sort, x, 4, backend="serial")
    assert np.all(out[:-1] <= out[1:])


def test_bench_inplace_merge(benchmark):
    """SymMerge wall time (O(1)-space arm) vs the allocating merges."""
    from repro.core.inplace import merge_inplace

    a = sorted_uniform_ints(SMALL, 720)
    b = sorted_uniform_ints(SMALL, 721)
    template = np.concatenate([a, b])

    def run():
        arr = template.copy()
        merge_inplace(arr, SMALL, check=False)
        return arr

    out = benchmark(run)
    assert np.all(out[:-1] <= out[1:])
