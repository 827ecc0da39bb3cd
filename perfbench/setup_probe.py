"""The program's set-up, timed: import, autotune calibration, pool start
and one warm-up call per op.

``run.py`` runs this file in a fresh interpreter several times per run
(each with its own fresh autotune cache file) and reports the median as
part of ``setup_s``; it also calls :func:`set_up` in its own process so
the measured calls start warm.  Interpreter start-up is not counted, nor
is building the warm-up inputs.

    python3 perfbench/setup_probe.py --p 2   # prints one JSON line
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def set_up(p: int) -> dict:
    t0 = time.perf_counter()
    import numpy as np
    from repro import merge, parallel_merge_sort
    from repro.backends import TaskBatch
    from repro.execution import get_autotuner, shared_backend
    from repro.external.sort import external_sort
    t_import = time.perf_counter()
    thresholds = get_autotuner().thresholds()
    t_calibrate = time.perf_counter()
    for name in ("threads", "processes"):
        shared_backend(name, p).run_batch(TaskBatch([int] * p, label="perfbench.warmup"))
    t_pools = time.perf_counter()
    a, b = np.arange(0, 4096, 2), np.arange(1, 4096, 2)
    x = np.arange(4096)[::-1].copy()
    t_inputs = time.perf_counter()
    merge(a, b, p=p)
    merge(a.astype(np.float64), b.astype(np.float64), p=p)
    parallel_merge_sort(x, p)
    parallel_merge_sort(x.astype(np.float64), p)
    external_sort(x, memory_elements=1024, parallel=True, workers=p)
    t_end = time.perf_counter()
    return {
        "setup_s": (t_pools - t0) + (t_end - t_inputs),
        "import_s": t_import - t0,
        "calibrate_s": t_calibrate - t_import,
        "pools_s": t_pools - t_calibrate,
        "warmup_s": t_end - t_inputs,
        "serial_cutover": thresholds.serial_cutover,
        "process_cutover": thresholds.process_cutover,
        "tiny_kernel_cutover": thresholds.tiny_kernel_cutover,
        "source": thresholds.source,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=os.cpu_count() or 1)
    ns = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    print(json.dumps(set_up(ns.p)), flush=True)
