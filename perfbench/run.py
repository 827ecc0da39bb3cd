#!/usr/bin/env python3
"""The repository benchmark: library floor ratios, served latency, set-up.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 45 --trace 0

Run from the repository root (or a checkout of it).  Each run is one
workload in one fresh process:

1. Inputs and request lines are generated from ``--seed`` (untimed).
2. Set-up is timed ``setup_rounds`` times: a fresh interpreter imports
   the library, calibrates the autotuner into a fresh cache file,
   starts the pools and warms every op up; then a fresh
   ``python -m repro serve --port 0`` is timed from spawn to its first
   answered ping.  ``setup_s`` is the median of the summed rounds.
3. The library phase times each op against its one-core NumPy floor
   (:mod:`library`).
4. The serve phase drives a fresh server at its defaults: an open loop
   at a fixed Poisson rate, then a closed loop at a fixed pipeline
   depth (:mod:`serve_load`).

Every output is checked (library bytes against the floor, replies
against the stable oracle).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
are a readable table with sample counts.  The exit code is 1 when any
output was wrong or any request failed, and 2 when the checkout has no
``src/repro`` to measure.

``--trace 1`` runs the same workload with a root span around every call
and request plus a replay of each library call's layers, reports the
per-layer metrics instead of the end-to-end ones, and writes a Chrome
trace under ``.perfbench-run/``.  ``--smoke`` shrinks every size for a
quick end-to-end check.  Load parameters live in ``design.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk", "small-calls")


def load_design(smoke: bool) -> dict:
    with open(os.path.join(HERE, "design.json")) as fh:
        design = json.load(fh)
    if smoke:
        for wl in design["workloads"].values():
            lib = wl["library"]
            for key in ("merge_elements_per_side", "sort_elements", "extsort_elements",
                        "extsort_memory_elements", "extsort_min_elements",
                        "extsort_max_elements"):
                if key in lib:
                    lib[key] = max(1024, lib[key] // 64)
            for key in ("inputs_per_op", "extsort_inputs"):
                if key in lib:
                    lib[key] = max(2, lib[key] // 16)
            for phase in ("open_loop", "saturate"):
                wl[phase]["max_elements"] = min(wl[phase]["max_elements"], 4096)
            wl["saturate"]["pool"] = 64
        design["setup_rounds"] = 1
    return design


def isolate_env(scratch: str) -> dict[str, str]:
    """Drop inherited ``REPRO_*`` variables (they enter the autotuner's
    host fingerprint) and point the cache and temp files into ``scratch``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp)
    os.environ["REPRO_AUTOTUNE_CACHE"] = os.path.join(scratch, "autotune.json")
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from serve_load import env_for_children

    return env_for_children(dict(os.environ), ROOT)


def time_setup(rounds: int, p: int, env: dict[str, str], scratch: str) -> tuple[float, list]:
    from serve_load import ServerProcess

    samples = []
    for r in range(rounds):
        child_env = dict(env, REPRO_AUTOTUNE_CACHE=os.path.join(scratch, f"setup-{r}.json"))
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), "--p", str(p)],
            cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        lib = json.loads(out.stdout.strip().splitlines()[-1])
        server = ServerProcess(ROOT, child_env)
        try:
            serve_s = server.wait_ready()
        finally:
            server.stop()
        samples.append(dict(lib, serve_s=serve_s))
    return statistics.median(s["setup_s"] + s["serve_s"] for s in samples), samples


THRESHOLDS = ("serial_cutover", "process_cutover", "tiny_kernel_cutover")


def write_calibration(samples: list[dict]) -> dict:
    """Make the median of the set-up rounds' fresh calibrations this run's
    autotuner state, where both the library and the server read it.

    One calibration flips between neighbouring probe sizes from run to
    run (and now and then finds no crossover at all, which routes even
    4M-key merges serially); the median of the rounds keeps one unlucky
    probe from rerouting a whole run.  The thresholds are reported.
    """
    from repro.durable import atomic_write_json
    from repro.execution import HostFingerprint, Thresholds, TuningState

    chosen = {k: int(statistics.median_low(s[k] for s in samples)) for k in THRESHOLDS}
    state = TuningState(Thresholds(**chosen, calibrated=True, source="probe"),
                        HostFingerprint.current())
    atomic_write_json(os.environ["REPRO_AUTOTUNE_CACHE"], state.to_payload())
    chosen["calibrate_s"] = statistics.median(s["calibrate_s"] for s in samples)
    return chosen


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine so far."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def quantiles(values, qs):
    import numpy as np

    arr = np.asarray(values, dtype=float)
    return [float(np.percentile(arr, q)) for q in qs]


def run_serve(wl: dict, seed: int, seconds: float, env: dict[str, str],
              spans) -> dict:
    """Open loop then closed loop against one fresh server."""
    import numpy as np

    import serve_load as sl
    from inputs import open_loop_requests, saturate_requests
    from spans import TRACK_SERVE

    ol_cfg, sat_cfg = wl["open_loop"], wl["saturate"]
    ol_s, sat_s = ol_cfg["share"] * seconds, sat_cfg["share"] * seconds
    ol_req = open_loop_requests(seed, ol_cfg, ol_s)
    warm_req = open_loop_requests(seed, ol_cfg, ol_cfg["warmup_s"], warmup=True)
    sat_req = saturate_requests(seed, sat_cfg)

    server = sl.ServerProcess(ROOT, env)
    try:
        server.wait_ready()
        # Warm-up outside every timed region: the saturate pool's size
        # ends, then a short lead-in of the open loop's own traffic.
        for i in (int(np.argmin(sat_req.elements)), int(np.argmax(sat_req.elements))):
            server.call_line(sat_req.line(0, i))
        warm = sl.open_loop(server, warm_req, ol_cfg["connections"])
        c0 = server.counters()
        ol = sl.open_loop(server, ol_req, ol_cfg["connections"])
        c1 = server.counters()
        sat = sl.closed_loop(server, sat_req, sat_cfg["connections"],
                             sat_cfg["pipeline_depth"], sat_s)
        c2 = server.counters()
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    warm_ok, _ = sl.check(warm, warm_req)
    ol_ok, ol_replies = sl.check(ol, ol_req)
    sat_ok, _ = sl.check(sat, sat_req)
    lat = sl.latencies_ms(ol, ol_ok)
    p50, p90, p99 = quantiles(lat, (50, 90, 99))
    sat_lat = sl.latencies_ms(sat, sat_ok)
    ramp_s = 0.1 * sat_s  # the closed loop's ramp-up is not counted
    recv = np.asarray(sat.recv)
    in_window = (recv >= sat.start + ramp_s) & (recv <= sat.start + sat_s)
    good = int(np.sum(in_window & sat_ok & (sat_lat <= sat_cfg["latency_limit_ms"])))
    out = {
        "attempted": len(warm_ok) + len(ol_ok) + len(sat_ok),
        "failed": int(np.sum(~warm_ok) + np.sum(~ol_ok) + np.sum(~sat_ok)),
        "e2e": {
            "serve.max_rps": (good / (sat_s - ramp_s), "1/s", int(np.sum(in_window))),
            "serve.peak_rss_mb": (peak_rss, "MB", 1),
        },
        # Open-loop latency follows the host's CPU steal on a shared
        # 2-vCPU VM more than the program (between runs of the same code
        # p50 moved up to 2x and p90/p99 30-40%), so it is printed with
        # its sample count and reported by the traced run, but not gated.
        "latency": {
            "serve.p50_ms": (p50, "ms", len(lat)),
            "serve.p90_ms": (p90, "ms", len(lat)),
            "serve.p99_ms": (p99, "ms", len(lat)),
        },
    }
    if spans is None:
        return out

    from repro.serve.protocol import ok_response, parse_request

    sent = np.asarray(ol.sent)
    inside = np.array([r.get("elapsed_ms", np.nan) for r in ol_replies], dtype=float)
    rtt = (np.asarray(ol.recv) - sent) * 1e3
    late = (sent - np.asarray(ol.due)) * 1e3
    for i in range(len(ol.index)):
        spans.add("serve.request", i, None, ol.due[i], ol.recv[i], TRACK_SERVE,
                  op=ol_req.ops[i], n=int(ol_req.elements[i]))
        spans.add("client.late", i, "serve.request", ol.due[i], ol.sent[i], TRACK_SERVE)
        mid = ol.sent[i] + (rtt[i] - inside[i]) / 2e3
        spans.add("server.elapsed", i, "serve.request", mid, mid + inside[i] / 1e3,
                  TRACK_SERVE, placement="centred in the round trip")
    lines = [ol_req.line(i, i) for i in range(len(ol_req.bodies))]
    t0 = time.perf_counter()
    for line in lines:
        parse_request(line)
    decode_us = (time.perf_counter() - t0) / len(lines) * 1e6
    results = [np.frombuffer(e, dtype=np.int64) for e in ol_req.expected]
    t0 = time.perf_counter()
    for i, res in enumerate(results):
        ok_response(i, res, n=len(res), batched=1, elapsed_ms=0.1)
    encode_us = (time.perf_counter() - t0) / len(results) * 1e6
    d = sl.counter_delta
    batches = d(c0, c1, "serve.batches")
    out["layers"] = {
        "serve.protocol.decode_us": (decode_us, "us"),
        "serve.protocol.encode_us": (encode_us, "us"),
        "serve.inside_ms": (float(np.nanmedian(inside)), "ms"),
        "serve.outside_ms": (float(np.nanmedian(rtt - inside)), "ms"),
        "serve.coalescer.mean_batch": (
            d(c0, c1, "serve.coalesced_requests") / batches if batches else 0.0, "count"),
        "serve.shed": (d(c0, c2, "serve.shed"), "count"),
        "serve.deadline_misses": (d(c0, c2, "serve.deadline_misses"), "count"),
        "serve.gen.late_ms": (quantiles(late, (99,))[0], "ms"),
        **{k: v[:2] for k, v in out["latency"].items()},
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every size (quick end-to-end check)")
    ns = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2

    design = load_design(ns.smoke)
    wl = design["workloads"][ns.workload]
    run_dir = os.path.join(ROOT, ".perfbench-run")
    scratch = os.path.join(run_dir, f"{ns.workload}-{ns.seed}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        return measure(ns, design, wl, scratch, run_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(ns, design: dict, wl: dict, scratch: str, run_dir: str) -> int:
    env = isolate_env(scratch)
    p = os.cpu_count() or 1
    lib_cfg = wl["library"]
    memory = lib_cfg["extsort_memory_elements"]

    from inputs import library_inputs

    t0 = time.perf_counter()
    inputs = library_inputs(ns.seed, ns.workload, lib_cfg)
    gen_s = time.perf_counter() - t0

    setup_s, setup_samples = time_setup(design["setup_rounds"], p, env, scratch)
    tuned = write_calibration(setup_samples)

    from setup_probe import set_up

    own = set_up(p)  # loads the calibration above; starts pools, warms every op
    if not own["source"].startswith("cache:"):
        raise RuntimeError(f"autotuner ignored the run's calibration: {own['source']}")

    from library import Library
    from spans import Spans

    spans = Spans() if ns.trace else None
    t_measure, steal0 = time.perf_counter(), steal_s()
    lib = Library(p, memory, spans)
    lib.run(inputs, wl["library_share"] * ns.seconds, lib_cfg["slice_s"])
    del inputs
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    serve = run_serve(wl, ns.seed, ns.seconds, env, spans)
    steal = (steal_s() - steal0) / ((time.perf_counter() - t_measure) * p)

    attempted = sum(lib.calls.values()) + serve["attempted"]
    failed = sum(lib.failed.values()) + serve["failed"]
    if ns.trace:
        metrics = dict(lib.per_layer())
        metrics.update(serve["layers"])
        for key in THRESHOLDS:
            metrics[f"execution.autotune.{key}"] = (tuned[key], "count")
        metrics["execution.autotune.calibrate_s"] = (tuned["calibrate_s"], "s")
        metrics["host.steal_share"] = (steal, "ratio")
        trace_path = os.path.join(run_dir, f"trace-{ns.workload}-seed{ns.seed}.json")
        spans.write_chrome(trace_path)
        print(f"chrome trace: {trace_path} ({len(spans.records)} spans)")
        table = {k: (v, u, None) for k, (v, u) in metrics.items()}
    else:
        table = {"setup_s": (setup_s, "s", len(setup_samples)),
                 "peak_rss_mb": (peak_rss, "MB", 1)}
        table.update(lib.end_to_end())
        table.update(serve["e2e"])
        metrics = {k: (v, u) for k, (v, u, _) in table.items()}
        table.update({f"{k} (not gated)": v for k, v in serve["latency"].items()})
        table["host.steal_share (not gated)"] = (steal, "ratio", None)

    print(f"workload {ns.workload}  seed {ns.seed}  p {p}  inputs {gen_s:.2f}s  "
          f"thresholds serial<{tuned['serial_cutover']} "
          f"process>={tuned['process_cutover']} tiny<{tuned['tiny_kernel_cutover']} "
          f"(serial cutover per set-up round: {[s['serial_cutover'] for s in setup_samples]})")
    for name, (value, unit, samples) in sorted(table.items()):
        n = "" if samples is None else f"  n={samples}"
        print(f"  {name:44s} {value:14.6g} {unit}{n}")
    for op, bad in sorted(lib.failed.items()):
        if bad:
            print(f"  INCORRECT: {bad} {op} outputs differ from the floor")
    if serve["failed"]:
        print(f"  FAILED: {serve['failed']} serve requests wrong, refused or lost")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v) if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
