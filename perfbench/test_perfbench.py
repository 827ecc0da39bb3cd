"""The benchmark's own tests: seeded inputs and a smoke run of each workload.

    python3 -m pytest perfbench -q

The smoke runs shrink every size (``--smoke``) but go through the whole
pipeline, correctness checks included.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from inputs import (  # noqa: E402
    library_inputs,
    open_loop_requests,
    saturate_requests,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "design.json")) as _fh:
    DESIGN = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _library_bytes(seed: int, workload: str) -> list[bytes]:
    cfg = dict(DESIGN["workloads"][workload]["library"])
    if workload == "bulk":  # same generator, smaller arrays
        for key in ("merge_elements_per_side", "sort_elements", "extsort_elements"):
            cfg[key] = 4096
    inputs = library_inputs(seed, workload, cfg)
    return [x.tobytes() for op in sorted(inputs) for args in inputs[op] for x in args]


def _request_lines(seed: int, workload: str) -> list[bytes]:
    wl = DESIGN["workloads"][workload]
    ol = open_loop_requests(seed, wl["open_loop"], 2.0)
    sat = saturate_requests(seed, dict(wl["saturate"], pool=32))
    lines = [ol.line(i, i) for i in range(len(ol.bodies))]
    lines += [sat.line(i, i) for i in range(len(sat.bodies))]
    return lines + [ol.offsets_s.tobytes()]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _library_bytes(7, workload) == _library_bytes(7, workload)
    assert _request_lines(7, workload) == _request_lines(7, workload)
    assert _library_bytes(7, workload) != _library_bytes(8, workload)
    assert _request_lines(7, workload) != _request_lines(8, workload)


def test_f64_inputs_carry_nan_signed_zeros_and_infinities():
    inputs = library_inputs(3, "small-calls", DESIGN["workloads"]["small-calls"]["library"])
    x = np.concatenate([np.concatenate(args) for args in inputs["merge.f64"]])
    assert np.isnan(x).any() and np.isinf(x).any()
    zeros = x[x == 0]
    assert np.signbit(zeros).any() and (~np.signbit(zeros)).any()
    for args in inputs["merge.f64"]:
        for side in args:
            nans = int(np.isnan(side).sum())
            assert np.isnan(side[len(side) - nans:]).all()  # NaN-last


def test_byte_identity_sees_signed_zero_order():
    from library import same_bytes

    assert same_bytes(np.array([0.0, -0.0]), np.array([0.0, -0.0]))
    assert not same_bytes(np.array([0.0, -0.0]), np.array([-0.0, 0.0]))
    assert same_bytes(np.array([1.0, np.nan]), np.array([1.0, np.nan]))


def test_a_wrong_library_output_counts_as_failed(monkeypatch):
    import library

    real = library.program

    def off_by_one(op, args, p, memory):
        out = real(op, args, p, memory).copy()
        out[0] += 1
        return out

    monkeypatch.setattr(library, "program", off_by_one)
    lib = library.Library(p=2, memory=1024, spans=None)
    a, b = np.arange(0, 64, 2), np.arange(1, 64, 2)
    lib.measure("merge.i64", (a, b), np.empty(64, dtype=a.dtype))
    assert lib.failed["merge.i64"] == 1


def test_a_wrong_or_missing_reply_counts_as_failed():
    import serve_load

    wl = DESIGN["workloads"]["small-calls"]
    req = saturate_requests(1, dict(wl["saturate"], pool=3))
    res = serve_load.PhaseResult(index=[0, 1, 2], due=[0.0] * 3, sent=[0.0] * 3,
                                 recv=[0.001] * 3)
    right = np.frombuffer(req.expected[0], dtype=np.int64).tolist()
    wrong = np.frombuffer(req.expected[1], dtype=np.int64)[::-1].tolist()
    res.lines = [json.dumps({"id": 0, "ok": True, "result": right}).encode(),
                 json.dumps({"id": 1, "ok": True, "result": wrong}).encode(),
                 None]
    ok, _ = serve_load.check(res, req)
    assert ok.tolist() == [True, wrong == sorted(wrong), False]
    assert np.isinf(serve_load.latencies_ms(res, ok)[2])


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "5", "--seconds", "3",
               "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [m["name"] for m in BENCH["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"] + BENCH["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], float), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
