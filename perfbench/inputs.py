"""Seeded inputs: library arrays and pre-encoded serve request lines.

Everything here is a pure function of ``(seed, config)``: the same seed
gives byte-identical arrays and request lines.  Each purpose draws from
its own ``numpy.random.default_rng([seed, stream])`` stream, so a change
to one input family never shifts another.

Sizes are drawn *stratified* on a log scale (one draw per equal-width
stratum of ``log N``).  Across seeds the size mix stays almost the same
while the values change, which keeps the run-to-run spread of the floor
ratios small without fixing the inputs.  Served requests go further:
their sizes are ordered along a seeded golden-ratio sequence, so every
stretch of the phase carries its share of large requests, and their
Poisson inter-arrival gaps are stratified exponential draws in seeded
order.  Arrivals stay Poisson; what no longer varies by seed is how
many large requests happen to bunch together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

I64_HIGH = 1 << 40
F64_SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)
F64_DISTINCT = 1024

LIBRARY_OPS = ("merge.i64", "merge.f64", "sort.i64", "sort.f64", "extsort")

# Stream ids: one per input family.
_S_LIB = 1
_S_OPEN = 2
_S_SAT = 3
_S_WARM = 4


def rng_for(seed: int, stream: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *extra])


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw per stratum ``[k/count, (k+1)/count)``, ascending."""
    return (np.arange(count) + rng.random(count)) / count


def log_sizes(rng: np.random.Generator, count: int, lo: int, hi: int,
              spread: bool = False) -> np.ndarray:
    """``count`` sizes in ``[lo, hi]``, log-uniform and stratified.

    The order is shuffled, or with ``spread`` follows a golden-ratio
    sequence from a seeded offset, so any run of consecutive entries
    covers the size range evenly.
    """
    u = stratified(rng, count)
    sizes = np.exp(np.log(lo) + u * (np.log(hi + 1) - np.log(lo)))
    sizes = np.clip(np.floor(sizes).astype(np.int64), lo, hi)
    if not spread:
        rng.shuffle(sizes)
        return sizes
    phase = (rng.random() + GOLDEN * np.arange(count)) % 1.0
    return sizes[np.argsort(np.argsort(phase))]


def keys(rng: np.random.Generator, kind: str, n: int,
         pool: np.ndarray | None = None) -> np.ndarray:
    """``n`` unsorted keys of ``kind`` (``i64`` or ``f64``).

    ``f64`` keys are drawn from ``pool`` (a fresh one when omitted):
    about 1K distinct values plus the specials, so ties are common.
    """
    if kind == "i64":
        return rng.integers(0, I64_HIGH, size=n, dtype=np.int64)
    if pool is None:
        pool = f64_pool(rng)
    return pool[rng.integers(0, len(pool), size=n)]


def f64_pool(rng: np.random.Generator) -> np.ndarray:
    return np.concatenate([
        rng.normal(0.0, 1000.0, F64_DISTINCT - len(F64_SPECIALS)),
        np.array(F64_SPECIALS),
    ])


def op_input(rng: np.random.Generator, op: str, n: int) -> tuple:
    """One library call's arguments: ``(a, b)`` for merges, ``(x,)`` else.

    Merge sides share one key pool, so ties between them are common.
    They are sorted stably: NaN lands last and +0.0/-0.0 keep their
    drawn order, which the byte comparison then checks.
    """
    kind = op.split(".")[1] if "." in op else "i64"
    if not op.startswith("merge."):
        return (keys(rng, kind, n),)
    pool = f64_pool(rng) if kind == "f64" else None
    half = n // 2
    return tuple(
        np.sort(keys(rng, kind, m, pool), kind="stable")
        for m in (half, n - half)
    )


def library_inputs(seed: int, workload: str, cfg: dict) -> dict[str, list[tuple]]:
    """Per-op input lists for one workload's library phase."""
    out: dict[str, list[tuple]] = {}
    for idx, op in enumerate(LIBRARY_OPS):
        rng = rng_for(seed, _S_LIB, idx)
        if workload == "bulk":
            n = {
                "merge": 2 * cfg["merge_elements_per_side"],
                "sort": cfg["sort_elements"],
                "extsort": cfg["extsort_elements"],
            }[op.split(".")[0]]
            out[op] = [op_input(rng, op, n)]
        elif op == "extsort":
            sizes = log_sizes(rng, cfg["extsort_inputs"],
                              cfg["extsort_min_elements"],
                              cfg["extsort_max_elements"])
            out[op] = [op_input(rng, op, int(n)) for n in sizes]
        else:
            sizes = log_sizes(rng, cfg["inputs_per_op"],
                              cfg["min_elements"], cfg["max_elements"])
            out[op] = [op_input(rng, op, int(n)) for n in sizes]
    return out


@dataclass
class RequestSet:
    """Pre-encoded serve requests.

    ``bodies[i]`` is request ``i``'s JSON object without its opening
    brace; the wire line is ``{"id":<id>,`` + body, so ids can be
    assigned at send time without encoding the payload again.
    ``expected[i]`` is the stable oracle's answer as int64 bytes.
    ``offsets_s`` (open loop only) is each request's due time from the
    phase start.
    """

    bodies: list[bytes]
    expected: list[bytes]
    elements: np.ndarray
    ops: list[str]
    offsets_s: np.ndarray | None = None

    def line(self, req_id: int, index: int) -> bytes:
        return b'{"id":%d,' % req_id + self.bodies[index]


def _request(rng: np.random.Generator, op: str, n: int) -> tuple[bytes, bytes]:
    if op == "merge":
        a, b = op_input(rng, "merge.i64", n)
        payload = {"op": "merge", "a": a.tolist(), "b": b.tolist()}
        oracle = np.sort(np.concatenate([a, b]), kind="stable")
    else:
        (x,) = op_input(rng, "sort.i64", n)
        payload = {"op": "sort", "data": x.tolist()}
        oracle = np.sort(x, kind="stable")
    text = json.dumps(payload, separators=(",", ":"))
    return text[1:].encode() + b"\n", oracle.astype(np.int64).tobytes()


def _requests(rng: np.random.Generator, count: int, cfg: dict) -> RequestSet:
    sizes = log_sizes(rng, count, cfg["min_elements"], cfg["max_elements"],
                      spread=True)
    ops = [cfg["ops"][i % len(cfg["ops"])] for i in range(count)]
    rng.shuffle(ops)
    bodies, expected = [], []
    for op, n in zip(ops, sizes):
        body, exp = _request(rng, op, int(n))
        bodies.append(body)
        expected.append(exp)
    return RequestSet(bodies, expected, sizes, ops)


def open_loop_requests(seed: int, cfg: dict, duration_s: float,
                       warmup: bool = False) -> RequestSet:
    """Poisson arrivals at ``rate_rps`` for ``duration_s`` seconds
    (``warmup`` draws an independent set for the untimed lead-in)."""
    rng = rng_for(seed, _S_WARM if warmup else _S_OPEN)
    count = max(1, int(round(cfg["rate_rps"] * duration_s)))
    gaps = -np.log1p(-stratified(rng, count)) / cfg["rate_rps"]
    rng.shuffle(gaps)
    req = _requests(rng, count, cfg)
    req.offsets_s = np.cumsum(gaps) - gaps[0]
    return req


def saturate_requests(seed: int, cfg: dict) -> RequestSet:
    """A pool the closed loop cycles through (ids stay unique)."""
    return _requests(rng_for(seed, _S_SAT), cfg["pool"], cfg)
