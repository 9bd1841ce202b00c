"""ffdioph benchmark: suite workloads timed from outside the package.

    python3 bench/run.py --workload kernel-f2 --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all                 # every workload in turn

Each instance is one call into the package's public entry point, made as the
CLI makes it: ``ExperimentConfig.from_dict`` on a one-instance config whose
seed derives from ``--seed``, then ``runner.run_config`` with ``workers=1``,
then ``runner.report_json_bytes``.  Load is a closed loop from this single
process, one instance at a time.  Every time is calibrated: it is scaled by
``REF_NOMINAL_S`` over the mean duration of a fixed pure-Python reference loop
timed just before and just after the instance, so host speed drift cancels.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints per-layer
metrics from three passes over the same instances (untraced, spans, counts).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    REF_NOMINAL_S,
    WORKLOADS,
    Workload,
    instance_config,
    reference_time,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 15
ORACLE_INSTANCES = 2  # first instances checked against method="brute"
UNTRACED_SHARE_OF_TRACE_RUN = 0.25  # the span and counting passes take the rest


@dataclass
class Record:
    index: int
    raw_s: float
    scale: float  # calibrated seconds per raw second
    digest: str | None
    failure: str | None
    report: bytes | None = None  # kept for the oracle instances only
    spans: dict | None = None

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.scale


# ---------------------------------------------------------------------------
# one instance
# ---------------------------------------------------------------------------


def call_instance(cfg: dict) -> tuple[bytes | None, str | None]:
    """Run one config through the public entry point: (report bytes, failure)."""
    from ffdioph import runner
    from ffdioph.config import ExperimentConfig

    try:
        with contextlib.redirect_stderr(io.StringIO()):
            report, code = runner.run_config(ExperimentConfig.from_dict(cfg))
            data = runner.report_json_bytes(report)
    except Exception as exc:  # one instance's bug is that instance's failure
        return None, f"raised {type(exc).__name__}: {exc}"
    if code == 1:
        return data, "hard_failure reported"
    if code == 2:
        return data, "precision_exhausted reported"
    if code != 0:
        return data, f"exit code {code}"
    return data, None


def _digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_pass(w: Workload, seed: int, *, seconds=None, count=None, recorder=None) -> list[Record]:
    """Instances 0, 1, 2, ... until `seconds` elapse or `count` are done.

    `recorder` (an installed SpanRecorder or CallCounter) is told the
    instance id before each call, and its take() runs after the call,
    outside the timed region.
    """
    records: list[Record] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    ref_before = reference_time()
    index = 0
    while (count is None or index < count) and (
        deadline is None or not records or time.perf_counter() < deadline
    ):
        cfg = instance_config(w, seed, index)
        gc.collect()
        if recorder is not None:
            recorder.instance = index
        start = time.perf_counter()
        data, failure = call_instance(cfg)
        raw = time.perf_counter() - start
        spans = recorder.take() if recorder is not None else None
        ref_after = reference_time()
        records.append(
            Record(
                index,
                raw,
                2 * REF_NOMINAL_S / (ref_before + ref_after),
                _digest(data),
                failure,
                data if index < ORACLE_INSTANCES else None,
                spans,
            )
        )
        ref_before = ref_after
        index += 1
    return records


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _profile_key(data: bytes, T0: int):
    rows = json.loads(data)["results"][0]["profile"][:T0]
    return [(r["T"], r["B"], r["censored"]) for r in rows]


def oracle_failure(w: Workload, seed: int, rec: Record) -> str | None:
    """Kernel profile prefix of a finished instance against method="brute"."""
    T0 = w.oracle_T[rec.index % len(w.variants)]
    if not T0 or rec.report is None:
        return None
    cfg = instance_config(w, seed, rec.index)
    cfg.update(method="brute", T_max=T0)
    brute, failure = call_instance(cfg)
    if brute is None:
        return f"brute oracle {failure}"
    if _profile_key(brute, T0) != _profile_key(rec.report, T0):
        return f"kernel profile differs from brute on T <= {T0}"
    return None


def recorded_digests() -> dict:
    with open(BENCH_DIR / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def warm_up(w: Workload, seed: int) -> list[str | None]:
    """Run one instance of each variant untimed, so that lazy imports and
    allocator growth are not timed; returns their digests."""
    return [_digest(call_instance(instance_config(w, seed, i))[0]) for i in range(len(w.variants))]


def check_outputs(w: Workload, seed: int, records: list[Record], warm: list[str | None]) -> None:
    """Mark wrong outputs as instance failures, in place: the brute oracle,
    repetition of the warm-up instances, and recorded digests for the
    default seed."""

    def fail(rec: Record, why: str) -> None:
        if rec.failure is None:
            rec.failure = why

    for rec in records[:ORACLE_INSTANCES]:
        why = oracle_failure(w, seed, rec)
        if why:
            fail(rec, why)
    for rec, digest in zip(records, warm):
        if rec.digest != digest:
            fail(rec, "report bytes differ on repetition")
    if seed == DEFAULT_SEED:
        expected = recorded_digests()[w.name]
        for rec in records[: len(expected)]:
            if rec.digest != expected[rec.index]:
                fail(rec, "report digest differs from the recorded one")


def check_same_outputs(reference: list[Record], other: list[Record], what: str) -> None:
    """An instance fails if another pass over it failed or changed its bytes."""
    for ref, rec in zip(reference, other):
        if ref.failure is None and rec.failure is not None:
            ref.failure = f"{rec.failure} under {what}"
        elif ref.failure is None and rec.digest != ref.digest:
            ref.failure = f"report bytes differ under {what}"


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def setup_seconds(w: Workload) -> tuple[float, float]:
    """Median (calibrated, raw) set-up time over fresh interpreters."""
    cal, raw = [], []
    for probe in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), w.name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        got = json.loads(out.stdout.strip().splitlines()[-1])
        if probe:  # the first one may compile bytecode
            raw.append(got["raw_s"])
            cal.append(got["raw_s"] * got["scale"])
    return statistics.median(cal), statistics.median(raw)


def tail_rank(n: int) -> int:
    """Index into the sorted sample of the highest percentile that still has
    at least ten samples beyond it (the maximum when there are fewer)."""
    return max(0, n - 11)


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[list[Record], dict, list[str]]:
    setup_cal, setup_raw = setup_seconds(w)
    warm = warm_up(w, seed)
    records = run_pass(w, seed, seconds=seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    check_outputs(w, seed, records, warm)
    n = len(records)
    cal = sorted(r.cal_s for r in records)
    failed = sum(1 for r in records if r.failure)
    total_cal = sum(cal)
    total_raw = sum(r.raw_s for r in records)
    rank = tail_rank(n)
    metrics = {
        "instances_per_s": (n / total_cal, "1/s"),
        "instance_s_p50": (statistics.median(cal), "s"),
        "instance_s_tail": (cal[rank], "s"),
        "setup_s": (setup_cal, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": ((n - failed) / n, "ratio"),
    }
    info = [
        f"instances_per_s raw (uncalibrated, not gated): {n / total_raw:.4f} 1/s",
        f"instance_s_tail is p{100 * (rank + 1) / n:.1f} of {n} samples "
        f"({n - rank - 1} beyond it)",
        f"setup_s raw (uncalibrated): {setup_raw:.5f} s, median of {SETUP_PROBES} fresh processes",
        f"failed_ratio: {failed}/{n} = {failed / n:.4f}",
        f"calibration: mean scale {total_cal / total_raw:.4f} calibrated s per raw s",
    ]
    return records, metrics, info


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def field_ns_per_op(w: Workload) -> float:
    """Calibrated ns per Fq mul/add in a fixed loop over the workload's fields."""
    from ffdioph.field import parse_field_spec

    fields = [parse_field_spec(v["field"]) for v in w.variants]
    ops = 0
    ref_before = reference_time()
    start = time.perf_counter()
    for F in fields:
        elements = list(F.elements())
        rounds = 40000 // (len(elements) ** 2)
        for _ in range(rounds):
            for a in elements:
                for b in elements:
                    F.add(F.mul(a, b), b)
        ops += 2 * rounds * len(elements) ** 2
    raw = time.perf_counter() - start
    scale = 2 * REF_NOMINAL_S / (ref_before + reference_time())
    return raw * scale * 1e9 / ops


def per_layer(w: Workload, seed: int, seconds: float) -> tuple[list[Record], dict, list[str]]:
    from tracing import FIELD_OPS, SPAN_BOUNDARIES, CallCounter, SpanRecorder

    warm = warm_up(w, seed)
    plain = run_pass(w, seed, seconds=seconds * UNTRACED_SHARE_OF_TRACE_RUN)
    n = len(plain)
    with SpanRecorder() as recorder:
        traced = run_pass(w, seed, count=n, recorder=recorder)
    with CallCounter() as counter:
        counted = run_pass(w, seed, count=n, recorder=counter)
    check_outputs(w, seed, plain, warm)
    check_same_outputs(plain, traced, "span tracing")
    check_same_outputs(plain, counted, "call counting")

    self_s: dict[str, float] = {}
    for rec in traced:
        for name, (_, seconds_self) in rec.spans.items():
            self_s[name] = self_s.get(name, 0.0) + seconds_self * rec.scale
    c = counter.counts

    def mean_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + ".")) / n

    def mean_count(*names: str) -> float:
        return sum(c.get(k, 0) for k in names) / n

    def share(num: str, den: tuple[str, ...]) -> float:
        total = sum(c.get(k, 0) for k in den)
        return c.get(num, 0) / total if total else 0.0

    linalg = ("linalg.nullspace", "linalg.solve_affine")
    generators = [name for _, _, name in SPAN_BOUNDARIES if name.startswith("generators.")]
    overhead = sum(r.cal_s for r in traced) / sum(r.cal_s for r in plain)
    per = "calls/instance"
    metrics = {
        "field.ops": (mean_count(*FIELD_OPS), per),
        "field.mul.calls": (mean_count("field.mul"), per),
        "field.ns_per_op": (field_ns_per_op(w), "ns"),
        "field.Fq_init.calls": (mean_count("field.Fq_init"), per),
        "series.mul.calls": (mean_count("series.mul"), per),
        "series.mul.self_s": (mean_self("series.mul"), "s/instance"),
        "series.mul.digit_pairs": (mean_count("series.mul.digit_pairs"), "pairs/instance"),
        "series.add.calls": (mean_count("series.add"), per),
        "series.add.self_s": (mean_self("series.add"), "s/instance"),
        "series.add.digits": (mean_count("series.add.digits"), "digits/instance"),
        "series.split_parts.self_s": (mean_self("series.split_parts"), "s/instance"),
        "series.inverse.self_s": (mean_self("series.inverse"), "s/instance"),
        "series.coeff.calls": (mean_count("series.coeff"), per),
        "matrix.entry.calls": (mean_count("matrix.entry"), per),
        "matrix.matvec_affine.self_s": (mean_self("matrix.matvec_affine"), "s/instance"),
        "linalg.calls": (mean_count(*linalg), per),
        "linalg.self_s": (mean_self("linalg"), "s/instance"),
        "linalg.cells": (mean_count("linalg.cells"), "cells/instance"),
        "linalg.feasible_share": (share("linalg.feasible", linalg), "ratio"),
        "approx.best_error.calls": (mean_count("approx.best_error"), per),
        "approx.best_error.self_s": (mean_self("approx.best_error"), "s/instance"),
        "approx.linalg_per_best_error": (
            share("linalg.under_best_error", ("approx.best_error",)),
            "ratio",
        ),
        "approx.best_error.distinct_share": (
            share("approx.best_error.distinct", ("approx.best_error",)),
            "ratio",
        ),
        "approx.best_error_mult.self_s": (mean_self("approx.best_error_mult"), "s/instance"),
        "approx.mult.candidates": (mean_count("approx.mult.candidates"), "q/instance"),
        "exponents.profile.calls": (mean_count("exponents.profile"), per),
        "exponents.profile.self_s": (mean_self("exponents.profile"), "s/instance"),
        "exponents.profile.distinct_share": (
            share("exponents.profile.distinct", ("exponents.profile",)),
            "ratio",
        ),
        "limsup.checks.self_s": (mean_self("limsup"), "s/instance"),
        "generators.self_s": (mean_self("generators"), "s/instance"),
        "generators.calls": (mean_count(*generators), per),
        "runner.run_config.self_s": (mean_self("runner.run_config"), "s/instance"),
        "runner.report_bytes_s": (mean_self("runner.report_json_bytes"), "s/instance"),
        "config.from_dict.calls": (mean_count("config.from_dict"), per),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    info = [
        f"trace.overhead_ratio: {overhead:.4f} (span pass over untraced pass, "
        f"same {n} instances, calibrated)",
        f"span pass recorded {sum(sum(v[0] for v in r.spans.values()) for r in traced)} spans",
    ]
    return plain, metrics, info


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    w = WORKLOADS[name]
    measure = per_layer if trace else end_to_end
    records, metrics, info = measure(w, seed, seconds)
    failed = [r for r in records if r.failure]
    print(f"== {name} seed={seed} trace={trace}: {len(records)} instances, {len(failed)} failed")
    for line in info:
        print(f"   {line}")
    for rec in failed[:5]:
        print(f"   instance {rec.index} FAILED: {rec.failure}")
    for key, (value, unit) in metrics.items():
        print(f"   {key:36s} {value:14.6g} {unit}")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ffdioph" / "__init__.py").is_file():
        print(f"error: no ffdioph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
