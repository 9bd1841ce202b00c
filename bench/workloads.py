"""Workload definitions, per-instance input derivation and speed calibration.

This module must not import ffdioph: the fresh-process set-up probe imports
it before it starts timing the package import.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    # instance i runs variants[i % len(variants)]
    variants: tuple[dict, ...]
    # horizon of the brute-force oracle check, per variant (0 = no oracle)
    oracle_T: tuple[int, ...]


_F2_KERNEL = {
    "suite": "estimate",
    "field": "p=2",
    "dims": [2, 2],
    "T_max": 40,
    "floor": -80,
    "Y": {"kind": "random"},
    "theta": {"kind": "random"},
}
# Both variants are sized to cost about the same per instance (F4 at T_max 20,
# F9 at 19): two cost clusters of equal size would put the median in the gap
# between them.  Instances of every workload are kept to a few tenths of a
# second so that one run holds enough of them to be steady.
_F4_KERNEL = {"suite": "estimate", "field": "p=2,d=2", "dims": [1, 1], "T_max": 20, "floor": -40}
_F9_KERNEL = {"suite": "estimate", "field": "p=3,d=2", "dims": [1, 1], "T_max": 19, "floor": -38}

# Why each workload (one line each in BENCHMARK.json):
# kernel-f2          most time is best_error's own digit-by-digit constraint
#                    build and bit-packed GF(2) elimination, about 7 probes
#                    per call; n = 2 solves every degree bound twice; shifted
#                    and homogeneous profiles reach solve_affine and nullspace.
# kernel-ext         most time is generic elimination under nullspace, that is
#                    Fq mul/add/neg/sub; the one workload where the field
#                    layer dominates.
# transference-mult  most time is series mul/add/split_parts, largely inside
#                    the brute best_error_mult: series digit arithmetic, where
#                    kernel-f2 uses the series layer mostly for digit reads.
# limsup-plane       the only workload where generators, limsup checks and
#                    series.inverse work; short instances expose per-call
#                    runner overhead (config re-parse, Fq construction).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernel-f2", (_F2_KERNEL,), (8,)),
        Workload("kernel-ext", (_F4_KERNEL, _F9_KERNEL), (5, 3)),
        Workload(
            "transference-mult",
            ({"suite": "transference", "field": "p=2", "dims": [1, 1], "T_max": 24, "mult_T_max": 9},),
            (0,),
        ),
        Workload("limsup-plane", ({"suite": "limsup", "field": "p=2", "dims": [1, 1]},), (0,)),
    )
}


def instance_seed(workload: str, seed: int, index: int) -> int:
    """Config seed of instance `index`, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}|{seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def instance_config(w: Workload, seed: int, index: int) -> dict:
    cfg = dict(w.variants[index % len(w.variants)])
    cfg.update(seed=instance_seed(w.name, seed, index), instances=1, workers=1)
    return cfg


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# Nominal duration of one reference loop, in seconds.  A calibrated time is
# raw_time * REF_NOMINAL_S / measured_reference_time, so it reads in seconds
# of a host that runs the loop in exactly REF_NOMINAL_S.  The constant is the
# loop's median, run back to back, on a 2-core x86-64 VM with Python 3.11;
# changing it or the loop rescales every calibrated metric.
REF_NOMINAL_S = 0.007
_REF_ROUNDS = 6000


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def step(self, x: int, p: int) -> int:
        return (self.v * x + 1) % p


def reference_loop(rounds: int = _REF_ROUNDS) -> int:
    """Fixed pure-Python work that mixes what the package does: small-int
    modular arithmetic, method calls, short-list and tuple churn, dict hits."""
    cells = [_Cell(v) for v in range(16)]
    table: dict = {}
    acc = 0
    for i in range(rounds):
        a = cells[i & 15].step(i, 7)
        row = [(a + j) % 3 for j in range(8)]
        key = (a, row[3])
        table[key] = table.get(key, 0) + 1
        acc ^= sum(row) << (i & 7)
    return acc + len(table)


def reference_time() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
