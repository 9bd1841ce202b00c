"""Golden reports: one small config per suite, pinned by the SHA-256 of its
report bytes.

The `versions` key is dropped before hashing so that the digests do not
depend on the package or Python version.  A digest changes only when a
report changes; a refactor that keeps outputs byte-identical keeps them.
"""

import hashlib

import pytest

from ffdioph.config import ExperimentConfig
from ffdioph.runner import report_json_bytes, run_config

GOLDEN = {
    "estimate-f2-2x2-shifted": (
        {
            "suite": "estimate",
            "field": "p=2",
            "dims": [2, 2],
            "T_max": 16,
            "floor": -40,
            "theta": {"kind": "random"},
            "instances": 3,
            "seed": 1,
        },
        "94f33de9aa18cdbdefede2448945dfdb27aa53ede9b232d0a615be2b0d91d4a4",
    ),
    "estimate-f4-1x1": (
        {
            "suite": "estimate",
            "field": "p=2,d=2",
            "dims": [1, 1],
            "T_max": 12,
            "floor": -24,
            "instances": 3,
            "seed": 2,
        },
        "63b3f23b306264763708bc3d5fbfc04ec68a21df7e5125446684909bdd7d5b5b",
    ),
    "dirichlet": (
        {"suite": "dirichlet", "dims": [2, 2], "T_max": 6, "floor": -30, "instances": 4, "seed": 3},
        "c7893e37b73e659ba094d437fb075d6a311e4a72d68d8181ef2824e61f7599ab",
    ),
    "audit-tset": (
        {"suite": "audit-tset", "dims": [2, 1], "sigma_bound": 6, "uv_budget": 8, "T_max": 4, "floor": -8},
        "c90949fcef8bb144b3daefe00c3069454be533c718a02e56278823769e3b8813",
    ),
    # dual mode with m != n: the grid sums are m*u and n*v
    "audit-tset-dual-3x2": (
        {
            "suite": "audit-tset",
            "dims": [3, 2],
            "eta": "3/2",
            "mode": "dual",
            "sigma_bound": 12,
            "uv_budget": 24,
            "T_max": 4,
            "floor": -8,
        },
        "cb93dc9317369e235dc894ac7eb3d4907cfa6be7b879f67816752877336c12d6",
    ),
    "transference-1x2": (
        {
            "suite": "transference",
            "dims": [1, 2],
            "T_max": 16,
            "floor": -40,
            "mult_T_max": 6,
            "tol_bz": "1/5",
            "instances": 3,
            "seed": 5,
        },
        "f59c164eddc955d2b3e41ad05951c6f601104c87c0f7bb4f2aa5f9315b126d3a",
    ),
    "limsup": (
        {"suite": "limsup", "dims": [1, 1], "eps": "1/2", "plane_samples": 8, "instances": 3, "seed": 6},
        "6140aadd23180632b234c88145bdca7db43e9b91a953c135527f6de75c8ab6a4",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_digest(name):
    raw, digest = GOLDEN[name]
    report, code = run_config(ExperimentConfig.from_dict(raw))
    assert code == 0
    report = {k: v for k, v in report.items() if k != "versions"}
    assert hashlib.sha256(report_json_bytes(report)).hexdigest() == digest
