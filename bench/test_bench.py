"""Checks of the benchmark itself, on a tiny run of each workload.

    python3 -m pytest bench/test_bench.py -q
"""

import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from tracing import CallCounter, SpanRecorder  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

_KERNEL = {
    "runner.run_config",
    "runner.report_json_bytes",
    "config.from_dict",
    "exponents.profile",
    "approx.best_error",
    "linalg.nullspace",
    "series.mul",
    "series.add",
    "series.split_parts",
    "generators.generate_matrix",
    "generators.generate_theta",
    "generators.random_series",
}
EXPECTED_SPANS = {
    "kernel-f2": _KERNEL | {"linalg.solve_affine"},
    "kernel-ext": _KERNEL,
    "transference-mult": _KERNEL | {"linalg.solve_affine", "approx.best_error_mult"},
    "limsup-plane": {
        "runner.run_config",
        "runner.report_json_bytes",
        "config.from_dict",
        "approx.witness_error_degs",
        "matrix.matvec_affine",
        "series.mul",
        "series.add",
        "series.inverse",
        "limsup.prop_forward_check",
        "limsup.intersection_check",
        "limsup.cell_plane_identity_check",
        "generators.random_series",
        "generators.plant_witness",
        "generators.plant_membership_pair",
        "generators.solve_matrix_for_residual",
    },
}
_LEAVES = {"field.Fq_init", "field.add", "field.mul", "series.coeff", "matrix.entry"}
EXPECTED_LEAVES = {
    "kernel-f2": _LEAVES,
    "kernel-ext": _LEAVES | {"field.neg", "field.sub", "field.inv"},
    "transference-mult": _LEAVES,
    "limsup-plane": _LEAVES,
}


def _bindings():
    """Every package-module name and module-level class attribute, with the
    object it is bound to; the same before and after instrumentation."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "ffdioph" and not name.startswith("ffdioph."):
            continue
        for key, value in vars(mod).items():
            out[f"{name}.{key}"] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[f"{name}.{key}.{attr}"] = getattr(member, "__func__", member)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_boundary_is_seen_and_outputs_are_unchanged(name):
    w = WORKLOADS[name]
    count = len(w.variants)
    plain = run.run_pass(w, 1, count=count)
    before = _bindings()
    with SpanRecorder() as recorder:
        traced = run.run_pass(w, 1, count=count, recorder=recorder)
    with CallCounter() as counter:
        counted = run.run_pass(w, 1, count=count, recorder=counter)
    assert _bindings() == before

    assert [r.failure for r in plain] == [None] * count
    assert [r.digest for r in traced] == [r.digest for r in plain]
    assert [r.digest for r in counted] == [r.digest for r in plain]

    span_calls: dict = {}
    for rec in traced:
        for span, (calls, _) in rec.spans.items():
            span_calls[span] = span_calls.get(span, 0) + calls
    assert EXPECTED_SPANS[name] <= set(span_calls)
    assert EXPECTED_LEAVES[name] <= {k for k, v in counter.counts.items() if v}
    # both passes wrap the same boundaries, so they see the same calls
    assert {k: counter.counts[k] for k in span_calls} == span_calls


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_default_seed_matches_recorded_digests(name):
    expected = run.recorded_digests()[name]
    records = run.run_pass(WORKLOADS[name], DEFAULT_SEED, count=len(expected))
    assert [r.digest for r in records] == expected


def test_guard_refuses_a_binding_it_cannot_rebind(monkeypatch):
    import ffdioph.approx

    before = _bindings()
    hidden = types.ModuleType("ffdioph._hidden")
    hidden.table = {"kernel": ffdioph.approx.best_error}
    monkeypatch.setitem(sys.modules, "ffdioph._hidden", hidden)
    with pytest.raises(RuntimeError, match="unwrapped"):
        with SpanRecorder():
            pass
    monkeypatch.delitem(sys.modules, "ffdioph._hidden")
    assert _bindings() == before


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-f2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
