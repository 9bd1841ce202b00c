import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffdioph.config import ExperimentConfig
from ffdioph import runner
from ffdioph.errors import PreconditionError
from ffdioph.runner import report_json_bytes, run_config


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, cwd):
    # the child runs in cwd, so a relative PYTHONPATH would not find the package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "ffdioph.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "suite": "estimate",
                "instances": 2,
                "T_max": 8,
                "floor": -20,
                "seed": 11,
            }
        )
    )
    return path


def test_estimate_writes_report_and_csv(tmp_path, cfg_file):
    out = tmp_path / "out"
    res = run_cli(
        ["estimate", "--config", str(cfg_file), "--out", str(out), "--format", "csv"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["suite"] == "estimate"
    assert report["timing_s"] is None
    csv_text = (out / "profile_0000.csv").read_text().splitlines()
    assert csv_text[0] == "T,B,minus_B_over_T_num,minus_B_over_T_den,censored"
    assert len(csv_text) == 9


def test_stdout_mode(tmp_path, cfg_file):
    res = run_cli(["estimate", "--config", str(cfg_file)], tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["summary"]["hard_failures"] == 0


def test_gen_subcommand(tmp_path, cfg_file):
    res = run_cli(["gen", "--config", str(cfg_file)], tmp_path)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["dims"] == [1, 1]
    assert "literal" in payload["Y"][0][0]


def test_verify_suite_and_alias(tmp_path, cfg_file):
    res = run_cli(["verify", "tset", "--config", str(cfg_file)], tmp_path)
    assert res.returncode == 0
    assert "[PASS] suite audit-tset" in res.stderr


def test_verify_all_runs_every_suite(tmp_path):
    res = run_cli(["verify", "all", "--instances", "2", "--tmax", "8"], tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert [r["suite"] for r in report["suites"]] == [
        "dirichlet",
        "transference",
        "limsup",
        "audit-tset",
        "estimate",
    ]


def test_audit_tset_dual_mode(tmp_path):
    cfg = tmp_path / "dual.json"
    cfg.write_text(
        json.dumps(
            {
                "suite": "audit-tset",
                "mode": "dual",
                "dims": [2, 1],
                "sigma_bound": 8,
                "uv_budget": 10,
                "T_max": 4,
                "floor": -8,
            }
        )
    )
    res = run_cli(["audit-tset", "--config", str(cfg)], tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["results"][0]["grid_audit"]["holds"] is True


def test_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"suite": "nope"}')
    res = run_cli(["estimate", "--config", str(bad)], tmp_path)
    assert res.returncode == 3
    assert "unknown suite" in res.stderr


def test_null_config_value_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"eta": null}')
    res = run_cli(["estimate", "--config", str(bad)], tmp_path)
    assert res.returncode == 3
    assert "eta must not be null" in res.stderr


def test_malformed_literal_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "Y": {"kind": "literal", "text": "X^- + 1"},
                "T_max": 4,
                "floor": -8,
                "instances": 1,
            }
        )
    )
    res = run_cli(["estimate", "--config", str(bad)], tmp_path)
    assert res.returncode == 3
    assert "position" in res.stderr


def test_noise_below_the_floor_is_planted_deeper_and_exits_0(tmp_path):
    # instances 5 and 9 of this config plant a noise row below the config's
    # floor, and most of the others read their planted rows below it: the
    # generators plant deep enough themselves, so no instance is lost to
    # precision and the run exits 0
    cfg = tmp_path / "limsup.json"
    cfg.write_text('{"suite": "limsup", "eta": "16", "floor": -110, "seed": 5}')
    res = run_cli(
        ["verify", "limsup", "--instances", "12", "--config", str(cfg), "--out", "out"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["results"]) == 12
    assert report["summary"]["precision_exhausted"] == 0
    assert not any(r["hard_failure"] for r in report["results"])


def test_flag_overrides(tmp_path, cfg_file):
    res = run_cli(
        ["estimate", "--config", str(cfg_file), "--tmax", "6", "--seed", "4"],
        tmp_path,
    )
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["config"]["T_max"] == 6
    assert report["seed"] == 4


def test_reports_identical_across_workers():
    base = {
        "suite": "dirichlet",
        "instances": 8,
        "dims": [2, 2],
        "T_max": 6,
        "floor": -30,
        "seed": 17,
    }
    blobs = set()
    for w in (1, 2):
        cfg = ExperimentConfig.from_dict(dict(base, workers=w))
        report, code = run_config(cfg)
        assert code == 0
        blobs.add(report_json_bytes(report))
    assert len(blobs) == 1


@pytest.mark.parametrize("exc_type", [AssertionError, PreconditionError])
def test_internal_error_fails_one_instance(monkeypatch, exc_type):
    base = {
        "suite": "estimate",
        "instances": 3,
        "dims": [1, 1],
        "T_max": 6,
        "floor": -30,
        "seed": 5,
        "workers": 1,
    }
    clean, code = run_config(ExperimentConfig.from_dict(base))
    assert code == 0
    task = runner._SUITE_TASKS["estimate"]

    def broken(cfg, idx):
        if idx == 1:
            raise exc_type("invariant broken on purpose")
        return task(cfg, idx)

    monkeypatch.setitem(runner._SUITE_TASKS, "estimate", broken)
    report, code = run_config(ExperimentConfig.from_dict(base))
    assert code == 1
    assert report["summary"]["hard_failures"] == 1
    results = report["results"]
    assert results[1] == {
        "index": 1,
        "hard_failure": True,
        "internal_error": f"{exc_type.__name__}: invariant broken on purpose",
    }
    assert [results[0], results[2]] == [clean["results"][0], clean["results"][2]]


def test_runner_import_loads_neither_the_pool_nor_csv():
    # -S keeps site hooks out: only the package's own imports are counted
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    code = (
        "import sys, ffdioph.runner; "
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'logging', 'csv') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_package_import_loads_no_dataclasses():
    # records share one base class: no module builds a dataclass at import,
    # and none of the package's other stdlib imports loads the module
    code = (
        "import sys; sys.path.insert(0, 'src'); import ffdioph.cli, ffdioph.runner; "
        "assert 'dataclasses' not in sys.modules"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, cwd=SRC.parent, timeout=60
    )
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "rational", "num": "1"},
        {"kind": "rational", "num": 1, "den": "X + 1"},
        {"kind": "literal", "text": 5},
        {"kind": "cf", "degrees": 3},
        {"kind": "lacunary", "base": [2]},
        {"kind": "grid"},
        {"kind": "grid", "entries": [3]},
    ],
    ids=["missing-key", "num-not-str", "text-not-str", "degrees-not-list", "base-not-int",
         "grid-missing-entries", "grid-row-not-list"],
)
def test_malformed_spec_exits_3_naming_it(tmp_path, capsys, spec):
    # a missing or mistyped spec field is bad input, not a broken invariant
    from ffdioph import cli

    path = tmp_path / "c.json"
    path.write_text(json.dumps({"Y": spec, "T_max": 4, "floor": -8, "instances": 1}))
    assert cli.main(["estimate", "--config", str(path)]) == 3
    assert f"spec {spec!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, raw, flags",
    [
        ("estimate", {"instances": 2, "T_max": 8, "floor": -20, "seed": 11}, ["--format", "csv"]),
        ("dirichlet", {"instances": 3, "dims": [2, 2], "T_max": 8, "floor": -30, "seed": 4}, []),
        ("audit-tset", {"dims": [2, 1], "sigma_bound": 6, "uv_budget": 8}, []),
    ],
    ids=["estimate-csv", "dirichlet", "audit-tset"],
)
def test_suite_subcommand_is_verify_of_that_suite(tmp_path, capsys, suite, raw, flags):
    from ffdioph import cli

    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    outputs = []
    for command in ([suite], ["verify", suite]):
        out = tmp_path / "-".join(command)
        code = cli.main([*command, "--config", str(path), "--out", str(out), *flags])
        assert f"[PASS] suite {suite}" in capsys.readouterr().err
        outputs.append((code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "report.json" in outputs[0][1]
    assert (suite == "estimate") == ("profile_0001.csv" in outputs[0][1])


def test_profile_csv_is_the_csv_module_rendering():
    import csv
    import io

    rows = [
        {"T": 1, "B": "-inf", "minus_B_over_T_num": None, "minus_B_over_T_den": None, "censored": False},
        {"T": 2, "B": -3, "minus_B_over_T_num": 3, "minus_B_over_T_den": 2, "censored": True},
        {"T": 3, "B": 0, "minus_B_over_T_num": 0, "minus_B_over_T_den": 1, "censored": False},
        {"T": 12, "B": "-inf", "minus_B_over_T_num": None, "minus_B_over_T_den": None, "censored": True},
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["T", "B", "minus_B_over_T_num", "minus_B_over_T_den", "censored"])
    for r in rows:
        writer.writerow(
            [
                r["T"],
                r["B"],
                "" if r["minus_B_over_T_num"] is None else r["minus_B_over_T_num"],
                "" if r["minus_B_over_T_den"] is None else r["minus_B_over_T_den"],
                "true" if r["censored"] else "false",
            ]
        )
    assert runner.profile_csv_bytes(rows) == buf.getvalue().encode("ascii")
    assert runner.profile_csv_bytes([]) == b"T,B,minus_B_over_T_num,minus_B_over_T_den,censored\n"


def test_suite_list_is_the_runner_tasks_and_the_tset_audit():
    from ffdioph import config

    assert set(config.SUITES) == set(runner._SUITE_TASKS) | {"audit-tset"}
