import json
from fractions import Fraction

import pytest

from ffdioph import ConfigError
from ffdioph.config import ExperimentConfig


def test_defaults():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.suite == "estimate"
    assert (cfg.m, cfg.n) == (1, 1)
    assert cfg.eta == Fraction(1)
    assert cfg.tau is None


def test_rational_parsing():
    cfg = ExperimentConfig.from_dict({"eta": "3/2", "tau": "1/16"})
    assert cfg.eta == Fraction(3, 2)
    assert cfg.tau == Fraction(1, 16)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"bogus": 1})


@pytest.mark.parametrize(
    "raw",
    [
        {"eta": None},
        {"eps": None},
        {"tol_bz": None},
        {"tol_dyson": None},
        {"field": None},
        {"theta": None},
        {"seed": True},
        {"instances": False},
        {"dims": [1, True]},
        {"field": 2},
    ],
)
def test_null_and_bool_rejected(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_replace_keeps_parsed_values():
    cfg = ExperimentConfig.from_dict({"eps": "1/2", "tol_bz": "1/5", "dims": [1, 2]})
    cfg2 = cfg.replace(seed=4)
    assert (cfg2.eps, cfg2.tol_bz, cfg2.m, cfg2.n) == (Fraction(1, 2), Fraction(1, 5), 1, 2)
    assert cfg2.echo_dict() == dict(cfg.echo_dict(), seed=4)


def test_field_built_once_and_sent_with_the_config():
    import pickle

    cfg = ExperimentConfig.from_dict({"field": "p=3,d=2", "dims": [1, 2]})
    assert cfg.fq() is cfg.fq()
    echo = cfg.echo_dict()
    sent = pickle.loads(pickle.dumps(cfg))
    assert sent == cfg and sent.fq() == cfg.fq()
    assert sent.echo_dict() == echo == ExperimentConfig.from_dict(echo).echo_dict()


def test_floor_invariant():
    ExperimentConfig.from_dict({"T_max": 10, "floor": -20})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"T_max": 10, "floor": -19})


def test_eta_bound():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"eta": "1/2"})


def test_bad_field_spec():
    # a non-prime characteristic, a degree with no built-in modulus, and a
    # malformed spec are all configuration errors
    for spec in ("p=4", "p=2,d=5", "x"):
        with pytest.raises(ConfigError, match="bad field spec"):
            ExperimentConfig.from_dict({"field": spec})


def test_limsup_needs_row_or_column():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"suite": "limsup", "dims": [2, 2]})


def test_echo_excludes_workers():
    cfg = ExperimentConfig.from_dict({"workers": 8, "seed": 3})
    echo = cfg.echo_dict()
    assert "workers" not in echo
    assert echo["seed"] == 3


def test_replace_roundtrip():
    cfg = ExperimentConfig.from_dict({"seed": 1, "T_max": 12, "floor": -30})
    cfg2 = cfg.replace(seed=2)
    assert cfg2.seed == 2 and cfg2.T_max == 12 and cfg2.workers == cfg.workers


def test_from_json_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"seed": 5}')
    assert ExperimentConfig.from_json_file(p).seed == 5
    p.write_text("{nope")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(p)


@pytest.mark.parametrize(
    "suite, raw, key",
    [
        ("dirichlet", {"instances": -3}, "instances"),
        ("transference", {"mult_T_max": 0}, "mult_T_max"),
        ("limsup", {"plant_T": 0}, "plant_T"),
        ("limsup", {"plane_samples": -1}, "plane_samples"),
        ("dirichlet", {"sigma_bound": -1}, "sigma_bound"),
        ("audit-tset", {"uv_budget": -1}, "uv_budget"),
        ("limsup", {"tau": "-1"}, "tau"),
    ],
)
def test_out_of_range_key_exits_3_before_any_instance(tmp_path, capsys, suite, raw, key):
    from ffdioph import cli

    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["verify", suite, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be")
    assert "instance(s)" not in err


@pytest.mark.parametrize("raw", [{"suite": "limsup", "tau": "1"}, {"tau": "1/8"}])
def test_limsup_tau_at_or_above_tau0_exits_3(tmp_path, capsys, raw):
    # tau0 = 1/8 at eta = eps = 1 and m = n = 1; a limsup sub-run of
    # `verify all` is checked before the first suite runs
    from ffdioph import cli

    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    suite = raw.get("suite", "all")
    assert cli.main(["verify", suite, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "error: tau must be below tau0 = 1/8" in err
    assert "instance(s)" not in err


def test_transference_floor_covers_mult_T_max(tmp_path, capsys):
    # the suite profiles to max(T_max, mult_T_max): a floor that covers only
    # T_max would leave most multiplicative horizons censored
    from ffdioph import cli

    raw = {"suite": "transference", "T_max": 8, "mult_T_max": 30, "floor": -16, "instances": 1}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["verify", "transference", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "mult_T_max" in err and "instance(s)" not in err
    ExperimentConfig.from_dict(dict(raw, floor=-60))
    ExperimentConfig.from_dict(dict(raw, suite="estimate"))


@pytest.mark.parametrize(
    "raw",
    [
        {"theta": 0.0},
        {"Y": {"kind": "cf", "degrees": [1, 2.0]}},
        {"dims": [1, 2], "Y": {"kind": "grid", "entries": [[{"kind": "lacunary", "base": 2.5}, "X^-1"]]}},
    ],
)
def test_float_in_a_spec_exits_3_before_any_instance(tmp_path, capsys, raw):
    # specs are echoed in reports, which hold no float, and the generators
    # would read 2.0 as int(2.0) and 0.0 as the zero shift
    from ffdioph import cli

    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["estimate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "holds the float" in err and "instance(s)" not in err
