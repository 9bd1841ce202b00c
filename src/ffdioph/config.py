"""Experiment configuration: a flat JSON object with exact rationals as
"num/den" strings.

Schema (every key is optional; `ExperimentConfig` declares the defaults):

    suite          str      which suite to run; one of
                            estimate | dirichlet | audit-tset | transference | limsup
    seed           int      master seed; all randomness derives from it
    workers        int      parallel worker processes; never affects output bytes
    field          str      field spec, "p=2" or "p=3" or "p=2,d=2,modulus=..."
    dims           [m, n]   matrix shape; the dirichlet suite treats these as
                            maxima for its random shapes
    floor          int      precision floor, at most -2*T_max; in the
                            transference suite also at most -2*mult_T_max
    T_max          int      profile horizon
    Y              spec     matrix spec; see generators; no float anywhere in it
    theta          spec     shift spec, no float; in the transference suite
                            the default "0" draws a random shift per
                            instance, while "zero" and 0 give the zero shift
    eta            "a/b"    level of the index-tuple family
    eps            "a/b"    premise margin
    tau            "a/b"    cell scale slope, > 0; read by the limsup suite
                            only, which needs it below tau0(eps);
                            null = tau0(eps)/2
    tol_bz         "a/b"    transpose-bound diagnostic tolerance
    tol_dyson      "a/b"    exponent-one diagnostic tolerance
    method         str      best-error path, "kernel" | "brute", for both
                            profile kinds (the multiplicative kernel path
                            covers m = 1 and enumerates for m >= 2)
    profile_kind   str      "standard" | "multiplicative"
    instances      int      randomized-suite instance count, >= 1
    sigma_bound    int      target size for dirichlet / level cutoff for tset, >= 0
    uv_budget      int      grid budget for the tset audit, >= 0
    mode           str      tset mode, "multiplicative" | "dual"
    mult_T_max     int      horizon for the multiplicative dominance check, >= 1
    plane_samples  int      sampled matrices per plane-identity instance, >= 0
    plant_T        int      premise horizon for planted witnesses, >= 1
    sigma_threshold int     finitely-many-exceptions cutoff

Only `tau` may be null.  `workers` is excluded from the config echo in
reports so that identical configurations produce byte-identical reports at
any worker count.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ConfigError, ParseError
from .field import Fq, parse_field_spec
from .record import Record, fresh

_CHOICES = {
    "suite": ("estimate", "dirichlet", "audit-tset", "transference", "limsup"),
    "method": ("kernel", "brute"),
    "profile_kind": ("standard", "multiplicative"),
    "mode": ("multiplicative", "dual"),
}


# the least accepted value of each bounded integer key, checked in this order
_INT_MINIMA = {
    "workers": 1, "T_max": 1, "instances": 1, "mult_T_max": 1, "plant_T": 1,
    "plane_samples": 0, "sigma_bound": 0, "uv_budget": 0,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse(key: str, kind: str, value):
    """One raw JSON value, checked and converted by its field's declared type."""
    if value is None:
        if kind == "Fraction | None":
            return None
        raise ConfigError(f"{key} must not be null")
    if kind == "int":
        if not _is_int(value):
            raise ConfigError(f"{key} must be an integer")
        return value
    if kind.startswith("Fraction"):
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational for {key!r}: {value!r}") from exc
    if kind == "str":
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(f"unknown {key} {value!r}; pick from {_CHOICES[key]}")
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string")
        return value
    if kind == "tuple[int, int]":
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or any(not _is_int(x) or x < 1 for x in value)
        ):
            raise ConfigError(f"{key} must be a pair of positive integers")
        return tuple(value)
    if kind == "object":
        # Y and theta specs, interpreted by the generators and echoed in
        # reports, which hold no float: every input is exact
        stack = [value]
        while stack:
            v = stack.pop()
            if isinstance(v, dict):
                stack.extend(v.values())
            elif isinstance(v, (list, tuple)):
                stack.extend(v)
            elif isinstance(v, float):
                raise ConfigError(f"{key} spec holds the float {v!r}; exact inputs only")
        return value
    raise TypeError(f"no parser for config field type {kind!r}")


class ExperimentConfig(Record):
    """Field names are the JSON keys; field defaults are the config defaults."""

    suite: str = "estimate"
    seed: int = 0
    workers: int = 1
    field: str = "p=2"
    dims: tuple[int, int] = (1, 1)
    floor: int = -80
    T_max: int = 24
    Y: object = fresh(lambda: {"kind": "random"})
    theta: object = "0"
    eta: Fraction = Fraction(1)
    eps: Fraction = Fraction(1)
    tau: Fraction | None = None
    tol_bz: Fraction = Fraction(3, 10)
    tol_dyson: Fraction = Fraction(1, 4)
    method: str = "kernel"
    profile_kind: str = "standard"
    instances: int = 20
    sigma_bound: int = 8
    uv_budget: int = 20
    mode: str = "multiplicative"
    mult_T_max: int = 10
    plane_samples: int = 20
    plant_T: int = 4
    sigma_threshold: int = 8

    @property
    def m(self) -> int:
        return self.dims[0]

    @property
    def n(self) -> int:
        return self.dims[1]

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        kinds = cls.__annotations__
        unknown = set(raw) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**{k: _parse(k, kinds[k], v) for k, v in raw.items()})
        for key, least in _INT_MINIMA.items():
            if getattr(cfg, key) < least:
                raise ConfigError(f"{key} must be >= {least}")
        if cfg.floor > -2 * cfg.T_max:
            raise ConfigError(
                f"floor must be <= -2*T_max = {-2 * cfg.T_max}, got {cfg.floor}"
            )
        if cfg.suite == "transference" and cfg.floor > -2 * cfg.mult_T_max:
            # the suite profiles every horizon up to max(T_max, mult_T_max)
            raise ConfigError(
                f"floor must be <= -2*mult_T_max = {-2 * cfg.mult_T_max} in the "
                f"transference suite, got {cfg.floor}"
            )
        if cfg.eta < 1:
            raise ConfigError("eta must be >= 1")
        if cfg.eps <= 0:
            raise ConfigError("eps must be positive")
        if cfg.tau is not None and cfg.tau <= 0:
            raise ConfigError("tau must be positive")
        try:
            cfg.fq()  # validate the field spec eagerly; the field is kept
        except (ParseError, ValueError) as exc:
            raise ConfigError(f"bad field spec {cfg.field!r}: {exc}") from exc
        if cfg.suite == "limsup" and cfg.m != 1 and cfg.n != 1:
            raise ConfigError("the limsup suite needs m = 1 or n = 1")
        if cfg.suite == "limsup" and cfg.tau is not None:
            # imported here: only a limsup config with a given tau needs it
            from .limsup import TsetParams, tau0

            t0 = tau0(cfg.eps, TsetParams(cfg.m, cfg.n, cfg.eta))
            if not cfg.tau < t0:
                raise ConfigError(f"tau must be below tau0 = {t0} in the limsup suite")
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON (line {exc.lineno}, col {exc.colno})"
            ) from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)

    def fq(self) -> Fq:
        """The field, built once; not a record field, so not echoed."""
        F = self.__dict__.get("_fq")
        if F is None:
            F = parse_field_spec(self.field)
            object.__setattr__(self, "_fq", F)
        return F

    def replace(self, **kw) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(
            {**self.echo_dict(), "workers": self.workers, **kw}
        )

    def echo_dict(self) -> dict:
        """Config echo for reports: every key but the worker count, in JSON form."""
        out = {}
        for name in self._fields:
            if name == "workers":
                continue
            value = getattr(self, name)
            if isinstance(value, Fraction):
                value = str(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out
