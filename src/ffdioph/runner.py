"""Suite runner: builds instances from a config, executes them (optionally
across worker processes), and assembles deterministic reports.

Instance work is keyed by (seed, suite, index), never by worker identity or
execution order, so reports are byte-identical at any worker count.  Wall
clock goes to stderr only; the report's timing slot stays null to keep the
bytes reproducible.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .approx import DirichletTarget, dirichlet_solve, witness_error_degs
from .config import ExperimentConfig
from .errors import PrecisionExhaustedError, PreconditionError
from .exponents import (
    EstimateWindowError,
    ExponentProfile,
    estimate,
    profile,
)
from .generators import (
    MembershipPair,
    PlantParams,
    derive_rng,
    generate_matrix,
    generate_theta,
    plant_membership_pair,
    plant_witness,
    random_series,
    solve_matrix_for_residual,
)
from .limsup import (
    IndexTuple,
    TsetParams,
    audit_grid,
    cell_plane,
    cell_plane_identity_check,
    intersection_check,
    prop_backward_check,
    prop_forward_check,
    tau0,
    tset_enumerate,
)
from .matrix import SeriesMatrix
from .poly import NEG_INF, Poly
from .record import Record
from .series import DegValue, LaurentSeries
from .transference import (
    check_bz,
    check_dirichlet_bound,
    check_dyson,
    check_mult_dominance,
)

# ---------------------------------------------------------------------------
# JSON-able serialization of result objects
# ---------------------------------------------------------------------------


def jsonable(obj):
    """Exact, float-free rendering of result objects for reports."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj == NEG_INF:
            return "-inf"
        raise TypeError("refusing to serialize a float into a report")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, DegValue):
        out = {"deg": "-inf" if obj.value == NEG_INF else int(obj.value)}
        if obj.censored:
            out["censored"] = True
        return out
    if isinstance(obj, Poly):
        return obj.to_literal()
    if isinstance(obj, LaurentSeries):
        return {
            "literal": obj.to_literal(),
            "floor": "-inf" if obj.floor == NEG_INF else obj.floor,
        }
    if isinstance(obj, SeriesMatrix):
        return [[jsonable(s) for s in row] for row in obj.rows]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, Record):
        return {k: jsonable(getattr(obj, k)) for k in obj._fields}
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def decimal_str(fr: Fraction) -> str:
    """Six-place fixed-point rendering for humans, by integer math (no float
    round)."""
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    whole, part = divmod(fr.numerator * 10**6 // fr.denominator, 10**6)
    return f"{sign}{whole}.{part:06d}"


def profile_rows(prof: ExponentProfile) -> list[dict]:
    """One row per entry, -B/T in lowest terms (T > 0 keeps the sign on top)."""
    rows = []
    for e in prof.entries:
        if e.B.value == NEG_INF:
            B = "-inf"
            num = den = None
        else:
            B = int(e.B.value)
            g = math.gcd(B, e.T)
            num, den = -B // g, e.T // g
        rows.append(
            {
                "T": e.T,
                "B": B,
                "minus_B_over_T_num": num,
                "minus_B_over_T_den": den,
                "censored": e.censored,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# per-suite instance tasks
# ---------------------------------------------------------------------------


def _estimate_instance(cfg: ExperimentConfig, idx: int) -> dict:
    F = cfg.fq()
    Y = generate_matrix(
        cfg.Y, F, cfg.m, cfg.n, cfg.floor, cfg.seed, f"estimate/{idx}/Y"
    )
    theta = generate_theta(cfg.theta, F, cfg.m, cfg.floor, cfg.seed * 1000003 + idx)
    prof = profile(Y, theta, cfg.T_max, cfg.profile_kind, cfg.method)
    out = {
        "index": idx,
        "profile": profile_rows(prof),
    }
    hard = False
    if cfg.profile_kind == "standard":
        bound = check_dirichlet_bound(prof.homogeneous or prof)
        out["dirichlet_bound"] = jsonable(bound)
        hard = hard or bound.holds is False
    try:
        est = estimate(prof)
        out["estimate"] = jsonable(est)
        if not est.infinite:
            out["estimate"]["omega_decimal"] = decimal_str(est.omega_proxy)
            out["estimate"]["omega_hat_decimal"] = decimal_str(est.omega_hat_proxy)
    except EstimateWindowError as exc:
        out["estimate"] = {"error": str(exc)}
    out["hard_failure"] = hard
    return out


def _random_balanced_target(m: int, n: int, sigma_bound: int, rng) -> DirichletTarget:
    k = rng.randrange(0, sigma_bound // 2 + 1)

    def split(total, parts):
        vals = []
        rest = total
        for _ in range(parts - 1):
            v = rng.randrange(0, rest + 1)
            vals.append(v)
            rest -= v
        vals.append(rest)
        return vals

    return DirichletTarget(m, n, tuple(split(k, m) + split(k, n)))


def _dirichlet_instance(cfg: ExperimentConfig, idx: int) -> dict:
    F = cfg.fq()
    rng = derive_rng(cfg.seed, "dirichlet", idx)
    m = rng.randrange(1, cfg.m + 1)
    n = rng.randrange(1, cfg.n + 1)
    t = _random_balanced_target(m, n, cfg.sigma_bound, rng)
    Y = generate_matrix(
        {"kind": "random"}, F, m, n, cfg.floor, cfg.seed, f"dirichlet/{idx}"
    )
    res = dirichlet_solve(Y, t)
    # independent re-verification of both inequality blocks
    degs = witness_error_degs(Y, None, res.witness)
    err_ok = all(
        (not d.censored) and d.value < -t.values[i] for i, d in enumerate(degs)
    )
    q_ok = all(
        q.deg == NEG_INF or q.deg <= t.values[m + j]
        for j, q in enumerate(res.witness.q)
    )
    return {
        "index": idx,
        "m": m,
        "n": n,
        "t": list(t.values),
        "witness": jsonable(res.witness),
        "error_degs": jsonable(list(degs)),
        "strict_also": res.strict_also,
        "reverified": err_ok and q_ok,
        "hard_failure": not (err_ok and q_ok),
    }


def _profile_prefix(prof: ExponentProfile, T_max: int) -> ExponentProfile:
    """The profile's entries up to T_max, and its homogeneous sibling's; an
    entry does not depend on the horizon it was computed under."""
    hom = prof.homogeneous and _profile_prefix(prof.homogeneous, T_max)
    return prof.replace(T_max=T_max, entries=prof.entries[:T_max], homogeneous=hom)


def _transference_instance(cfg: ExperimentConfig, idx: int) -> dict:
    F = cfg.fq()
    Y = generate_matrix(
        cfg.Y, F, cfg.m, cfg.n, cfg.floor, cfg.seed, f"transference/{idx}/Y"
    )
    theta = generate_theta(
        cfg.theta if cfg.theta != "0" else {"kind": "random"},
        F,
        cfg.m,
        cfg.floor,
        cfg.seed * 7919 + idx,
    )
    inhom_all = profile(
        Y, theta, max(cfg.T_max, cfg.mult_T_max), "standard", cfg.method
    )
    hom = _profile_prefix(inhom_all.homogeneous or inhom_all, cfg.T_max)
    Y_t = Y.transpose()
    hom_t = hom if Y_t == Y else profile(Y_t, None, cfg.T_max, "standard", cfg.method)
    inhom = _profile_prefix(inhom_all, cfg.T_max)
    bound = check_dirichlet_bound(hom)
    std_small = _profile_prefix(inhom_all, cfg.mult_T_max)
    mult_small = profile(Y, theta, cfg.mult_T_max, "multiplicative", cfg.method)
    dominance = check_mult_dominance(std_small, mult_small)
    bz = check_bz(inhom, hom_t, cfg.tol_bz)
    dyson = check_dyson(hom, hom_t, cfg.tol_dyson)
    return {
        "index": idx,
        "dirichlet_bound": jsonable(bound),
        "mult_dominance": jsonable(dominance),
        "bz": jsonable(bz),
        "dyson": jsonable(dyson),
        "hard_failure": bound.holds is False or dominance.holds is False,
    }


def _limsup_instance(cfg: ExperimentConfig, idx: int) -> dict:
    F = cfg.fq()
    params = TsetParams(cfg.m, cfg.n, cfg.eta)
    t0 = tau0(cfg.eps, params)
    tau = cfg.tau if cfg.tau is not None else t0 / 2
    plant = plant_witness(
        PlantParams(F, cfg.m, cfg.n, cfg.eta, cfg.eps, cfg.plant_T, cfg.floor),
        cfg.seed * 15485863 + idx,
    )
    fwd = prop_forward_check(
        plant.Y,
        plant.theta,
        plant.alpha,
        plant.T,
        plant.eta,
        plant.eps,
        tau,
        cfg.sigma_threshold,
    )
    hard = fwd.holds is False
    bwd_json = None
    # the backward direction consumes plain-diagonal memberships; a
    # shifted-only forward success is a recorded marginal case, not a failure
    if fwd.details.get("member_standard"):
        bwd = prop_backward_check(
            plant.Y, plant.theta, fwd.details["t"], plant.alpha, tau, plant.eta
        )
        bwd_json = jsonable(bwd)
        hard = hard or bwd.holds is False
    pair = plant_membership_pair(F, cfg.eta, cfg.seed * 32452843 + idx, cfg.floor)
    inter = intersection_check(
        pair.Y, pair.theta, pair.t, pair.alpha, pair.alpha2, pair.tau
    )
    hard = hard or inter.holds is False
    plane = _plane_block(cfg, F, pair, idx)
    hard = hard or not plane["all_agree"]
    return {
        "index": idx,
        "forward": jsonable(fwd),
        "backward": bwd_json,
        "intersection": jsonable(inter),
        "plane": plane,
        "hard_failure": hard,
    }


def _plane_block(cfg: ExperimentConfig, F, pair: MembershipPair, idx: int) -> dict:
    """Identity between a cell and its plane neighbourhood over sampled Y.

    Even indices keep the pair's own gate-passing tuple; odd indices shrink
    the q-side scales so the gate fails and the cell must come out empty.

    The check cuts column j of Y to plane.floor - max(deg q_j, 0) and reads
    no deeper, so every sampled Y is drawn, or solved, only down to the
    deepest of these cuts.  Each entry is drawn top-down from its own
    stream, so it is a prefix of any deeper draw; the solver reads theta
    and the deltas down to that depth plus deg q_pivot, which is at or
    above plane.floor, where plane.theta is cut.
    """
    t = pair.t
    alpha = pair.alpha
    tau = pair.tau
    pm, pn = pair.Y.m, pair.Y.n
    gate_breaker = idx % 2 == 1
    if gate_breaker:
        degs = [q.deg if q.deg != NEG_INF else 0 for q in alpha.q]
        t = IndexTuple.of(tuple(t.t[:pm]) + tuple(int(d) for d in degs))
    plane = cell_plane(pair.theta, t, alpha, tau)
    draw = plane.floor - max(max(q.deg, 0) for q in alpha.q)
    agree = 0
    members_seen = 0
    for s in range(cfg.plane_samples):
        if s % 2 == 0 and not gate_breaker:
            depth = max(t.t[:pm]) + 4
            # a delta's top, -depth - 1, may lie below draw; it then keeps one digit
            deltas = [
                random_series(
                    F, min(draw + depth, -1), derive_rng(cfg.seed, "plane-d", idx, s, i)
                ).shift(-depth)
                for i in range(pm)
            ]
            Y = solve_matrix_for_residual(
                F,
                alpha.q,
                alpha.p,
                plane.theta,
                deltas,
                draw,
                cfg.seed * 49979687 + idx * 1009 + s,
                "plane-Y",
            )
        else:
            Y = generate_matrix(
                {"kind": "random"}, F, pm, pn, draw, cfg.seed, f"plane-rand/{idx}/{s}"
            )
        rep = cell_plane_identity_check(Y, plane)
        if rep.holds:
            agree += 1
        if rep.details["cell_member"]:
            members_seen += 1
    return {
        "gate_breaker": gate_breaker,
        "samples": cfg.plane_samples,
        "agreements": agree,
        "members_seen": members_seen,
        "all_agree": agree == cfg.plane_samples,
    }


def _audit_tset_payload(cfg: ExperimentConfig) -> dict:
    params = TsetParams(cfg.m, cfg.n, cfg.eta, cfg.mode)
    en = tset_enumerate(params, cfg.sigma_bound)
    grid = audit_grid(params, cfg.uv_budget)
    collisions = {
        str(k): v for k, v in sorted(en.multiplicity.items()) if v > 1
    }
    return {
        "levels": {str(k): v for k, v in en.partial_sum_terms()},
        "tuple_count": len(en.tuples),
        "collisions": collisions,
        "grid_audit": jsonable(grid),
        "hard_failure": grid.holds is False,
    }


_SUITE_TASKS = {
    "estimate": _estimate_instance,
    "dirichlet": _dirichlet_instance,
    "transference": _transference_instance,
    "limsup": _limsup_instance,
}


def _run_one(args: tuple[ExperimentConfig, int]) -> dict:
    cfg, idx = args
    task = _SUITE_TASKS[cfg.suite]
    try:
        return task(cfg, idx)
    except PrecisionExhaustedError as exc:
        return {"index": idx, "precision_exhausted": str(exc), "hard_failure": False}
    except (PreconditionError, AssertionError) as exc:
        # a broken internal invariant or an operation's precondition fails
        # this instance, not the run; config and parse errors still end it
        return {
            "index": idx,
            "internal_error": f"{type(exc).__name__}: {exc}",
            "hard_failure": True,
        }


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_config(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Execute the configured suite; returns (report dict, exit code)."""
    started = time.monotonic()
    if cfg.suite == "audit-tset":
        results = [_audit_tset_payload(cfg)]
    else:
        args = [(cfg, i) for i in range(cfg.instances)]
        if cfg.workers > 1:
            # imported here: a one-worker run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(_run_one, args))
        else:
            results = [_run_one(a) for a in args]
        results.sort(key=lambda r: r.get("index", 0))
    hard = sum(1 for r in results if r.get("hard_failure"))
    precision = sum(1 for r in results if "precision_exhausted" in r)
    summary = {
        "instances": len(results),
        "hard_failures": hard,
        "precision_exhausted": precision,
    }
    if cfg.suite == "transference":
        summary["bz_holds"] = sum(1 for r in results if r.get("bz", {}).get("holds"))
        summary["dyson_holds"] = sum(
            1 for r in results if r.get("dyson", {}).get("holds")
        )
    if cfg.suite == "dirichlet":
        summary["strict_also"] = sum(1 for r in results if r.get("strict_also"))
    report = {
        "config": cfg.echo_dict(),
        "suite": cfg.suite,
        "results": results,
        "summary": summary,
        "seed": cfg.seed,
        "versions": {
            "ffdioph": __version__,
            "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        },
        "timing_s": None,
    }
    elapsed = time.monotonic() - started
    print(f"[{cfg.suite}] {len(results)} instance(s) in {elapsed:.2f}s", file=sys.stderr)
    exit_code = 1 if hard else (2 if precision else 0)
    return report, exit_code


def report_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\n"``, byte for byte,
    for what a report holds: dicts with str keys, lists, tuples, str, int,
    bool and None.  Anything else, a float included, raises TypeError.

    CPython's json runs its pure-Python encoder whenever indent is set; this
    writer makes the same text in about half the time.
    """
    out = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(obj, out: list, nl: str) -> None:
    """Append obj's JSON text to out; nl is a newline and the indent of the
    line obj starts on."""
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_json_str(key))
            out.append(": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} into a report")


_json_str = json.encoder.encode_basestring_ascii


def report_json_bytes(report: dict) -> bytes:
    return report_json(report).encode("ascii")


# the columns of a profile CSV table: the keys of profile_rows' rows
_CSV_COLUMNS = ("T", "B", "minus_B_over_T_num", "minus_B_over_T_den", "censored")


def profile_csv_bytes(rows: list[dict]) -> bytes:
    """profile_rows' rows as CSV: None is an empty field and the censored flag
    is true or false, so no field needs quoting."""
    lines = [",".join(_CSV_COLUMNS)]
    for r in rows:
        fields = ["" if r[c] is None else str(r[c]) for c in _CSV_COLUMNS[:-1]]
        lines.append(",".join(fields) + (",true" if r["censored"] else ",false"))
    return "".join(line + "\n" for line in lines).encode("ascii")


def write_file(out_dir, name: str, data: bytes) -> str:
    """Write data to out_dir/name, making the directory; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def write_outputs(report: dict, out_dir, fmt: str = "json") -> list[str]:
    """Write report.json (always) plus CSV profile tables when fmt='csv'."""
    written = [write_file(out_dir, "report.json", report_json_bytes(report))]
    if fmt == "csv":
        for r in report.get("results", []):
            rows = r.get("profile")
            if rows:
                name = f"profile_{r['index']:04d}.csv"
                written.append(write_file(out_dir, name, profile_csv_bytes(rows)))
    return written
