"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 7 checks the index-tuple construction over the (u, v) grid.  The
tuple is t = (u - floor(xi), v + floor(xi)), so exactly
sigma(t) = (eta+1)/(m+eta*n) * (n*sigma(u) + m*sigma(v)) + (m-n)*frac(xi),
and that identity is asserted on every accepted pair together with the
sandwich (eta+1)*sigma(v) <= sigma(t) <= (eta+1)/eta*sigma(u) and
sigma(t) >= 0.  For m >= n the fractional term is >= 0 and the nominal
lower bound is asserted.  For m < n the floor undershoots it by less than
n - m, e.g. u=(1), v=(0,0), eta=1 gives t=(1,0,0) with sigma 1 < 4/3, so
the slack-corrected bound is asserted and that nominal failure must be
reported.  For m < n and eta > 1 no rounding rule can help: at the same
pair the nominal bound and the sandwich's upper bound enclose no integer
([5/4, 5/3] at eta=3/2, [6/5, 3/2] at eta=2), which the test asserts.
"""
import itertools
import math
import time
from fractions import Fraction

import pytest

from ffdioph import (
    DirichletTarget,
    Fq,
    NEG_INF,
    SeriesMatrix,
    TsetParams,
    audit_grid,
    best_error,
    check_bz,
    check_dirichlet_bound,
    check_dyson,
    check_mult_dominance,
    dirichlet_solve,
    estimate,
    intersection_check,
    profile,
    prop_backward_check,
    prop_forward_check,
    tau0,
    tset_enumerate,
    witness_error_degs,
    xi_and_t,
)
from ffdioph.config import ExperimentConfig
from ffdioph.generators import (
    PlantParams,
    cf_series,
    derive_rng,
    lacunary_series,
    plant_membership_pair,
    plant_witness,
    random_series,
)
from ffdioph.limsup import IndexTuple, cell_plane, cell_plane_identity_check
from ffdioph.runner import report_json_bytes, run_config
from ffdioph.generators import solve_matrix_for_residual

F2 = Fq(2)
F3 = Fq(3)


def rand_matrix(field, m, n, seed, floor):
    return SeriesMatrix(
        [
            [random_series(field, floor, derive_rng(seed, "acc", i, j)) for j in range(n)]
            for i in range(m)
        ]
    )


def report(num, ok, text):
    print(f"[A{num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


# -- 1 ----------------------------------------------------------------------


def test_a01_dirichlet_solvability():
    t0 = time.monotonic()
    count = 0
    for i in range(200):
        field = F2 if i % 2 == 0 else F3
        rng = derive_rng(301, "a1", i)
        m, n = rng.randrange(1, 3), rng.randrange(1, 3)
        k = rng.randrange(0, 5)  # sigma(t) = 2k <= 8

        def split(total, parts):
            out, rest = [], total
            for _ in range(parts - 1):
                v = rng.randrange(0, rest + 1)
                out.append(v)
                rest -= v
            out.append(rest)
            return out

        t = DirichletTarget(m, n, tuple(split(k, m) + split(k, n)))
        Y = rand_matrix(field, m, n, 10_000 + i, -40)
        res = dirichlet_solve(Y, t)
        degs = witness_error_degs(Y, None, res.witness)
        assert all(d.value < -t.values[r] for r, d in enumerate(degs)), (i, t)
        assert all(
            q.deg == NEG_INF or q.deg <= t.values[m + j]
            for j, q in enumerate(res.witness.q)
        ), (i, t)
        count += 1
    elapsed = time.monotonic() - t0
    report(1, count == 200 and elapsed < 30, f"200/200 relaxed solves re-verified in {elapsed:.1f}s")


# -- 2 ----------------------------------------------------------------------


def test_a02_oracle_equivalence():
    t0 = time.monotonic()
    matches = 0
    for i in range(50):
        Y = SeriesMatrix([[random_series(F2, -40, derive_rng(302, "a2", i))]])
        for T in range(1, 8):
            k = best_error(Y, None, T, "kernel")
            b = best_error(Y, None, T, "brute")
            assert k.B == b.B, (i, T)
            dk = max(d.value for d in witness_error_degs(Y, None, k.witness))
            db = max(d.value for d in witness_error_degs(Y, None, b.witness))
            assert dk == db, (i, T)
        matches += 1
    elapsed = time.monotonic() - t0
    report(2, matches == 50 and elapsed < 60, f"kernel == brute on 50 matrices x 7 horizons in {elapsed:.1f}s")


# -- 3 ----------------------------------------------------------------------


def test_a03_dirichlet_lower_bound():
    battery = [SeriesMatrix([[cf_series(F2, [1], -40)]]), SeriesMatrix([[lacunary_series(F2, 3, -80)]])]
    battery += [SeriesMatrix([[random_series(F2, -50, derive_rng(303, "a3", i))]]) for i in range(20)]
    battery += [rand_matrix(F2, 1, 2, 20_000 + i, -50) for i in range(5)]
    battery += [rand_matrix(F2, 2, 1, 30_000 + i, -50) for i in range(5)]
    checked = 0
    for Y in battery:
        prof = profile(Y, None, 12 if Y.n == 1 else 10, "standard", "kernel")
        rep = check_dirichlet_bound(prof)
        assert rep.holds, rep.details
        checked += len([e for e in prof.entries if not e.censored])
    report(3, True, f"-B(T) >= T + m - mn on {checked} uncensored entries, zero exceptions")


# -- 4 ----------------------------------------------------------------------


def test_a04_mult_dominance():
    pairs_checked = 0
    for i in range(6):
        Y = SeriesMatrix([[random_series(F2, -40, derive_rng(304, "a4", i))]])
        theta = (random_series(F2, -40, derive_rng(304, "a4t", i)),)
        ps = profile(Y, theta, 10, "standard", "brute")
        pm = profile(Y, theta, 10, "multiplicative")
        rep = check_mult_dominance(ps, pm)
        assert rep.holds, rep.details
        pairs_checked += rep.details["compared"]
    for i in range(6):
        Y = rand_matrix(F2, 1, 2, 40_000 + i, -40)
        theta = (random_series(F2, -40, derive_rng(304, "a4u", i)),)
        ps = profile(Y, theta, 10, "standard", "brute")
        pm = profile(Y, theta, 10, "multiplicative")
        rep = check_mult_dominance(ps, pm)
        assert rep.holds, rep.details
        pairs_checked += rep.details["compared"]
    report(4, True, f"B_mult <= B_std pointwise on {pairs_checked} horizon pairs, zero exceptions")


# -- 5 ----------------------------------------------------------------------


def test_a05_generic_exponent_window():
    t0 = time.monotonic()
    in_range = 0
    for i in range(20):
        Y = SeriesMatrix([[random_series(F2, -80, derive_rng(2024, "gen", i))]])
        est = estimate(profile(Y, None, 40, "standard", "kernel"))
        ok = (
            Fraction(1) <= est.omega_proxy <= Fraction(5, 4)
            and Fraction(1) <= est.omega_hat_proxy <= Fraction(21, 20)
        )
        in_range += ok
    elapsed = time.monotonic() - t0
    report(
        5,
        in_range >= 18 and elapsed < 120,
        f"{in_range}/20 window proxies inside [1,5/4] x [1,21/20] in {elapsed:.1f}s",
    )


# -- 6 ----------------------------------------------------------------------


def test_a06_vwa_lacunary():
    Y = SeriesMatrix([[lacunary_series(F2, 3, -96)]])
    prof = profile(Y, None, 28, "standard", "kernel")
    # brute-force cross-check of the small-horizon anchors
    for T in (2, 4, 10):
        assert prof.entry(T).B == best_error(Y, None, T, "brute").B
    est = estimate(prof)
    report(
        6,
        est.omega_proxy >= Fraction(3, 2),
        f"lacunary base-3 omega proxy = {est.omega_proxy} >= 3/2",
    )


# -- 7 ----------------------------------------------------------------------


def _grid(m, n, budget):
    """Every (u, v) with u in N^m, v in N^n and sigma(u) + sigma(v) <= budget."""
    for w in itertools.product(range(budget + 1), repeat=m + n):
        if sum(w) <= budget:
            yield w[:m], w[m:]


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("eta", [Fraction(1), Fraction(3, 2), Fraction(2)])
def test_a07_grid_inequalities(dims, eta):
    t0 = time.monotonic()
    m, n = dims
    params = TsetParams(m, n, eta)
    rep = audit_grid(params, 20)

    def nominal(su, sv):
        return (eta + 1) * (n * su + m * sv) / (m + eta * n)

    # exact identity of the floor rule on every accepted pair
    accepted, empty_intervals, identity_failures, negative = 0, 0, [], []
    for u, v in _grid(m, n, 20):
        got = xi_and_t(u, v, params)
        if got is None:
            continue
        accepted += 1
        xi, it = got
        su, sv = sum(u), sum(v)
        if it.sigma != nominal(su, sv) + (m - n) * (xi - math.floor(xi)):
            identity_failures.append((u, v, it.t))
        if it.sigma < 0:
            negative.append((u, v, it.t))
        if math.ceil(nominal(su, sv)) > math.floor((eta + 1) / eta * su):
            empty_intervals += 1
    ok = (
        accepted == rep.details["accepted"]
        and not identity_failures
        and not negative
        and not rep.details["sandwich_failures"]
    )
    nominal_failures = rep.details["nominal_lower_bound_failures"]
    if m >= n:
        ok = ok and rep.holds
        bound, detail = "nominal", ""
        if nominal_failures:
            detail = f"; nominal lower bound fails first at (u,v,t)={nominal_failures[0]}"
    else:
        # u=(1,0..), v=0 gives xi = 1/(m+eta*n) in (0, 1), so t = (u, v)
        # with sigma 1, below the nominal bound n*(eta+1)/(m+eta*n)
        u0, v0 = (1,) + (0,) * (m - 1), (0,) * n
        witness = (u0, v0, u0 + v0)
        ok = (
            ok
            and not rep.details["corrected_lower_bound_failures"]
            and witness in nominal_failures
        )
        bound = f"corrected, slack n-m={n - m}"
        detail = f"; nominal fails on {len(nominal_failures)} pairs, e.g. (u,v,t)={witness}"
        if eta > 1:
            # no integer sigma(t) meets both the nominal bound and the sandwich
            lo, hi = nominal(1, 0), (eta + 1) / eta
            ok = ok and math.ceil(lo) > math.floor(hi)
            detail += (
                f"; no integer in [{lo}, {hi}] at u={u0}, v={v0} "
                f"({empty_intervals} pairs with an empty integer interval)"
            )
    en = tset_enumerate(params, 12)
    levels_finite = all(c > 0 for _, c in en.partial_sum_terms())
    elapsed = time.monotonic() - t0
    ok = ok and levels_finite and elapsed < 30
    if identity_failures:
        detail += f"; sigma identity fails first at (u,v,t)={identity_failures[0]}"
    report(
        7,
        ok,
        f"m={m} n={n} eta={eta}: over sigma(u)+sigma(v)<=20, {accepted} pairs, "
        f"sandwich, sigma>=0 and exact sigma identity checked, lower bound {bound}, "
        f"levels finite={levels_finite}{detail}",
    )


# -- 8 ----------------------------------------------------------------------


def test_a08_forward_backward():
    shapes = [(1, 1), (1, 2), (2, 1)]
    etas = [Fraction(1), Fraction(3, 2), Fraction(2)]
    hard = 0
    backward_checked = 0
    shifted_only = 0
    for i in range(100):
        m, n = shapes[i % 3]
        eta = etas[(i // 3) % 3]
        eps = Fraction(1) if i % 2 == 0 else Fraction(1, 2)
        params = TsetParams(m, n, eta)
        t0v = tau0(eps, params)
        tau = t0v / 2
        inst = plant_witness(PlantParams(F2 if i % 2 else F3, m, n, eta, eps, 4, -80), 500 + i)
        fwd = prop_forward_check(inst.Y, inst.theta, inst.alpha, inst.T, eta, eps, tau)
        ok = (
            fwd.holds
            and fwd.details["xi_exceeds_tau0_sigma"]
            and (fwd.details["member_standard"] or fwd.details["member_shifted"])
        )
        if ok and fwd.details["member_standard"]:
            # the backward direction consumes plain-diagonal memberships;
            # shifted-only instances are the recorded marginal cases
            bwd = prop_backward_check(
                inst.Y, inst.theta, fwd.details["t"], inst.alpha, tau, eta
            )
            ok = bwd.holds and bwd.details["eps_prime"] == m * tau * (eta + 1) > 0
            backward_checked += 1
        elif ok:
            shifted_only += 1
        hard += not ok
    report(
        8,
        hard == 0 and backward_checked >= 80,
        f"100 planted witnesses: {backward_checked} round-trips recovered premises, "
        f"{shifted_only} held in the shifted scaling only, {hard} hard failures",
    )


# -- 9 ----------------------------------------------------------------------


def test_a09_intersection_property():
    etas = [Fraction(1), Fraction(3, 2), Fraction(2)]
    failures = 0
    for i in range(100):
        field = F2 if i % 2 else F3
        pair = plant_membership_pair(field, etas[i % 3], 900 + i, -80)
        rep = intersection_check(
            pair.Y, pair.theta, pair.t, pair.alpha, pair.alpha2, pair.tau
        )
        if not (rep.holds and not rep.details["q_diff_zero"]):
            failures += 1
    report(9, failures == 0, f"100 membership pairs: difference membership exact, {failures} exceptions")


# -- 10 ---------------------------------------------------------------------


def test_a10_plane_identity():
    agreements = 0
    total = 0
    for inst in range(20):
        pair = plant_membership_pair(F2 if inst % 2 else F3, Fraction(1), 7000 + inst, -80)
        t, alpha, theta, tau = pair.t, pair.alpha, pair.theta, pair.tau
        gate_breaker = inst % 4 == 3
        if gate_breaker:
            degs = [q.deg if q.deg != NEG_INF else 0 for q in alpha.q]
            t = IndexTuple.of((t.t[0],) + tuple(int(d) for d in degs))
        field = pair.Y.field
        plane = cell_plane(theta, t, alpha, tau)
        for s in range(100):
            if s % 2 == 0 and not gate_breaker:
                depth = t.t[0] + 4
                deltas = [
                    random_series(field, -80, derive_rng(7000 + inst, "pd", s)).shift(-depth)
                ]
                Y = solve_matrix_for_residual(
                    field, alpha.q, alpha.p, theta, deltas, -80, 81_000 + inst * 101 + s, "pY"
                )
            else:
                Y = rand_matrix(field, 1, 2, 90_000 + inst * 101 + s, -80)
            rep = cell_plane_identity_check(Y, plane)
            total += 1
            agreements += bool(rep.holds)
    report(10, agreements == total, f"plane identity agreement {agreements}/{total} across 20 instances")


# -- 11 ---------------------------------------------------------------------


def test_a11_bz_dyson_diagnostics():
    # F_3 keeps the window proxies concentrated near 1 (spikes cost q^-j),
    # which is what this finite-horizon diagnostic wants to exhibit
    both_hold = 0
    for i in range(20):
        Y = rand_matrix(F3, 1, 2, 60_000 + i, -60)
        theta = (random_series(F3, -60, derive_rng(311, "a11", i)),)
        hom_t = profile(Y.transpose(), None, 24)
        bz = check_bz(profile(Y, theta, 24), hom_t, Fraction(3, 10))
        dy = check_dyson(profile(Y, None, 24), hom_t, Fraction(1, 4))
        if bz.holds and dy.holds:
            both_hold += 1
    report(11, both_hold >= 18, f"bz+dyson diagnostics hold on {both_hold}/20 instances (labeled diagnostic)")


# -- 12 ---------------------------------------------------------------------


def test_a12_determinism_across_workers():
    base = {
        "suite": "limsup",
        "instances": 4,
        "dims": [1, 1],
        "plane_samples": 4,
        "floor": -60,
        "T_max": 8,
        "seed": 23,
    }
    blobs = set()
    for w in (1, 4, 8):
        cfg = ExperimentConfig.from_dict(dict(base, workers=w))
        rep, code = run_config(cfg)
        assert code == 0
        blobs.add(report_json_bytes(rep))
    report(12, len(blobs) == 1, "byte-identical reports with 1, 4 and 8 workers")


@pytest.mark.parametrize("field", ["p=2,d=2", "p=3,d=2"])
def test_a12_extension_fields_across_workers(field):
    # the field, lookup tables included, travels to the workers in the config
    base = {
        "suite": "estimate",
        "field": field,
        "instances": 4,
        "dims": [1, 1],
        "T_max": 10,
        "floor": -30,
        "seed": 29,
    }
    blobs = set()
    for w in (1, 4):
        rep, code = run_config(ExperimentConfig.from_dict(dict(base, workers=w)))
        assert code == 0
        blobs.add(report_json_bytes(rep))
    report(12, len(blobs) == 1, f"byte-identical {field} reports with 1 and 4 workers")
