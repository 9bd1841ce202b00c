import itertools
import json
import math
from fractions import Fraction

import pytest

from ffdioph import (
    DegValue,
    Fq,
    IndexTuple,
    LaurentSeries,
    NEG_INF,
    PlaneSpec,
    Poly,
    PrecisionExhaustedError,
    PreconditionError,
    SeriesMatrix,
    TsetParams,
    Witness,
    audit_grid,
    cell_plane,
    cell_plane_identity_check,
    delta_membership,
    intersection_check,
    parse_poly_literal,
    parse_series_literal,
    plane_member,
    prop_backward_check,
    prop_forward_check,
    tau0,
    tset_enumerate,
    witness_extract_uv,
    xi_and_t,
)
from ffdioph import limsup as limsup_module
from ffdioph import runner
from ffdioph.approx import witness_error_degs
from ffdioph.config import ExperimentConfig
from ffdioph.generators import (
    PlantParams,
    derive_rng,
    generate_matrix,
    plant_membership_pair,
    plant_witness,
    random_poly,
    random_series,
    solve_matrix_for_residual,
)
from ffdioph.matrix import matvec_affine, prod_plus_deg
from ffdioph.series import deg_lt, deg_max, deg_sum
from ffdioph.transference import CheckReport

F2 = Fq(2)
ONE = Poly.one(F2)
ZERO = Poly.zero(F2)
X = parse_poly_literal("X", F2)


def S(text, floor=NEG_INF):
    return parse_series_literal(text, F2, floor)


def single(entry):
    return SeriesMatrix([[entry]])


# ---------------------------------------------------------------------------
# the index tuple family
# ---------------------------------------------------------------------------


def test_xi_and_t_examples():
    p = TsetParams(1, 1, Fraction(1))
    xi, it = xi_and_t((3,), (1,), p)
    assert xi == 1 and it.t == (2, 2) and it.sigma == 4
    xi, it = xi_and_t((2,), (2,), p)
    assert xi == 0 and it.t == (2, 2)
    # the sandwich is tight here
    eta = Fraction(1)
    assert (eta + 1) * 2 == it.sigma == (eta + 1) / eta * 2


def test_xi_and_t_dual_example():
    p = TsetParams(2, 1, Fraction(1), "dual")
    xi, it = xi_and_t(3, 1, p)
    assert xi == Fraction(5, 3)
    assert it.t == (2, 2, 2)


def test_xi_rejection():
    p = TsetParams(1, 1, Fraction(2))
    assert xi_and_t((1,), (1,), p) is None
    assert xi_and_t(1, 1, TsetParams(1, 1, Fraction(2), "dual")) is None


def test_tau0_examples():
    assert tau0(Fraction(1), TsetParams(1, 1, Fraction(1))) == Fraction(1, 8)
    assert tau0(Fraction(2), TsetParams(1, 1, Fraction(1))) == Fraction(1, 8)
    assert tau0(Fraction(1, 2), TsetParams(1, 2, Fraction(2))) == Fraction(1, 60)


def brute_tuples(params, sigma_bound, box):
    """Independent oracle: scan a large (u, v) box directly."""
    found = set()
    if params.mode == "dual":
        for u in range(box + 1):
            for v in range(box + 1):
                got = xi_and_t(u, v, params)
                if got and got[1].sigma <= sigma_bound:
                    found.add(got[1].t)
        return found
    for u in itertools.product(range(box + 1), repeat=params.m):
        for v in itertools.product(range(box + 1), repeat=params.n):
            got = xi_and_t(u, v, params)
            if got and got[1].sigma <= sigma_bound:
                found.add(got[1].t)
    return found


@pytest.mark.parametrize(
    "m,n,eta",
    [(1, 1, Fraction(1)), (1, 2, Fraction(3, 2)), (2, 1, Fraction(2))],
)
def test_enumeration_matches_box_oracle(m, n, eta):
    params = TsetParams(m, n, eta)
    en = tset_enumerate(params, 6)
    assert {it.t for it in en.tuples} == brute_tuples(params, 6, 14)
    assert all(it.sigma >= 0 for it in en.tuples)


def test_enumeration_dual_mode():
    params = TsetParams(2, 1, Fraction(1), "dual")
    en = tset_enumerate(params, 8)
    assert {it.t for it in en.tuples} == brute_tuples(params, 8, 12)


def test_enumeration_level_counts():
    en = tset_enumerate(TsetParams(1, 1, Fraction(1)), 4)
    # u + v is preserved by the tuple map, one distinct tuple per level
    assert en.partial_sum_terms() == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]
    assert all(count < math.inf for _, count in en.partial_sum_terms())


def test_enumeration_empty_below_zero():
    en = tset_enumerate(TsetParams(1, 1, Fraction(1)), -1)
    assert en.tuples == ()


def test_grid_inequalities_exhaustive_small():
    for m, n in ((1, 1), (2, 1)):
        for eta in (Fraction(1), Fraction(3, 2), Fraction(2)):
            rep = audit_grid(TsetParams(m, n, eta), 10)
            assert rep.holds, (m, n, eta)
            assert not rep.details["corrected_lower_bound_failures"]


def test_grid_lower_bound_gap_when_wider_than_tall():
    # the nominal lower bound undershoots for m < n: u=(1), v=(0,0) maps to
    # t=(1,0,0) with sigma 1 < 4/3; the slack-corrected bound still holds
    rep = audit_grid(TsetParams(1, 2, Fraction(1)), 10)
    assert not rep.holds
    assert ((1,), (0, 0), (1, 0, 0)) in rep.details["nominal_lower_bound_failures"]
    assert not rep.details["sandwich_failures"]
    assert not rep.details["corrected_lower_bound_failures"]
    got = xi_and_t((1,), (0, 0), TsetParams(1, 2, Fraction(1)))
    assert got[1].sigma == 1  # versus the nominal target of 4/3


def test_grid_audit_dual_sums_are_m_u_and_n_v():
    # in dual mode u and v stand for (u,)*m and (v,)*n: an oracle over the
    # expanded tuples gives the audit's failure lists, in the audit's order
    for m, n in ((1, 2), (3, 2)):
        params = TsetParams(m, n, Fraction(3, 2), "dual")
        eta = params.eta
        nominal, sandwich = [], []
        for u in range(17):
            for v in range(17):
                got = xi_and_t(u, v, params) if m * u + n * v <= 16 else None
                if got is None:
                    continue
                st, su, sv = got[1].sigma, sum((u,) * m), sum((v,) * n)
                if st < (eta + 1) * (n * su + m * sv) / (m + eta * n):
                    nominal.append((u, v, got[1].t))
                if not ((eta + 1) * sv <= st and st * eta <= (eta + 1) * su):
                    sandwich.append((u, v, got[1].t))
        rep = audit_grid(params, 16)
        assert rep.details["nominal_lower_bound_failures"] == nominal
        assert rep.details["sandwich_failures"] == sandwich
        assert bool(nominal) == (m < n)


# ---------------------------------------------------------------------------
# cell membership
# ---------------------------------------------------------------------------


def test_delta_membership_examples():
    Y0 = single(LaurentSeries.zero(F2))
    t = IndexTuple.of((2, 2))
    r = delta_membership(Y0, None, t, Witness((ZERO,), (ONE,)), Fraction(1, 8))
    assert r.deg.value == -2 and r.member
    r = delta_membership(Y0, None, t, Witness((ZERO,), (X,)), Fraction(1, 8))
    assert r.deg.value == -1 and r.member
    r = delta_membership(Y0, None, t, Witness((X,), (ONE,)), Fraction(1, 8))
    assert r.deg.value == 3 and not r.member


# ---------------------------------------------------------------------------
# forward direction
# ---------------------------------------------------------------------------


def test_witness_extract_example():
    Y = single(S("X^-9"))
    alpha = Witness((ZERO,), (parse_poly_literal("X^2", F2),))
    u, v = witness_extract_uv(Y, None, alpha, 3, Fraction(1), Fraction(1))
    assert u == (6,) and v == (2,)
    # downstream quantities from the same instance
    xi, it = xi_and_t(u, v, TsetParams(1, 1, Fraction(1)))
    assert xi == 2 and it.t == (4, 4)
    assert sum(u) - 1 * sum(v) > 1 * sum(v) - sum(v)  # strict acceptance margin


def test_witness_extract_zero_row():
    Y = single(S("X^-1"))
    alpha = Witness((ONE,), (X,))  # exact hit
    u, v = witness_extract_uv(Y, None, alpha, 3, Fraction(1), Fraction(1))
    assert u == (6,) and v == (1,)  # envelope from the premise cutoff


def test_witness_extract_constant_q():
    Y = single(S("X^-8"))
    alpha = Witness((ZERO,), (ONE,))  # deg q = 0 -> size envelope 0
    _, v = witness_extract_uv(Y, None, alpha, 3, Fraction(1), Fraction(1))
    assert v == (0,)


def test_witness_extract_premise_errors():
    Y = single(S("X^-2"))
    alpha = Witness((ZERO,), (ONE,))
    with pytest.raises(PreconditionError):
        witness_extract_uv(Y, None, alpha, 3, Fraction(1), Fraction(1))


def test_forward_example():
    Y = single(S("X^-9"))
    alpha = Witness((ZERO,), (parse_poly_literal("X^2", F2),))
    rep = prop_forward_check(
        Y, None, alpha, 3, Fraction(1), Fraction(1), Fraction(1, 16)
    )
    assert rep.holds
    d = rep.details
    assert d["t"].t == (4, 4) and d["xi"] == 2 and d["tau0"] == Fraction(1, 8)
    assert d["member_standard"] and d["member_shifted"]
    assert not d["threshold_exempt"]


def test_forward_shifted_membership_is_one_lower():
    # eta 3/2, eps 1/4, T 1: u = 2, v = 0, xi = 4/5, so t = (2, 0) and the
    # largest scaled coordinate is exactly 0.  The tuple's own scaling misses
    # the threshold -tau*sigma = -1/50; the rescaled diagonal, one lower,
    # clears it.
    Y = single(S("X^-2"))
    alpha = Witness((ZERO,), (ONE,))
    eta, eps = Fraction(3, 2), Fraction(1, 4)
    tau = tau0(eps, TsetParams(1, 1, eta)) / 2
    rep = prop_forward_check(Y, None, alpha, 1, eta, eps, tau)
    d = rep.details
    assert d["t"].t == (2, 0)
    assert d["member_shifted"] and not d["member_standard"]
    assert rep.holds and rep.note == ""
    mem = delta_membership(Y, None, d["t"], alpha, tau)
    assert mem.deg == DegValue(0) and mem.threshold == Fraction(-1, 50)
    assert not mem.member and mem.deg.value - 1 < mem.threshold


def test_forward_requires_small_tau():
    Y = single(S("X^-9"))
    alpha = Witness((ZERO,), (parse_poly_literal("X^2", F2),))
    with pytest.raises(PreconditionError):
        prop_forward_check(Y, None, alpha, 3, Fraction(1), Fraction(1), Fraction(1, 2))


def test_forward_records_threshold_exemption():
    # a short-horizon planted witness lands below the sigma cutoff: the
    # report carries the exempt status even though membership succeeds
    inst = plant_witness(PlantParams(F2, 1, 1, Fraction(1), Fraction(1), 1, -60), 5)
    t0 = tau0(inst.eps, TsetParams(1, 1, inst.eta))
    rep = prop_forward_check(
        inst.Y, inst.theta, inst.alpha, inst.T, inst.eta, inst.eps, t0 / 2
    )
    assert rep.holds
    assert rep.details["sigma"] < 8
    assert rep.details["threshold_exempt"]


def test_forward_eps_enters_through_min_only():
    # raising eps above eta changes tau0 only through the min, so the
    # accepted tuple keeps clearing the same slope test
    p = TsetParams(1, 1, Fraction(1))
    assert tau0(Fraction(1), p) == tau0(Fraction(5), p) == Fraction(1, 8)
    xi, it = xi_and_t((6,), (2,), p)
    assert xi > tau0(Fraction(5), p) * it.sigma


# ---------------------------------------------------------------------------
# backward direction
# ---------------------------------------------------------------------------


def test_backward_example():
    # membership degree -2 at t = (2, 2): row block sums to -3
    Y = single(S("X^-5"))
    alpha = Witness((ZERO,), (ONE,))
    t = IndexTuple.of((2, 2))
    rep = prop_backward_check(Y, None, t, alpha, Fraction(1, 8), Fraction(1))
    assert rep.holds
    d = rep.details
    assert d["T_prime"] == 2
    assert d["eps_prime"] == Fraction(1, 4)  # m * tau * (eta + 1)
    assert d["row_block_deg"].value == -3
    assert d["row_bound_ok"] and d["q_bound_ok"]


def test_backward_zero_coordinate_restriction():
    # a zero q coordinate drops out of the scaled size product
    Y = SeriesMatrix([[S("X^-9"), S("X^-7")]])
    alpha = Witness((ZERO,), (X, ZERO))
    t = IndexTuple.of((4, 2, 2))
    rep = prop_backward_check(Y, None, t, alpha, Fraction(1, 16), Fraction(1))
    assert rep.details["q_block_deg"] == 1 - 2  # only the nonzero coordinate


def test_backward_requires_membership():
    Y = single(S("X^-1"))
    alpha = Witness((ZERO,), (ONE,))
    with pytest.raises(PreconditionError):
        prop_backward_check(
            Y, None, IndexTuple.of((2, 2)), alpha, Fraction(1, 8), Fraction(1)
        )


def test_forward_backward_roundtrip_planted():
    for seed in range(8):
        inst = plant_witness(
            PlantParams(F2, 1, 1, Fraction(1), Fraction(1), 3, -60), seed
        )
        t0 = tau0(inst.eps, TsetParams(1, 1, inst.eta))
        fwd = prop_forward_check(
            inst.Y, inst.theta, inst.alpha, inst.T, inst.eta, inst.eps, t0 / 2
        )
        assert fwd.holds and fwd.details["member_standard"]
        bwd = prop_backward_check(
            inst.Y, inst.theta, fwd.details["t"], inst.alpha, t0 / 2, inst.eta
        )
        assert bwd.holds
        assert bwd.details["eps_prime"] > 0


def _planted(field, m, n, eta, eps, T, seed):
    """A planted premise witness and the default slope tau0 / 2."""
    inst = plant_witness(PlantParams(field, m, n, eta, eps, T, -60), seed)
    return inst, tau0(inst.eps, TsetParams(m, n, inst.eta)) / 2


def test_each_check_multiplies_its_witness_out_once(monkeypatch):
    # planted first: the plant re-verifies its premises through limsup too
    inst, tau = _planted(F2, 1, 1, Fraction(1), Fraction(1), 3, 0)
    calls = []
    real = limsup_module.witness_error_degs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(limsup_module, "witness_error_degs", counting)
    fwd = prop_forward_check(
        inst.Y, inst.theta, inst.alpha, inst.T, inst.eta, inst.eps, tau
    )
    assert len(calls) == 1 and fwd.details["member_standard"]
    prop_backward_check(inst.Y, inst.theta, fwd.details["t"], inst.alpha, tau, inst.eta)
    assert len(calls) == 2


def _oracle_membership(Y, theta, t, alpha, tau, lower):
    """Cell membership from a product of its own: rows raised by t_i, q_j
    lowered by t_(m+j), and `lower` subtracted from the largest coordinate."""
    degs = witness_error_degs(Y, theta, alpha)
    coords = [d.shift(t.t[j]) for j, d in enumerate(degs)]
    for i, qi in enumerate(alpha.q):
        if qi.deg == NEG_INF:
            coords.append(DegValue(NEG_INF, False))
        else:
            coords.append(DegValue(qi.deg - t.t[Y.m + i], False))
    return deg_lt(deg_max(coords).shift(-lower), -tau * t.sigma)


def _oracle_forward(Y, theta, alpha, T, eta, eps, tau, sigma_threshold=8):
    params = TsetParams(Y.m, Y.n, eta)
    t0 = tau0(eps, params)
    u, v = witness_extract_uv(Y, theta, alpha, T, eta, eps)
    xi, it = xi_and_t(u, v, params)
    xi_ok = xi > t0 * it.sigma
    member_standard = _oracle_membership(Y, theta, it, alpha, tau, 0)
    member_shifted = _oracle_membership(Y, theta, it, alpha, tau, 1)
    member_ok = member_standard or member_shifted
    exempt = it.sigma < sigma_threshold
    details = {
        "u": u,
        "v": v,
        "xi": xi,
        "t": it,
        "sigma": it.sigma,
        "tau0": t0,
        "xi_exceeds_tau0_sigma": xi_ok,
        "member_standard": member_standard,
        "member_shifted": member_shifted,
        "threshold_exempt": exempt,
    }
    note = "threshold-exempt" if exempt and not member_ok else ""
    return CheckReport(
        "forward_inclusion", xi_ok and (member_ok or exempt), True,
        details=details, note=note,
    )


def _oracle_backward(Y, theta, t, alpha, tau, eta):
    assert _oracle_membership(Y, theta, t, alpha, tau, 0)
    m, n, sigma = Y.m, Y.n, t.sigma
    degs = witness_error_degs(Y, theta, alpha)
    row_block = deg_sum(d.shift(t.t[j]) for j, d in enumerate(degs))
    q_block = sum(
        qi.deg - t.t[m + i] for i, qi in enumerate(alpha.q) if qi.deg != NEG_INF
    )
    T_prime = Fraction(sigma) / (eta + 1)
    eps_prime = m * tau * (eta + 1)
    details = {
        "row_block_deg": row_block,
        "q_block_deg": q_block,
        "T_prime": T_prime,
        "eps_prime": eps_prime,
        "row_bound_ok": deg_lt(row_block, -m * tau * sigma),
        "q_bound_ok": q_block < -n * tau * sigma,
        "product_premise_ok": deg_lt(deg_sum(degs), -(eta + eps_prime) * T_prime),
        "plus_product_premise_ok": prod_plus_deg(alpha.q) < T_prime,
    }
    flags = [v for k, v in details.items() if k.endswith("_ok")]
    return CheckReport("backward_inclusion", all(flags), True, details=details)


def _report_bytes(rep):
    return json.dumps(runner.jsonable(rep), sort_keys=True)


@pytest.mark.parametrize("field", [F2, Fq(3)], ids=["F2", "F3"])
def test_checks_match_separate_products(field):
    # the checks read one product each; the oracle multiplies out every
    # membership, envelope and block bound on its own.  Short horizons and
    # eps 1/4 plant shifted-only members, which skip the backward check.
    shifted_only = backward = 0
    for (m, n), eta, eps, T, seed in itertools.product(
        [(1, 1), (1, 2), (2, 1)],
        [Fraction(1), Fraction(3, 2), Fraction(2)],
        [Fraction(1), Fraction(1, 4)],
        [1, 3],
        range(2),
    ):
        inst, tau = _planted(field, m, n, eta, eps, T, seed)
        args = (inst.Y, inst.theta, inst.alpha, inst.T, inst.eta, inst.eps, tau)
        fwd = prop_forward_check(*args)
        assert _report_bytes(fwd) == _report_bytes(_oracle_forward(*args))
        d = fwd.details
        if d["member_standard"]:
            back = (inst.Y, inst.theta, d["t"], inst.alpha, tau, inst.eta)
            bwd = prop_backward_check(*back)
            assert _report_bytes(bwd) == _report_bytes(_oracle_backward(*back))
            backward += 1
        else:
            shifted_only += d["member_shifted"]
    assert backward > 0 and shifted_only > 0


# ---------------------------------------------------------------------------
# intersection property
# ---------------------------------------------------------------------------


def test_intersection_example():
    Y0 = single(LaurentSeries.zero(F2))
    t = IndexTuple.of((2, 2))
    rep = intersection_check(
        Y0, None, t, Witness((ZERO,), (ONE,)), Witness((ZERO,), (X,)), Fraction(1, 8)
    )
    assert rep.holds
    assert rep.details["difference_deg"].value == -1


def test_intersection_equal_witnesses_rejected():
    Y0 = single(LaurentSeries.zero(F2))
    a = Witness((ZERO,), (ONE,))
    with pytest.raises(ValueError):
        intersection_check(Y0, None, IndexTuple.of((2, 2)), a, a, Fraction(1, 8))


def test_intersection_degenerate_equal_q():
    # equal q parts need a negative row scale for both memberships to hold
    Y0 = single(LaurentSeries.zero(F2))
    t = IndexTuple.of((-1, 5))
    a1 = Witness((ZERO,), (ONE,))
    a2 = Witness((ONE,), (ONE,))
    rep = intersection_check(Y0, None, t, a1, a2, Fraction(1, 16))
    assert rep.holds
    assert rep.details["q_diff_zero"]
    assert rep.details["contradicted_coords"] == []
    assert "degenerate" in rep.note


def test_intersection_ultrametric_closure_planted():
    for seed in range(10):
        pair = plant_membership_pair(F2, Fraction(1), seed, -80)
        rep = intersection_check(
            pair.Y, pair.theta, pair.t, pair.alpha, pair.alpha2, pair.tau
        )
        assert rep.holds and not rep.details["q_diff_zero"]


# ---------------------------------------------------------------------------
# plane neighbourhood identity
# ---------------------------------------------------------------------------


def test_plane_spec_requires_unit_direction():
    with pytest.raises(ValueError):
        PlaneSpec((S("X"),), (S("0"),), (0,))


def test_plane_member_origin():
    spec = PlaneSpec((S("1"),), (LaurentSeries.zero(F2),), (0,))
    Y0 = single(LaurentSeries.zero(F2))
    assert plane_member(Y0, spec)
    assert plane_member(Y0, spec, Fraction(-5))


def test_plane_identity_example_member_and_not():
    t = IndexTuple.of((0, 4))
    alpha = Witness((ZERO,), (X,))
    member = cell_plane_identity_check(single(S("X^-4")), cell_plane(None, t, alpha, Fraction(1, 2)))
    assert member.holds and member.details["cell_member"]
    non = cell_plane_identity_check(single(S("X^-1")), cell_plane(None, t, alpha, Fraction(1, 2)))
    assert non.holds and not non.details["cell_member"]
    assert member.details["gate"] and non.details["gate"]


def test_plane_identity_empty_gate():
    t = IndexTuple.of((2, 2))
    alpha = Witness((ZERO,), (X,))
    for text in ("X^-4", "X^-1", "0"):
        rep = cell_plane_identity_check(single(S(text)), cell_plane(None, t, alpha, Fraction(1, 2)))
        assert rep.holds
        assert not rep.details["gate"] and not rep.details["cell_member"]


def test_plane_identity_rejects_zero_q():
    from types import SimpleNamespace

    fake = SimpleNamespace(p=(ZERO,), q=(ZERO,))  # Witness itself forbids this
    with pytest.raises(ValueError):
        cell_plane_identity_check(
            single(S("X^-1")), cell_plane(None, IndexTuple.of((2, 2)), fake, Fraction(1, 2))
        )


def _outcome(route):
    try:
        return route()
    except PrecisionExhaustedError:
        return "censored"


@pytest.mark.parametrize("field", [Fq(2), Fq(3)], ids=["F2", "F3"])
def test_plane_check_on_cut_inputs_matches_uncut_routes(field):
    seen = {True: 0, False: 0, "censored": 0}
    for inst in range(6):
        pair = plant_membership_pair(field, Fraction(1), 400 + inst, -60)
        t, alpha, theta, tau = pair.t, pair.alpha, pair.theta, pair.tau
        if inst % 3 == 2:  # gate breaker, as in the runner's plane block
            degs = [q.deg if q.deg != NEG_INF else 0 for q in alpha.q]
            t = IndexTuple.of((t.t[0],) + tuple(int(d) for d in degs))
        plane = cell_plane(theta, t, alpha, tau)
        samples = []
        # solved residuals whose degrees straddle the row threshold
        for k, depth in enumerate(range(t.t[0] - 1, t.t[0] + 6)):
            delta = random_series(field, -60, derive_rng(inst, "pd", k)).shift(-depth)
            Y = solve_matrix_for_residual(
                field, alpha.q, alpha.p, theta, [delta], -60, 10 * inst + k, "pY"
            )
            exact = SeriesMatrix(
                [[LaurentSeries.from_terms(field, s.terms()) for s in Y.rows[0]]]
            )
            samples += [Y, exact]
        for k, floor in enumerate((-60, -60, -3, -2)):  # the last two above the cut
            samples.append(generate_matrix({"kind": "random"}, field, 1, 2, floor, inst, f"r{k}"))
        for Y in samples:
            rep = _outcome(lambda: cell_plane_identity_check(Y, plane))
            cell = _outcome(lambda: delta_membership(Y, theta, t, alpha, tau).member)
            plane_route = _outcome(
                lambda: plane.gate and plane_member(Y, plane.spec, plane.log_delta)
            )
            if "censored" in (cell, plane_route):
                assert rep == "censored"
            else:
                assert rep.details["cell_member"] == cell
                assert rep.details["plane_member"] == plane_route
            seen[cell] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_residual_solver_divides_past_any_margin():
    # p of degree 12, far above the pivot q of degree 1
    F = Fq(2)
    q = (parse_poly_literal("X + 1", F),)
    p = (parse_poly_literal("X^12", F),)
    theta = (random_series(F, -40, derive_rng(1, "t")),)
    deltas = (random_series(F, -40, derive_rng(1, "d")).shift(-5),)
    Y = solve_matrix_for_residual(F, q, p, theta, deltas, -40, 3)
    (row,) = matvec_affine(Y, q, p, theta)
    assert Y.entry(0, 0).floor == -40
    assert row == deltas[0].truncate(row.floor)
    assert row.deg() == deltas[0].deg() == DegValue(-7)


def _deep_plane_sample(cfg, F, pair, idx, s, floor):
    # a plane block's sample s as drawn to `floor`, solved with the pair's
    # uncut theta: the draws that _plane_block cuts short
    pm, pn = pair.Y.m, pair.Y.n
    alpha = pair.alpha
    if s % 2 == 0 and idx % 2 == 0:
        depth = max(pair.t.t[:pm]) + 4
        deltas = [
            random_series(F, floor, derive_rng(cfg.seed, "plane-d", idx, s, i)).shift(-depth)
            for i in range(pm)
        ]
        seed = cfg.seed * 49979687 + idx * 1009 + s
        return solve_matrix_for_residual(
            F, alpha.q, alpha.p, pair.theta, deltas, floor, seed, "plane-Y"
        )
    return generate_matrix(
        {"kind": "random"}, F, pm, pn, floor, cfg.seed, f"plane-rand/{idx}/{s}"
    )


@pytest.mark.parametrize(
    "config, below_floor",
    [({"field": "p=2"}, False), ({"field": "p=3"}, False), ({"eta": "16", "floor": -110}, True)],
    ids=["F2", "F3", "eta16-deep"],
)
def test_plane_block_samples_check_as_deep_draws(config, below_floor, monkeypatch):
    # every Y the runner's plane block checks, gate breakers (odd idx) and
    # solved members alike, gives the check's answer on a deeper draw.  At
    # eta 16 the pair is planted below cfg.floor and its planes reach past
    # it: the draw follows the plane there, not cfg.floor
    cfg = ExperimentConfig.from_dict({"suite": "limsup", "seed": 5, "plane_samples": 6, **config})
    F = cfg.fq()
    check = runner.cell_plane_identity_check
    seen = []

    def recording_check(Y, plane):
        seen.append((Y, plane))
        return check(Y, plane)

    monkeypatch.setattr(runner, "cell_plane_identity_check", recording_check)
    below = members = 0
    for idx in range(6):
        pair = plant_membership_pair(F, cfg.eta, cfg.seed * 32452843 + idx, cfg.floor)
        seen.clear()
        runner._plane_block(cfg, F, pair, idx)
        assert seen
        for s, (Y, plane) in enumerate(seen):
            draw = plane.floor - max(max(q.deg, 0) for q in pair.alpha.q)
            assert min(e.floor for row in Y.rows for e in row) == draw
            below += draw < cfg.floor
            deep = _deep_plane_sample(cfg, F, pair, idx, s, min(draw, cfg.floor) - 8)
            got = _outcome(lambda: check(Y, plane))
            want = _outcome(lambda: check(deep, plane))
            if want == "censored":
                assert got == "censored"
                continue
            assert (got.holds, got.details) == (want.holds, want.details)
            members += want.details["cell_member"]
    assert members > 0
    assert (below > 0) == below_floor


@pytest.mark.parametrize("eta", ["16", "32"])
@pytest.mark.parametrize("floor", [-80, -120])
def test_high_eta_limsup_loses_no_instance(eta, floor):
    # the planted rows lie below the config's floor at these levels: the
    # generators plant deep enough themselves, so every instance is checked
    cfg = ExperimentConfig.from_dict(
        {"suite": "limsup", "eta": eta, "floor": floor, "instances": 20}
    )
    report, code = runner.run_config(cfg)
    assert code == 0
    assert report["summary"]["precision_exhausted"] == 0
    assert report["summary"]["hard_failures"] == 0


@pytest.mark.parametrize("field", [Fq(2), Fq(3)], ids=["F2", "F3"])
def test_residual_solver_reads_theta_to_floor_plus_pivot_degree(field):
    # the pivot division reads theta and the deltas down to floor + deg q_pivot
    def cut_at(x, c):
        return tuple(s.truncate(c) for s in x)

    for k in range(8):
        rng = derive_rng(k, "solver-depth")
        q = tuple(random_poly(field, rng.randrange(0, 4), rng) for _ in range(2))
        p = (random_poly(field, rng.randrange(0, 3), rng),)
        theta = (random_series(field, -70, derive_rng(k, "solver-theta")),)
        deltas = (random_series(field, -70, derive_rng(k, "solver-d")).shift(-6),)
        floor = -40 - k
        cut = floor + max(qj.deg for qj in q)
        Y = solve_matrix_for_residual(field, q, p, theta, deltas, floor, k)
        assert solve_matrix_for_residual(
            field, q, p, cut_at(theta, cut), cut_at(deltas, cut), floor, k
        ) == Y
        with pytest.raises(PrecisionExhaustedError):
            solve_matrix_for_residual(field, q, p, theta, cut_at(deltas, cut + 1), floor, k)
