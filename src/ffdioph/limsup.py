"""The index-tuple construction behind the limsup-set covering argument,
with exact checkers for both inclusion directions, the pairwise intersection
property, and the identity between approximation cells and scaled plane
neighbourhoods.

All scale factors of the shape e^(rational) stay in the exponent domain:
thresholds are Fractions compared against integer degrees, never evaluated
as reals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .approx import Witness, compositions, witness_error_degs
from .errors import PreconditionError
from .matrix import SeriesMatrix, cut_matrix, cut_series, prod_plus_deg, sup_deg
from .poly import NEG_INF
from .record import Record
from .series import DegValue, LaurentSeries, deg_lt, deg_max, deg_sum
from .transference import CheckReport


class TsetParams(Record):
    """Shape of the index-tuple family: dimensions, level eta, and whether
    the (u, v) grid is free (multiplicative) or constant-tuple (dual)."""

    m: int
    n: int
    eta: Fraction
    mode: str = "multiplicative"

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")
        if Fraction(self.eta) < 1:
            raise ValueError("eta must be >= 1")
        if self.mode not in ("multiplicative", "dual"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "eta", Fraction(self.eta))


class IndexTuple(Record):
    t: tuple[int, ...]
    sigma: int

    @classmethod
    def of(cls, t) -> "IndexTuple":
        t = tuple(int(x) for x in t)
        return cls(t, sum(t))


def xi_and_t(u, v, params: TsetParams):
    """Balance offset xi and the induced index tuple, or None when the
    (u, v) pair falls outside the admissible half-space."""
    eta, m, n = params.eta, params.m, params.n
    if params.mode == "dual":
        if not isinstance(u, int) or not isinstance(v, int):
            raise ValueError("dual mode takes scalar u, v")
        u, v = (u,) * m, (v,) * n
    u_t, v_t = tuple(u), tuple(v)
    if len(u_t) != m or len(v_t) != n:
        raise ValueError("u must have length m and v length n")
    if any(x < 0 for x in u_t) or any(x < 0 for x in v_t):
        raise ValueError("u, v must be nonnegative")
    su, sv = sum(u_t), sum(v_t)
    if su < eta * sv:
        return None
    xi = Fraction(su - eta * sv, 1) / (m + eta * n)
    fx = math.floor(xi)
    t = tuple(x - fx for x in u_t) + tuple(x + fx for x in v_t)
    return xi, IndexTuple(t, sum(t))


def tau0(eps: Fraction, params: TsetParams) -> Fraction:
    """Threshold slope below which the balance offset dominates sigma."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    eta, m, n = params.eta, params.m, params.n
    return min(eps, eta) / (2 * (eta + 1) * (m + eta * n))


class TsetEnumeration(Record):
    tuples: tuple[IndexTuple, ...]
    multiplicity: dict  # t -> number of (u, v) preimages seen

    def partial_sum_terms(self) -> list[tuple[int, int]]:
        """The formal sum of e^(-tau*sigma) over the family, reported as
        (sigma, count) pairs; tau stays symbolic."""
        levels: dict[int, int] = {}
        for it in self.tuples:
            levels[it.sigma] = levels.get(it.sigma, 0) + 1
        return sorted(levels.items())


def _uv_pairs(params: TsetParams, a, b, limit):
    """Every (u, v, sigma(u), sigma(v)) with a*sigma(u) + b*sigma(v) <= limit.

    In dual mode u and v are scalars standing for the constant tuples
    (u,)*m and (v,)*n, so their sums are m*u and n*v.  The order is fixed:
    callers report in it.
    """
    m, n = params.m, params.n
    if params.mode == "dual":
        for u in range(limit // (a * m) + 1):
            for v in range(limit // (b * n) + 1):
                if a * m * u + b * n * v <= limit:
                    yield u, v, m * u, n * v
        return
    for su in range(limit // a + 1):
        for sv in range(limit // b + 1):
            if a * su + b * sv <= limit:
                for u in compositions(su, m):
                    for v in compositions(sv, n):
                        yield u, v, su, sv


def tset_enumerate(params: TsetParams, sigma_bound: int) -> TsetEnumeration:
    """All distinct index tuples with sigma <= sigma_bound.

    The (u, v) grid is cut off by n*sigma(u) + m*sigma(v) <= G.  Exactly
    sigma(t) = (eta+1)/(m+eta*n) * (n*sigma(u)+m*sigma(v)) + (m-n)*frac(xi),
    so for m >= n the cutoff G = (m+eta*n)/(eta+1) * sigma_bound suffices,
    while for m < n the fractional term can push qualifying pairs up to
    (n - m) beyond it; widening by that slack keeps the scan exhaustive
    (verified against a plain box oracle in the tests).
    """
    eta, m, n = params.eta, params.m, params.n
    seen: dict[tuple[int, ...], IndexTuple] = {}
    multiplicity: dict[tuple[int, ...], int] = {}
    if sigma_bound >= 0:
        slack = max(0, n - m)
        G = Fraction(m + eta * n, 1) / (eta + 1) * (sigma_bound + slack)
        for u, v, _, _ in _uv_pairs(params, n, m, G):
            got = xi_and_t(u, v, params)
            if got is None:
                continue
            _, it = got
            if it.sigma > sigma_bound:
                continue
            multiplicity[it.t] = multiplicity.get(it.t, 0) + 1
            seen.setdefault(it.t, it)
    return TsetEnumeration(tuple(seen[k] for k in sorted(seen)), multiplicity)


def audit_grid(params: TsetParams, uv_budget: int) -> CheckReport:
    """Exact inequalities over the whole grid sigma(u)+sigma(v) <= budget.

    Checks the sandwich (eta+1)*sigma(v) <= sigma(t) <= (eta+1)/eta*sigma(u),
    sigma(t) >= 0, and the nominal lower bound
    sigma(t) >= (eta+1)/(m+eta*n)*(n*sigma(u)+m*sigma(v)).  The nominal
    bound is provably valid only for m >= n; for m < n the floor of xi can
    undershoot it by less than (n - m), so the slack-corrected variant is
    reported alongside (and must always hold).
    """
    eta, m, n = params.eta, params.m, params.n
    sandwich_failures = []
    lower_failures = []
    corrected_failures = []
    accepted = 0
    slack = max(0, n - m)
    for u, v, su, sv in _uv_pairs(params, 1, 1, uv_budget):
        got = xi_and_t(u, v, params)
        if got is None:
            continue
        accepted += 1
        _, it = got
        st = it.sigma
        if not ((eta + 1) * sv <= st and st * eta <= (eta + 1) * su and st >= 0):
            sandwich_failures.append((u, v, it.t))
        target = Fraction(eta + 1, 1) * (n * su + m * sv) / (m + eta * n)
        if st < target:
            lower_failures.append((u, v, it.t))
        corrected_ok = st >= target if slack == 0 else st > target - slack
        if not corrected_ok:
            corrected_failures.append((u, v, it.t))
    return CheckReport(
        name="grid_inequalities",
        holds=not (sandwich_failures or lower_failures),
        exact=True,
        details={
            "accepted": accepted,
            "sandwich_failures": sandwich_failures,
            "nominal_lower_bound_failures": lower_failures,
            "corrected_lower_bound_failures": corrected_failures,
            "corrected_slack": slack,
        },
    )


# ---------------------------------------------------------------------------
# membership in the scaled cells
# ---------------------------------------------------------------------------


class MembershipResult(Record):
    deg: DegValue
    member: bool
    threshold: Fraction


def _membership(degs, t: IndexTuple, alpha: Witness, tau):
    """Cell membership read off the witness's row degrees (the output of
    ``witness_error_degs``): row i raised by t_i and q_j lowered by
    t_(m+j), the largest coordinate compared with -tau*sigma.

    Returns the result, the scaled rows and the scaled degrees of the
    nonzero q_j.
    """
    m = len(degs)
    rows = [d.shift(t.t[i]) for i, d in enumerate(degs)]
    qs = [qj.deg - t.t[m + j] for j, qj in enumerate(alpha.q) if qj.deg != NEG_INF]
    d = deg_max(rows + [DegValue(x) for x in qs])
    threshold = -Fraction(tau) * t.sigma
    return MembershipResult(d, deg_lt(d, threshold), threshold), rows, qs


def delta_membership(
    Y: SeriesMatrix, theta, t: IndexTuple, alpha: Witness, tau: Fraction
) -> MembershipResult:
    """Does the affine image of alpha, scaled by the index tuple, fall below
    e^(-tau*sigma)?"""
    if len(t.t) != Y.m + Y.n:
        raise ValueError("index tuple length must be m + n")
    return _membership(witness_error_degs(Y, theta, alpha), t, alpha, tau)[0]


# ---------------------------------------------------------------------------
# forward direction: from a product-premise witness to a member cell
# ---------------------------------------------------------------------------


def witness_extract_uv(
    Y: SeriesMatrix,
    theta,
    alpha: Witness,
    T: int,
    eta: Fraction,
    eps: Fraction,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unique integer envelopes (u, v) of the witness errors and sizes.

    Requires the product premises at (eta, eps, T): row product below
    e^(-(eta+eps)T), plus-product of q below e^T, and sup of the rows at
    most 1/e.  Raises PreconditionError naming the failed inequality.
    """
    eta, eps = Fraction(eta), Fraction(eps)
    return _envelopes(witness_error_degs(Y, theta, alpha), alpha, T, eta, eps)


def _envelopes(degs, alpha: Witness, T: int, eta: Fraction, eps: Fraction):
    """``witness_extract_uv`` read off the witness's row degrees."""
    cut = -(eta + eps) * T
    if not deg_lt(deg_sum(degs), cut):
        raise PreconditionError("row product premise fails at this horizon")
    if not prod_plus_deg(alpha.q) < T:
        raise PreconditionError("plus-product premise fails at this horizon")
    if not deg_lt(deg_max(degs), 0):
        raise PreconditionError("rows are not all below 1/e")
    u = []
    for d in degs:
        if d.value == NEG_INF:
            mj = cut
        elif d.censored:
            if d.value < cut:
                mj = cut
            else:
                # cannot place the envelope without the true degree
                raise PreconditionError(
                    "censored row degree straddles the premise cutoff"
                )
        else:
            mj = max(Fraction(d.value), cut)
        u.append(-math.floor(mj))
    v = [max(0, qi.deg) if qi.deg != NEG_INF else 0 for qi in alpha.q]
    return tuple(u), tuple(int(x) for x in v)


def prop_forward_check(
    Y: SeriesMatrix,
    theta,
    alpha: Witness,
    T: int,
    eta: Fraction,
    eps: Fraction,
    tau: Fraction,
    sigma_threshold: int = 8,
) -> CheckReport:
    """Build the index tuple from a premise witness and verify membership.

    Asserts: the balance offset exceeds tau0 * sigma, and the cell
    membership holds at tau, either at the tuple's own scaling or at the
    construction's rescaled diagonal, which reads the same degree one lower.
    The premises place the tuple in the family, so a rejection is an
    internal error.  Below sigma_threshold a membership miss is reported as
    threshold-exempt rather than a failure, matching the
    finitely-many-exceptions proviso.
    """
    eta, eps, tau = Fraction(eta), Fraction(eps), Fraction(tau)
    params = TsetParams(Y.m, Y.n, eta)
    t0 = tau0(eps, params)
    if not tau < t0:
        raise PreconditionError(f"tau must be below tau0 = {t0}")
    degs = witness_error_degs(Y, theta, alpha)
    u, v = _envelopes(degs, alpha, T, eta, eps)
    got = xi_and_t(u, v, params)
    if got is None:
        # the premises give sigma(u) >= (eta+eps)T > eta*T > eta*sigma(v)
        raise AssertionError("premise envelopes fell outside the half-space")
    xi, it = got
    xi_ok = xi > t0 * it.sigma
    std = _membership(degs, it, alpha, tau)[0]
    member_standard = std.member
    member_shifted = deg_lt(std.deg.shift(-1), std.threshold)
    member_ok = member_standard or member_shifted
    # below the cutoff the finitely-many-exceptions proviso applies: the
    # exempt status is recorded, and a membership miss is not a failure
    exempt = it.sigma < sigma_threshold
    holds = xi_ok and (member_ok or exempt)
    note = "threshold-exempt" if exempt and not member_ok else ""
    return CheckReport(
        name="forward_inclusion",
        holds=holds,
        exact=True,
        details={
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
        },
        note=note,
    )


# ---------------------------------------------------------------------------
# backward direction: from a member cell back to a premise witness
# ---------------------------------------------------------------------------


def prop_backward_check(
    Y: SeriesMatrix,
    theta,
    t: IndexTuple,
    alpha: Witness,
    tau: Fraction,
    eta: Fraction,
) -> CheckReport:
    """From cell membership, recover the product premises at the derived
    horizon T' = sigma/(eta+1) with margin eps' = m*tau*(eta+1).

    Asserts the two block product bounds (rows scaled up by t, nonzero q
    coordinates scaled down) and then the derived premises exactly.
    """
    eta, tau = Fraction(eta), Fraction(tau)
    if len(t.t) != Y.m + Y.n:
        raise ValueError("index tuple length must be m + n")
    degs = witness_error_degs(Y, theta, alpha)
    mem, rows, qs = _membership(degs, t, alpha, tau)
    if not mem.member:
        raise PreconditionError("cell membership precondition fails")
    m, n = Y.m, Y.n
    sigma = t.sigma
    row_block = deg_sum(rows)
    row_bound_ok = deg_lt(row_block, -m * tau * sigma)
    q_block = sum(qs)
    q_bound_ok = q_block < -n * tau * sigma
    T_prime = Fraction(sigma, 1) / (eta + 1)
    eps_prime = m * tau * (eta + 1)
    prod_ok = deg_lt(deg_sum(degs), -(eta + eps_prime) * T_prime)
    plus_ok = prod_plus_deg(alpha.q) < T_prime
    holds = row_bound_ok and q_bound_ok and prod_ok and plus_ok
    return CheckReport(
        name="backward_inclusion",
        holds=holds,
        exact=True,
        details={
            "row_block_deg": row_block,
            "q_block_deg": q_block,
            "T_prime": T_prime,
            "eps_prime": eps_prime,
            "row_bound_ok": row_bound_ok,
            "q_bound_ok": q_bound_ok,
            "product_premise_ok": prod_ok,
            "plus_product_premise_ok": plus_ok,
        },
    )


# ---------------------------------------------------------------------------
# pairwise intersection property
# ---------------------------------------------------------------------------


def intersection_check(
    Y: SeriesMatrix,
    theta,
    t: IndexTuple,
    alpha: Witness,
    alpha2: Witness,
    tau: Fraction,
) -> CheckReport:
    """Two member cells at the same tuple intersect inside a homogeneous
    cell: the difference witness is itself a member with theta = 0.

    When the q parts coincide the difference is purely polynomial; the
    membership bounds then force every coordinate with a nonnegative scale
    to vanish, which contradicts distinctness -- that degenerate case is
    reported, not failed.
    """
    tau = Fraction(tau)
    if alpha.p == alpha2.p and alpha.q == alpha2.q:
        raise ValueError("witnesses must be distinct")
    mem1 = delta_membership(Y, theta, t, alpha, tau)
    mem2 = delta_membership(Y, theta, t, alpha2, tau)
    if not (mem1.member and mem2.member):
        raise PreconditionError("both cell memberships must hold")
    p_diff = tuple(a - b for a, b in zip(alpha.p, alpha2.p))
    q_diff = tuple(a - b for a, b in zip(alpha.q, alpha2.q))
    if all(qi.is_zero() for qi in q_diff):
        forced = [
            j
            for j, pj in enumerate(p_diff)
            if not pj.is_zero() and t.t[j] >= 0
        ]
        return CheckReport(
            name="intersection",
            holds=True,
            exact=True,
            note=(
                "degenerate: equal q parts force the polynomial difference "
                "below 1 on nonnegative-scale coordinates, so such pairs "
                "cannot both be members there"
            ),
            details={"q_diff_zero": True, "contradicted_coords": forced},
        )
    diff = Witness(p_diff, q_diff)
    mem_diff = delta_membership(Y, None, t, diff, tau)
    return CheckReport(
        name="intersection",
        holds=mem_diff.member,
        exact=True,
        details={
            "q_diff_zero": False,
            "difference_deg": mem_diff.deg,
            "threshold": mem_diff.threshold,
        },
    )


# ---------------------------------------------------------------------------
# plane neighbourhoods
# ---------------------------------------------------------------------------


class PlaneSpec(Record):
    """The set {Y : Y b + c = 0} with per-row neighbourhood thresholds.

    Thresholds are formal exponents (ints or Fractions): row i of a member
    satisfies deg(Y_i b + c_i) < log_eps[i]."""

    b: tuple[LaurentSeries, ...]
    c: tuple[LaurentSeries, ...]
    log_eps: tuple

    def __post_init__(self):
        bdeg = sup_deg(self.b)
        if bdeg.censored or bdeg.value != 0:
            raise ValueError("plane direction must have sup degree exactly 0")
        if len(self.c) != len(self.log_eps):
            raise ValueError("one threshold per row is required")


def plane_member(Y: SeriesMatrix, spec: PlaneSpec, log_delta=0) -> bool:
    """Membership in the delta-scaled neighbourhood; log_delta shifts every
    threshold (delta = e^log_delta stays formal)."""
    if Y.n != len(spec.b) or Y.m != len(spec.c):
        raise ValueError("plane dimensions do not match the matrix")
    for i in range(Y.m):
        acc = spec.c[i]
        for j in range(Y.n):
            acc = acc + Y.entry(i, j) * spec.b[j]
        if not deg_lt(acc.deg(), Fraction(spec.log_eps[i]) + log_delta):
            return False
    return True


class CellPlane(Record):
    """One cell and its scaled plane neighbourhood, for checking many Y.

    The plane {Y : Y b + c = 0} runs through the normalized witness: b is q
    and c is p + theta, both scaled by X^-D with D = max deg q_j.  The
    q-side size constraints of the cell do not involve Y; they act as a
    gate, and when it fails the cell is empty.  Both membership routes pass
    row i of Y q + p + theta exactly when its digits at exponents >=
    ceil(-tau*sigma - t_i) all vanish, so neither reads a digit below
    ``floor``, the least of these exponents: theta is kept cut to ``floor``,
    and each Y is cut by ``cut_matrix``.
    """

    t: IndexTuple
    alpha: Witness
    tau: Fraction
    spec: PlaneSpec
    log_delta: Fraction
    gate: bool
    floor: int
    theta: tuple | None


def cell_plane(theta, t: IndexTuple, alpha_prime: Witness, tau: Fraction) -> CellPlane:
    """The cell of (theta, t, alpha', tau) as a CellPlane; q must be nonzero."""
    tau = Fraction(tau)
    q = alpha_prime.q
    if all(qi.is_zero() for qi in q):
        raise ValueError("witness q vector must be nonzero")
    m = len(alpha_prime.p)
    sigma = t.sigma
    D = max(qi.deg for qi in q if qi.deg != NEG_INF)
    b = tuple(LaurentSeries.from_poly(qi).shift(-D) for qi in q)
    c = []
    for j in range(m):
        base = LaurentSeries.from_poly(alpha_prime.p[j])
        if theta is not None:
            base = base + theta[j]
        c.append(base.shift(-D))
    log_eps = tuple(
        Fraction(-t.t[j]) - Fraction(tau * sigma, 2) - D for j in range(m)
    )
    gate = all(
        (qi.deg == NEG_INF) or (qi.deg < t.t[m + i] - tau * sigma)
        for i, qi in enumerate(q)
    )
    floor = min(math.ceil(-tau * sigma - t.t[i]) for i in range(m))
    if theta is not None:
        theta = tuple(cut_series(th, floor) for th in theta)
    return CellPlane(
        t,
        alpha_prime,
        tau,
        PlaneSpec(b, tuple(c), log_eps),
        -Fraction(tau * sigma, 2),
        gate,
        floor,
        theta,
    )


def cell_plane_identity_check(Y: SeriesMatrix, plane: CellPlane) -> CheckReport:
    """One cell equals one scaled plane neighbourhood, on this Y.

    When the gate fails the cell is empty and membership must be false for
    every Y.  Otherwise the Y-side condition coincides with the delta-scaled
    neighbourhood of the plane through the normalized witness.  Y is cut to
    the plane's floor first, which changes neither route's answer.
    """
    Y = cut_matrix(Y, plane.alpha.q, plane.floor)
    cell = delta_membership(Y, plane.theta, plane.t, plane.alpha, plane.tau).member
    plane_route = plane.gate and plane_member(Y, plane.spec, plane.log_delta)
    return CheckReport(
        name="cell_plane_identity",
        holds=cell == plane_route,
        exact=True,
        details={
            "gate": plane.gate,
            "cell_member": cell,
            "plane_member": plane_route,
            "log_delta": plane.log_delta,
        },
    )
