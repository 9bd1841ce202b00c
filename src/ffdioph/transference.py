"""Exact and finite-horizon transference checks.

Two kinds of statements are handled very differently.  Integer inequalities
that hold on every instance (the pigeonhole lower bound, multiplicative
dominance) are checked exactly and a failure is a hard error in the suite.
Asymptotic statements (the transpose inequalities, the exponent-one
biconditional) can only be probed through finite-horizon proxies, so those
checks take a tolerance and are labeled diagnostics.  Every check judges
profiles computed by the caller, so one profile can serve several checks.
"""

from __future__ import annotations

from fractions import Fraction

from .exponents import (
    EstimateWindowError,
    ExponentEstimate,
    ExponentProfile,
    estimate,
)
from .poly import NEG_INF
from .record import Record, fresh


class CheckReport(Record):
    name: str
    holds: bool | None  # None = inconclusive (censored data)
    exact: bool  # True for zero-tolerance integer checks
    tolerance: Fraction | None = None
    lhs: object = None
    rhs: object = None
    details: dict = fresh(dict)
    note: str = ""

    def __bool__(self) -> bool:
        return self.holds is True


def check_dirichlet_bound(prof: ExponentProfile) -> CheckReport:
    """Pigeonhole floor on every uncensored horizon: -B(T) >= T + m - mn."""
    if prof.kind != "standard":
        raise ValueError("the pigeonhole bound applies to standard profiles")
    m, n = prof.m, prof.n
    offset = m - m * n
    failures = []
    for e in prof.entries:
        if e.censored:
            continue
        # B = NEG_INF passes trivially (-B is +infinity)
        if e.B.value != NEG_INF and -e.B.value < e.T + offset:
            failures.append((e.T, e.B.value))
    return CheckReport(
        name="dirichlet_bound",
        holds=not failures,
        exact=True,
        details={"offset": offset, "failures": failures},
    )


def check_mult_dominance(
    prof_std: ExponentProfile, prof_mult: ExponentProfile
) -> CheckReport:
    """Pointwise B_mult(T) <= B_std(T) wherever both are uncensored."""
    if prof_std.kind != "standard" or prof_mult.kind != "multiplicative":
        raise ValueError("expected a standard and a multiplicative profile")
    if (prof_std.m, prof_std.n, prof_std.T_max) != (
        prof_mult.m,
        prof_mult.n,
        prof_mult.T_max,
    ):
        raise ValueError("profiles cover different problems")
    failures = []
    compared = 0
    for es, em in zip(prof_std.entries, prof_mult.entries):
        if es.censored or em.censored:
            continue
        compared += 1
        if not (em.B.value <= es.B.value):
            failures.append((es.T, em.B.value, es.B.value))
    return CheckReport(
        name="mult_dominance",
        holds=not failures,
        exact=True,
        details={"compared": compared, "failures": failures},
    )


def _check_transpose_pair(
    name: str, prof: ExponentProfile, prof_t: ExponentProfile, tol: Fraction
) -> tuple[ExponentEstimate, ExponentEstimate] | CheckReport:
    """The estimates of prof and prof_t, standard profiles of a matrix and
    its transpose, or the check's report when a window is unusable."""
    if prof.kind != "standard" or prof_t.kind != "standard":
        raise ValueError("transpose checks apply to standard profiles")
    if (prof.m, prof.n, prof.T_max) != (prof_t.n, prof_t.m, prof_t.T_max):
        raise ValueError("profiles are not of a matrix and its transpose")
    try:
        return estimate(prof), estimate(prof_t)
    except EstimateWindowError as exc:
        return CheckReport(
            name=name,
            holds=None,
            exact=False,
            tolerance=tol,
            note=f"window unusable: {exc}",
        )


def check_bz(
    prof: ExponentProfile, prof_t: ExponentProfile, tol: Fraction
) -> CheckReport:
    """Transpose lower bounds on the inhomogeneous proxies.

    prof is the profile of (Y, theta), prof_t the homogeneous profile of Y^t.
    Checks omega(Y,theta) >= 1/omega_hat(Y^t) - tol and
    omega_hat(Y,theta) >= 1/omega(Y^t) - tol on window proxies.
    """
    got = _check_transpose_pair("bz", prof, prof_t, tol)
    if isinstance(got, CheckReport):
        return got
    inhom, transposed = got
    if inhom.infinite or transposed.infinite:
        return CheckReport(
            name="bz",
            holds=True,
            exact=False,
            tolerance=tol,
            note="infinite proxy short-circuits the bound",
            details={"inhom_infinite": inhom.infinite, "transpose_infinite": transposed.infinite},
        )
    margin1 = inhom.omega_proxy - (1 / transposed.omega_hat_proxy - tol)
    margin2 = inhom.omega_hat_proxy - (1 / transposed.omega_proxy - tol)
    holds = margin1 >= 0 and margin2 >= 0
    return CheckReport(
        name="bz",
        holds=holds,
        exact=False,
        tolerance=tol,
        lhs=(inhom.omega_proxy, inhom.omega_hat_proxy),
        rhs=(transposed.omega_hat_proxy, transposed.omega_proxy),
        details={"margin_lower": margin1, "margin_uniform": margin2},
    )


def check_dyson(
    prof: ExponentProfile, prof_t: ExponentProfile, tol: Fraction
) -> CheckReport:
    """Exponent-one biconditional between Y and its transpose, at tolerance.

    prof and prof_t are the homogeneous profiles of Y and Y^t.
    """
    got = _check_transpose_pair("dyson", prof, prof_t, tol)
    if isinstance(got, CheckReport):
        return got
    est, est_t = got
    if est.censored or est_t.censored:
        return CheckReport(
            name="dyson",
            holds=None,
            exact=False,
            tolerance=tol,
            note="censored estimates: inconclusive",
        )
    def near_one_side(e: ExponentEstimate) -> bool:
        if e.infinite:
            return False  # an exact hit sits as far from 1 as possible
        return abs(e.omega_proxy - 1) <= tol

    near_one = near_one_side(est)
    near_one_t = near_one_side(est_t)
    if est.infinite or est_t.infinite:
        return CheckReport(
            name="dyson",
            holds=near_one == near_one_t,
            exact=False,
            tolerance=tol,
            note="infinite proxy treated as far from 1",
        )
    return CheckReport(
        name="dyson",
        holds=near_one == near_one_t,
        exact=False,
        tolerance=tol,
        lhs=est.omega_proxy,
        rhs=est_t.omega_proxy,
        details={"near_one": near_one, "near_one_transpose": near_one_t},
    )
