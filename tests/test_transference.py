from fractions import Fraction

import pytest

from ffdioph import (
    NEG_INF,
    DegValue,
    Fq,
    SeriesMatrix,
    check_bz,
    check_dirichlet_bound,
    check_dyson,
    check_mult_dominance,
    estimate,
    parse_series_literal,
    profile,
)
from ffdioph.exponents import ExponentProfile, ProfileEntry
from ffdioph.generators import cf_series, derive_rng, lacunary_series, random_series

F2 = Fq(2)


def single(entry):
    return SeriesMatrix([[entry]])


def rand_matrix(m, n, seed, floor=-50):
    return SeriesMatrix(
        [
            [random_series(F2, floor, derive_rng(seed, "Y", i, j)) for j in range(n)]
            for i in range(m)
        ]
    )


def transpose_pair(Y, theta, T_max):
    """Profile of (Y, theta) and homogeneous profile of Y^t, as the checks take them."""
    return profile(Y, theta, T_max), profile(Y.transpose(), None, T_max)


def test_dirichlet_bound_golden_equality():
    prof = profile(single(cf_series(F2, [1], -40)), None, 8, "standard")
    rep = check_dirichlet_bound(prof)
    assert rep.holds and rep.exact
    # equality at every horizon for the all-degree-one quotient series
    assert all(-e.B.value == e.T for e in prof.entries)


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 1)])
def test_dirichlet_bound_random(dims):
    m, n = dims
    for i in range(6):
        prof = profile(rand_matrix(m, n, 1000 + i), None, 10, "standard")
        assert check_dirichlet_bound(prof).holds


def test_dirichlet_bound_requires_standard():
    prof = profile(single(random_series(F2, -40, derive_rng(1, "x"))), None, 6, "multiplicative")
    with pytest.raises(ValueError):
        check_dirichlet_bound(prof)


def test_mult_dominance_random():
    for i in range(4):
        Y = rand_matrix(1, 2, 2000 + i, floor=-40)
        ps = profile(Y, None, 7, "standard", "brute")
        pm = profile(Y, None, 7, "multiplicative")
        rep = check_mult_dominance(ps, pm)
        assert rep.holds and rep.exact and rep.details["compared"] == 7


def test_mult_dominance_kind_check():
    Y = single(random_series(F2, -40, derive_rng(3, "k")))
    ps = profile(Y, None, 6, "standard")
    with pytest.raises(ValueError):
        check_mult_dominance(ps, ps)


def test_bz_zero_shift_zero_tol_structural():
    # with theta = 0 and tol = 0 the bound collapses onto the pigeonhole
    # floor, so it must hold for any uncensored finite profile
    for i in range(5):
        Y = rand_matrix(1, 2, 3000 + i)
        rep = check_bz(*transpose_pair(Y, None, 16), Fraction(0))
        assert rep.holds


def test_bz_infinite_short_circuit():
    Y = single(parse_series_literal("X^-1", F2))
    rep = check_bz(*transpose_pair(Y, None, 12), Fraction(3, 10))
    assert rep.holds and "infinite" in rep.note


def test_bz_inhomogeneous_diagnostic():
    for i in range(4):
        Y = rand_matrix(1, 2, 4000 + i)
        theta = (random_series(F2, -50, derive_rng(4000 + i, "th")),)
        rep = check_bz(*transpose_pair(Y, theta, 20), Fraction(3, 10))
        assert rep.holds
        assert rep.details["margin_lower"] >= 0


def test_dyson_square_one_symmetric():
    Y = single(random_series(F2, -50, derive_rng(7, "d")))
    rep = check_dyson(*transpose_pair(Y, None, 16), Fraction(1, 4))
    assert rep.holds  # Y equals its own transpose when m = n = 1


def test_dyson_biconditional_far_side():
    # lacunary series: proxy well above 1 on both orientations
    Y = single(lacunary_series(F2, 3, -80))
    rep = check_dyson(*transpose_pair(Y, None, 20), Fraction(1, 4))
    assert rep.holds
    assert rep.details == {} or not rep.details.get("near_one", True)


def test_dyson_inconclusive_when_censored():
    Y = single(random_series(F2, -24, derive_rng(8, "c")))
    rep = check_dyson(*transpose_pair(Y, None, 12), Fraction(1, 4))
    assert rep.holds in (True, None)


@pytest.mark.parametrize("check", [check_bz, check_dyson])
def test_transpose_checks_kind_and_shape(check):
    Y = rand_matrix(1, 2, 6000)
    prof, prof_t = transpose_pair(Y, None, 8)
    check(prof, prof_t, Fraction(1, 4))  # a matrix and its transpose
    with pytest.raises(ValueError):
        check(prof.replace(kind="multiplicative"), prof_t, Fraction(1, 4))
    with pytest.raises(ValueError):
        check(prof, prof, Fraction(1, 4))  # 1x2 against 1x2, not its transpose
    with pytest.raises(ValueError):
        check(prof, profile(Y.transpose(), None, 7), Fraction(1, 4))


def test_chain_mult_above_standard_proxy():
    # multiplicative proxy >= standard proxy >= 1 - tol whenever the
    # transposed uniform proxy sits near 1
    tol = Fraction(3, 10)
    for i in range(3):
        Y = rand_matrix(1, 2, 5000 + i, floor=-40)
        theta = (random_series(F2, -40, derive_rng(5000 + i, "th")),)
        ps = profile(Y, theta, 8, "standard", "brute")
        pm = profile(Y, theta, 8, "multiplicative")
        es, em = estimate(ps), estimate(pm)
        if es.infinite or em.infinite:
            continue
        assert em.omega_proxy >= es.omega_proxy
        et = estimate(profile(Y.transpose(), None, 16, "standard"))
        if not et.infinite and et.omega_hat_proxy <= 1 + tol:
            assert es.omega_proxy >= 1 - tol


def _depths(prof, width):
    """{D: K(D)} read off the entries at T = width*D + 1, where
    B = -(K+1)*m: inf for an exact hit, None for a censored entry."""
    out = {}
    for D in range((prof.T_max - 1) // width + 1):
        B = prof.entry(width * D + 1).B
        if B.censored:
            out[D] = None
        else:
            out[D] = float("inf") if B.value == NEG_INF else -B.value // prof.m - 1
    return out


def _delta(K, s):
    """delta(s) = min{D : D + K(D) >= s} from _depths' K; None when a
    censored entry comes first or the profile ends before it."""
    for D, k in K.items():
        if k is None:
            return None
        if D + k >= s:
            return D
    return None


@pytest.mark.parametrize("field", [F2, Fq(3), Fq(2, 2)], ids=["F2", "F3", "F4"])
def test_inhomogeneous_transference_bound(field):
    # the inhomogeneous system of depth K over deg q_j <= D is solvable for
    # every theta once the transposed homogeneous one has no nonzero x of
    # deg < K clearing its D + K digits: with delta(s) = min{D : D + K^t(D)
    # >= s} of Y^t, K_theta(D) >= G(D) = max{K : delta(D+K) >= K}, unless
    # q = 0 already clears theta's digits -1..-G(D)
    checked = equal = 0
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for seed in range(2):
            rng = derive_rng(seed, "transfer", field.q, m, n)
            Y = SeriesMatrix(
                [[random_series(field, -160, rng) for _ in range(n)] for _ in range(m)]
            )
            theta = tuple(random_series(field, -160, rng) for _ in range(m))
            K = _depths(profile(Y, theta, 30), n)
            K_t = _depths(profile(Y.transpose(), None, 90), m)
            for D, k in K.items():
                if k is None:
                    continue
                # delta(s+1) <= delta(s) + 1, so the valid K form a prefix
                G = 0
                while (d := _delta(K_t, D + G + 1)) is not None and d >= G + 1:
                    G += 1
                if d is None:
                    continue
                if not any(t.coeff(-e) for t in theta for e in range(1, G + 1)):
                    continue
                checked += 1
                equal += k == G
                assert k >= G, (m, n, seed, D, k, G)
    assert checked > 100 and equal > 50


@pytest.mark.parametrize("field", [F2, Fq(3)], ids=["F2", "F3"])
def test_khintchine_bounds_per_order(field):
    # after s orders the N = m + n degrees of Y's order basis sum to m(s+1)
    # and the least is delta(s); by duality Y^t's least is s + 1 minus the
    # largest of them, so
    # (N-1) delta(s) - (m-1)(s+1) <= delta^t(s) <= s + 1 - (m(s+1) - delta(s))/(N-1)
    checked = low = high = 0
    for m, n in ((1, 2), (2, 1), (2, 2)):
        N = m + n
        for seed in range(2):
            rng = derive_rng(seed, "khintchine", field.q, m, n)
            Y = SeriesMatrix(
                [[random_series(field, -160, rng) for _ in range(n)] for _ in range(m)]
            )
            K = _depths(profile(Y, None, 40 * n + 1), n)
            K_t = _depths(profile(Y.transpose(), None, 40 * m + 1), m)
            for s in range(1, 60):
                d, dt = _delta(K, s), _delta(K_t, s)
                if d is None or dt is None:
                    continue
                lo = (N - 1) * d - (m - 1) * (s + 1)
                hi = s + 1 - Fraction(m * (s + 1) - d, N - 1)
                assert lo <= dt <= hi, (m, n, seed, s, d, dt)
                checked += 1
                low += dt == lo
                high += dt == hi
    assert checked > 300 and low > 80 and high > 80


def test_mult_dominance_exact_hits_on_both_sides():
    from ffdioph import LaurentSeries

    Y = single(LaurentSeries.zero(F2))
    ps = profile(Y, None, 6, "standard", "brute")
    pm = profile(Y, None, 6, "multiplicative")
    rep = check_mult_dominance(ps, pm)
    assert rep.holds  # both sides exactly zero error


# ---------------------------------------------------------------------------
# hand-built profiles: branches random instances rarely reach
# ---------------------------------------------------------------------------


def hand_profile(values, kind="standard", m=1, n=1):
    """Profile with B(T) = values[T-1]: an int, NEG_INF for an exact zero,
    or ("<=", v) for a value censored at v."""
    entries = tuple(
        ProfileEntry(T, DegValue.censored_at(v[1]) if isinstance(v, tuple) else DegValue(v))
        for T, v in enumerate(values, 1)
    )
    return ExponentProfile(kind, m, n, len(values), entries)


def on_diagonal(T_max):
    """-B(T) = T at every horizon: every proxy is exactly 1."""
    return [-T for T in range(1, T_max + 1)]


def test_dirichlet_bound_failure():
    # 1x1: -B(T) >= T; B(3) = -2 misses it, a censored miss is skipped
    vals = on_diagonal(5)
    vals[2], vals[3] = -2, ("<=", -1)
    rep = check_dirichlet_bound(hand_profile(vals))
    assert rep.holds is False
    assert rep.details["failures"] == [(3, -2)]


def test_mult_dominance_failure_and_censored_skip():
    std = on_diagonal(6)
    mult = [B - 1 for B in std]
    mult[1] = -1  # B_mult(2) = -1 > B_std(2) = -2
    mult[4] = ("<=", 0)  # censored: not compared, although 0 > -5
    rep = check_mult_dominance(hand_profile(std), hand_profile(mult, "multiplicative"))
    assert rep.holds is False
    assert rep.details == {"compared": 5, "failures": [(2, -1, -2)]}


def test_mult_dominance_mismatched_problems():
    std = hand_profile(on_diagonal(6))
    with pytest.raises(ValueError, match="different problems"):
        check_mult_dominance(std, hand_profile(on_diagonal(5), "multiplicative"))
    with pytest.raises(ValueError, match="different problems"):
        check_mult_dominance(std, hand_profile(on_diagonal(6), "multiplicative", n=2))


@pytest.mark.parametrize("check", [check_bz, check_dyson])
def test_transpose_check_window_unusable(check):
    # window [5, 10] with three uncensored entries: below the four needed
    vals = on_diagonal(10)
    for T in (5, 7, 9):
        vals[T - 1] = ("<=", -T)
    rep = check(hand_profile(vals), hand_profile(on_diagonal(10)), Fraction(1, 4))
    assert rep.holds is None
    assert rep.note.startswith("window unusable")


def test_dyson_censored_estimates_inconclusive():
    # five uncensored window entries: an estimate exists but is censored
    vals = on_diagonal(10)
    vals[6] = ("<=", -7)
    rep = check_dyson(hand_profile(on_diagonal(10)), hand_profile(vals), Fraction(1, 4))
    assert rep.holds is None
    assert rep.note == "censored estimates: inconclusive"


def test_dyson_infinite_proxy_is_far_from_one():
    hit = on_diagonal(10)
    hit[9] = NEG_INF
    near, far = hand_profile(on_diagonal(10)), hand_profile([-3 * T for T in range(1, 11)])
    for prof_t, holds in ((near, False), (far, True), (hand_profile(hit), True)):
        rep = check_dyson(hand_profile(hit), prof_t, Fraction(1, 4))
        assert rep.holds is holds
        assert rep.note == "infinite proxy treated as far from 1"
