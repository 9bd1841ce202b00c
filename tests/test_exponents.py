from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ffdioph import (
    DegValue,
    Fq,
    LaurentSeries,
    NEG_INF,
    PrecisionExhaustedError,
    SeriesMatrix,
    estimate,
    parse_series_literal,
    profile,
)
from ffdioph.exponents import EstimateWindowError, ExponentProfile, ProfileEntry
from ffdioph.generators import cf_series, derive_rng, lacunary_series, random_series, rational_series
from ffdioph.poly import Poly

F2 = Fq(2)


def single(entry):
    return SeriesMatrix([[entry]])


def cf_profile(degs, T_max):
    """B(T) = -d_{k+1} where d_k <= T-1 < d_{k+1}, the d_k (d_0 = 0) being the
    partial sums of the cycled partial-quotient degrees: the best q of degree
    <= T-1 is the convergent denominator of degree d_k, with error degree
    -d_{k+1}."""
    sums = [0]
    while sums[-1] <= T_max:
        sums.append(sums[-1] + degs[(len(sums) - 1) % len(degs)])
    return [-next(d for d in sums if d > T - 1) for T in range(1, T_max + 1)]


@pytest.mark.parametrize("field", [F2, Fq(3), Fq(2, 2)], ids=["F2", "F3", "F4"])
@pytest.mark.parametrize(
    "degs", [[1], [2], [1, 3], [3, 1, 2], [5]], ids=lambda d: ",".join(map(str, d))
)
def test_profile_golden_cf(field, degs):
    prof = profile(single(cf_series(field, degs, -60)), None, 16, "standard", "kernel")
    assert [e.B for e in prof.entries] == [DegValue.exact(b) for b in cf_profile(degs, 16)]
    if degs == [1]:
        est = estimate(prof)
        assert est.omega_proxy == 1 and est.omega_hat_proxy == 1
        assert not est.infinite and not est.censored


def cf_quotient_series(F, rng, floor):
    """Y = [0; a_1, a_2, ...] with random partial quotients (degree 1-4,
    random coefficients, monic or not), built by the convergent recurrence
    p_k = a_k p_(k-1) + p_(k-2), likewise q_k, and its quotient degrees.
    Quotients are added until 2 deg q_K >= -floor, so p_K / q_K, cut at
    floor, agrees with every continued fraction that starts a_1..a_K."""
    p_prev, p, q_prev, q = Poly.one(F), Poly.zero(F), Poly.zero(F), Poly.one(F)
    degs = []
    while 2 * q.deg < -floor:
        d = rng.randrange(1, 5)
        a = Poly(F, [rng.randrange(F.q) for _ in range(d)] + [rng.randrange(1, F.q)])
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        degs.append(d)
    return LaurentSeries.from_poly(p).div_poly(q, floor), degs


@pytest.mark.parametrize(
    "field, T_max",
    [
        (F2, 160),
        (Fq(3), 160),
        (Fq(2, 2), 160),
        (Fq(3, 2), 160),
        (Fq(67), 160),
        (Fq(2, 7, (1, 1, 0, 0, 0, 0, 0, 1)), 160),  # X^7 + X + 1
        (F2, 500),
    ],
    ids=["F2", "F3", "F4", "F9", "F67", "F128", "F2-T500"],
)
def test_profile_matches_continued_fraction_oracle_at_long_horizons(field, T_max):
    # for m = n = 1 the convergents are the best approximations, so
    # B(T) = -deg q_(k+1) with k = max{k : deg q_k <= T - 1}: a closed form
    # that needs no elimination and no enumeration
    Y, degs = cf_quotient_series(field, derive_rng(21, "cf-oracle", field.q), -(3 * T_max + 40))
    prof = profile(single(Y), None, T_max)
    assert [e.B for e in prof.entries] == [DegValue.exact(b) for b in cf_profile(degs, T_max)]


def test_estimate_is_exact_on_geometric_quotient_degrees():
    # quotient degrees 3^k give convergent degrees (3^k - 1)/2, so -B(T)/T
    # peaks at (3^(k+1) - 1)/2 / ((3^k - 1)/2 + 1) just past each of them,
    # and the peaks climb to 3; omega_proxy is the top one in the window
    # [(T_max + 1)/2, T_max], exactly, with no tolerance.  Certifying a peak
    # B = -d_(k+1) at T = d_k + 1 reads d_(k+1) + d_k, about 4T, digits deep
    # (at floor -(3T + 40) the peaks of T_max 130 and 400 come out censored)
    degs = [3**k for k in range(8)]
    gaps = []
    for T_max in (40, 130, 400):
        Y = cf_series(F2, degs, -(4 * T_max + 40))
        est = estimate(profile(single(Y), None, T_max))
        lo, hi = est.window
        assert (lo, hi) == ((T_max + 1) // 2, T_max)
        B = cf_profile(degs, T_max)
        assert est.omega_proxy == max(Fraction(-B[T - 1], T) for T in range(lo, hi + 1))
        assert est.omega_hat_proxy == min(Fraction(-B[T - 1], T) for T in range(lo, hi + 1))
        assert not est.infinite and not est.censored
        gaps.append(abs(est.omega_proxy - 3))
    assert gaps[0] > gaps[1] > gaps[2] > 0


def gf2_euclid_profile(digits, T_max):
    """B(T), T = 1..T_max, of a 1x1 GF(2) series known at -1..-N, from the
    continued fraction of A / X^N, where A reads those digits as a polynomial
    (Massey 1969; Niederreiter 1988).  Euclid on (X^N, A), with polynomials
    packed into ints (bit k = coefficient of X^k), gives the quotient degrees;
    with d_k their partial sums (d_0 = 0), B(T) = -d_{k+1} for
    d_k <= T-1 < d_{k+1}, and -inf once the expansion has ended."""
    N = len(digits)
    a, b = 1 << N, sum(d << N - 1 - k for k, d in enumerate(digits))
    sums = [0]
    while b:
        sums.append(sums[-1] + a.bit_length() - b.bit_length())
        while a.bit_length() >= b.bit_length():
            a ^= b << a.bit_length() - b.bit_length()
        a, b = b, a
    return [next((-d for d in sums if d > T - 1), NEG_INF) for T in range(1, T_max + 1)]


def test_profile_gf2_matches_euclid_oracle():
    # every uncensored kernel entry against an independent continued-fraction
    # profile of the known digits: completing the series by zeros gives
    # A / X^N, and a certified entry holds for every completion
    cases = [(40, -100)] * 10 + [(80, -180)] * 3 + [(40, -50)] * 10
    checked = censored = 0
    for i, (T_max, floor) in enumerate(cases):
        Y = random_series(F2, floor, derive_rng(1969, "euclid", i))
        prof = profile(single(Y), None, T_max, "standard", "kernel")
        oracle = gf2_euclid_profile(Y.digits(-1, floor), T_max)
        for e, b in zip(prof.entries, oracle):
            if e.censored:
                censored += 1
            else:
                assert e.B.value == b, (i, e.T)
                checked += 1
    assert checked >= 800 and censored >= 100


def test_profile_zero_matrix_infinite():
    prof = profile(single(LaurentSeries.zero(F2)), None, 8, "standard", "kernel")
    assert all(e.B.value == NEG_INF for e in prof.entries)
    est = estimate(prof)
    assert est.infinite and est.omega_proxy is None


def test_profile_rational_entry_infinite():
    prof = profile(single(parse_series_literal("X^-1", F2)), None, 8, "standard")
    est = estimate(prof)
    assert est.infinite


def test_estimate_constant_shift():
    theta = (parse_series_literal("X^-3", F2),)
    prof = profile(single(LaurentSeries.zero(F2)), theta, 12, "standard")
    assert all(e.B.value == -3 for e in prof.entries)
    est = estimate(prof)
    assert est.omega_proxy == Fraction(1, 2)  # 3 / ceil(12/2)
    assert est.omega_hat_proxy == Fraction(3, 12)


def test_profile_lacunary_anchors():
    # brute-force verified anchors: B = -2 * 3^k at T = 3^k + 1
    Y = single(lacunary_series(F2, 3, -80))
    prof_b = profile(Y, None, 10, "standard", "brute")
    prof_k = profile(Y, None, 10, "standard", "kernel")
    assert [e.B for e in prof_b.entries] == [e.B for e in prof_k.entries]
    assert prof_b.entry(2).B.value == -2
    assert prof_b.entry(4).B.value == -6
    assert prof_b.entry(10).B.value == -18


def test_estimate_window_and_censoring():
    entries = tuple(
        ProfileEntry(T, DegValue.censored_at(-T) if T in (7, 9) else DegValue.exact(-T))
        for T in range(1, 13)
    )
    prof = ExponentProfile("standard", 1, 1, 12, entries)
    est = estimate(prof)
    assert est.censored
    assert est.omega_proxy == 1  # censored entries excluded from the window max


def test_estimate_fully_censored_window():
    entries = tuple(
        ProfileEntry(T, DegValue.censored_at(-T) if T >= 6 else DegValue.exact(-T))
        for T in range(1, 13)
    )
    prof = ExponentProfile("standard", 1, 1, 12, entries)
    with pytest.raises(EstimateWindowError):
        estimate(prof)


def test_estimate_needs_four_entries():
    entries = tuple(ProfileEntry(T, DegValue.exact(-T)) for T in range(1, 5))
    prof = ExponentProfile("standard", 1, 1, 4, entries)
    with pytest.raises(EstimateWindowError):
        estimate(prof)


@given(st.lists(st.integers(-200, 0), min_size=4, max_size=30), st.integers(0, 2**30))
def test_estimate_and_rows_reduce_ratios_as_fractions(Bs, censor):
    # the window extremes and the report rows compare and reduce -B/T by
    # integers; both must be the Fractions' max, min and lowest terms
    from ffdioph.runner import profile_rows

    entries = tuple(
        ProfileEntry(T, DegValue.censored_at(B) if censor >> T & 1 else DegValue.exact(B))
        for T, B in enumerate(Bs, 1)
    )
    prof = ExponentProfile("standard", 1, 1, len(Bs), entries)
    lo, hi = prof.window()
    ratios = [Fraction(-e.B.value, e.T) for e in entries[lo - 1 : hi] if not e.censored]
    if len(ratios) >= 4:
        est = estimate(prof)
        assert (est.omega_proxy, est.omega_hat_proxy) == (max(ratios), min(ratios))
    for row, e in zip(profile_rows(prof), entries):
        r = Fraction(-e.B.value, e.T)
        assert (row["minus_B_over_T_num"], row["minus_B_over_T_den"]) == (r.numerator, r.denominator)


def test_estimates_invariant_under_deeper_floor():
    for i in range(5):
        deep = random_series(F2, -60, derive_rng(404, "deep", i))
        shallow = deep.truncate(-30)
        p_deep = profile(single(deep), None, 12, "standard", "kernel")
        p_shallow = profile(single(shallow), None, 12, "standard", "kernel")
        for ed, es in zip(p_deep.entries, p_shallow.entries):
            if not es.censored:
                assert ed.B == es.B
            else:
                assert ed.B.value <= es.B.value


def test_uniform_proxy_respects_pigeonhole_floor():
    # m=1, n=2: -B(T) >= T - 1, so the window min of -B/T dips below 1
    # by at most 1/T at the window's low end
    Y = SeriesMatrix(
        [[random_series(F2, -60, derive_rng(11, "u", j)) for j in range(2)]]
    )
    prof = profile(Y, None, 16, "standard", "kernel")
    est = estimate(prof)
    lo, hi = prof.window()
    assert est.omega_hat_proxy >= 1 + Fraction(1 - 1 * 2, lo)


def test_mult_profile_equals_standard_square_one():
    Y = single(random_series(F2, -40, derive_rng(88, "sq", 0)))
    ps = profile(Y, None, 8, "standard", "brute")
    pm = profile(Y, None, 8, "multiplicative")
    assert [e.B for e in ps.entries] == [e.B for e in pm.entries]


@pytest.mark.parametrize("kind", ["standard", "multiplicative"])
def test_profile_rejects_a_rising_exact_entry(monkeypatch, kind):
    import ffdioph.exponents as exponents
    from ffdioph.approx import BestError

    def fake(values):
        def best(Y, theta, T, method="kernel"):
            return BestError(values[T - 1], None, "fake")

        return best

    rising = [DegValue.exact(-3), DegValue.censored_at(-1), DegValue.exact(-2)]
    monkeypatch.setattr(exponents, "best_error", fake(rising))
    monkeypatch.setattr(exponents, "best_error_mult", fake(rising))
    Y = single(LaurentSeries.zero(F2))
    with pytest.raises(AssertionError, match=r"T=3: B\(3\) = -2 exceeds B\(1\) = -3"):
        profile(Y, None, 3, kind)
    # a censored value only bounds the truth from above, so it may sit higher
    monkeypatch.setattr(exponents, "best_error", fake(rising[:2]))
    monkeypatch.setattr(exponents, "best_error_mult", fake(rising[:2]))
    assert profile(Y, None, 2, kind).entry(2).censored


@pytest.mark.parametrize("method", ["kernel", "brute"])
@pytest.mark.parametrize("floor", [-40, -6])
@pytest.mark.parametrize("n, T_max, calls", [(1, 6, 6), (2, 9, 5), (3, 7, 3)])
def test_profile_solves_each_degree_bound_once(monkeypatch, n, T_max, calls, floor, method):
    import ffdioph.exponents as exponents

    real = exponents.best_error
    seen = []

    def spy(Y, theta, T, method="kernel"):
        seen.append((T, theta is None))
        return real(Y, theta, T, method=method)

    def fresh(T, shift=True):
        try:
            return real(Y, theta if shift else None, T, method).B
        except PrecisionExhaustedError:
            return DegValue.censored_at(-Y.m)

    monkeypatch.setattr(exponents, "best_error", spy)
    Y = SeriesMatrix(
        [[random_series(F2, floor, derive_rng(31, "once", n, j)) for j in range(n)]]
    )
    theta = (random_series(F2, floor - 1, derive_rng(31, "once-theta", n)),)
    prof = profile(Y, theta, T_max, "standard", method)
    bounds = [n * D + 1 for D in range(calls)]
    # one call per bound: the shifted profile's decides its homogeneous
    # sibling too, and a bound only the sibling sends goes without theta
    if method == "brute":
        assert seen == [(T, False) for T in bounds]
    else:  # the order basis decides the other bounds
        shifted = basis_calls(n, [fresh(T) for T in bounds])
        alone = [T for T in basis_calls(n, [fresh(T, False) for T in bounds]) if T not in shifted]
        assert seen == sorted([(T, False) for T in shifted] + [(T, True) for T in alone])
    assert [e.B for e in prof.entries] == [fresh(T) for T in range(1, T_max + 1)]
    assert [e.B for e in prof.homogeneous.entries] == [fresh(T, False) for T in range(1, T_max + 1)]


@pytest.mark.parametrize("kind", ["standard", "multiplicative"])
@pytest.mark.parametrize("rows", [1, 3])
def test_profile_rejects_a_shift_of_the_wrong_length(monkeypatch, rows, kind):
    # before either route runs: the order basis would otherwise read a
    # wrong shift, or fail inside with an unrelated message
    import ffdioph.exponents as exponents

    def unreached(*args, **kwargs):
        raise AssertionError("a route ran on a shift of the wrong length")

    for name in ("best_error", "best_error_mult", "order_basis_depths"):
        monkeypatch.setattr(exponents, name, unreached)
    Y = random_matrix(Fq(3), 2, 1, -20, "length")
    theta = tuple(random_series(Y.field, -20, derive_rng(21, "length", i)) for i in range(rows))
    with pytest.raises(ValueError, match="shift vector length must match row count"):
        profile(Y, theta, 6, kind)


@pytest.mark.parametrize("method", ["kernel", "brute"])
@pytest.mark.parametrize("kind", ["standard", "multiplicative"])
def test_exact_zero_shift_profile_is_the_homogeneous_one(kind, method):
    # the input gate reads an all-exact-zero shift as None: the same
    # profile, with no homogeneous sibling, on truncated and exact Y
    literal = SeriesMatrix([[parse_series_literal(t, F2) for t in ("X^-1 + X^-4", "X^-3")]])
    zero = (LaurentSeries.zero(F2),)
    for Y in (random_matrix(F2, 1, 2, -14, "zero-shift"), literal):
        prof = profile(Y, zero, 6, kind, method)
        assert prof == profile(Y, None, 6, kind, method)
        assert prof.homogeneous is None


@pytest.mark.parametrize("shifted", [False, True], ids=["homogeneous", "shifted"])
@pytest.mark.parametrize("kind", ["standard", "multiplicative"])
def test_profile_rejects_an_unknown_method(monkeypatch, kind, shifted):
    # the input gate refuses the method before either route or the order
    # basis runs, as it refuses a shift of the wrong length
    import ffdioph.exponents as exponents

    def unreached(*args, **kwargs):
        raise AssertionError("a route ran with an unknown method")

    for name in ("best_error", "best_error_mult", "order_basis_depths"):
        monkeypatch.setattr(exponents, name, unreached)
    Y = random_matrix(F2, 1, 2, -20, "method")
    shift = shifts_on_floor(F2, 1, -20, "method")["random"] if shifted else None
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        profile(Y, shift, 6, kind, method="bogus")


def test_profile_reuses_a_censored_degree_bound(monkeypatch):
    import ffdioph.exponents as exponents

    seen = []

    def exhausted(Y, theta, T, method="kernel"):
        seen.append(T)
        raise PrecisionExhaustedError("no digits")

    monkeypatch.setattr(exponents, "best_error", exhausted)
    Y = SeriesMatrix([[LaurentSeries.zero(F2)] * 2])
    prof = profile(Y, None, 4, "standard")
    assert seen == [1, 3]
    assert [e.B for e in prof.entries] == [DegValue.censored_at(-1)] * 4


def per_bound(Y, theta, T, method="kernel"):
    """B(T) from best_error alone, as profile records it."""
    from ffdioph.approx import best_error

    try:
        return best_error(Y, theta, T, method).B
    except PrecisionExhaustedError:
        return DegValue.censored_at(-Y.m)


def basis_calls(n, bounds):
    """The T at which a kernel profile calls best_error, from the values of
    its degree bounds D = 0, 1, ...: every capped D (censored, or an exact
    hit) and, as the check, the deepest uncapped one."""
    capped = [B.censored or B.value == NEG_INF for B in bounds]
    last = max((D for D, c in enumerate(capped) if not c), default=None)
    return [n * D + 1 for D, c in enumerate(capped) if c or D == last]


def random_matrix(F, m, n, floor, *tags):
    return SeriesMatrix(
        [[random_series(F, floor, derive_rng(21, *tags, i, j)) for j in range(n)] for i in range(m)]
    )


BASIS_FIELDS = {
    "F2": Fq(2),
    "F3": Fq(3),
    "F4": Fq(2, 2),
    "F5": Fq(5),
    "F9": Fq(3, 2),
    "F67": Fq(67),
    "F128": Fq(2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),  # X^7 + X + 1
}


def shifts_on_floor(F, m, floor, *tags):
    """Shifts whose non-zero entries sit on Y's floor: a random one, one whose
    first 1-3 digits are zero in every row, and one zero down to the floor
    (not exact zero)."""
    rand = [random_series(F, floor, derive_rng(21, "shift", *tags, i)) for i in range(m)]
    z = 1 + derive_rng(21, "zeros", *tags).randrange(3)
    lead = [
        LaurentSeries.from_terms(F, {e: c for e, c in t.terms().items() if e < -z}, floor)
        for t in rand
    ]
    zero = [LaurentSeries.zero(F, floor)] * m
    return {"random": rand, "leading-zeros": lead, "zero-to-floor": zero}


@pytest.mark.parametrize("name", list(BASIS_FIELDS))
def test_basis_profile_equals_best_error_per_degree_bound(name):
    # a kernel profile reads its uncapped entries off the order basis; each
    # must equal best_error's own scan, at deep floors (nearly all uncapped)
    # and shallow ones (mostly capped), with theta None on every shape and
    # one of shifts_on_floor's shifts in turn
    F = BASIS_FIELDS[name]
    uncapped = capped = 0
    kinds = []
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]:
        for floor, T_max in [(-60 - 10 * m * n % 31, 10 * n), (-6 - m * n, 12 * n)]:
            Y = random_matrix(F, m, n, floor, "basis", name, m, n, floor)
            shifts = shifts_on_floor(F, m, floor, name, m, n)
            kind = list(shifts)[len(kinds) % len(shifts)]
            kinds.append(kind)
            for theta in (None, shifts[kind]):
                prof = profile(Y, theta, T_max, "standard", "kernel")
                want = []  # best_error depends on T only through D = (T-1)//n
                for T in range(1, T_max + 1):
                    want.append(want[-1] if (T - 1) % n else per_bound(Y, theta, T))
                assert [e.B for e in prof.entries] == want, (m, n, floor, theta and kind)
                bounds = [prof.entry(n * D + 1) for D in range((T_max - 1) // n + 1)]
                capped += sum(e.censored for e in bounds)
                uncapped += sum(not e.censored for e in bounds)
    assert uncapped >= 140 and capped >= 60
    # the basis works out its own floor: exact entries, several floors and
    # a shift on a floor of its own take the same route
    for layout, (Y, theta, T_max) in floor_layouts(F, name).items():
        prof = profile(Y, theta, T_max, "standard", "kernel")
        want = [per_bound(Y, theta, T) for T in range(1, T_max + 1, Y.n)]
        assert [prof.entry(T).B for T in range(1, T_max + 1, Y.n)] == want, layout


def floor_layouts(F, *tags):
    """(Y, theta, T_max) on floors other than one common one: exact entries,
    the zero matrix, exact entries beside truncated ones, two floors, shifts
    on a shallower and on a deeper floor than Y's, an exact shift, and
    shifts on Y's floor whose digits -1..-z are zero and -(z+1) is not."""

    def exact(*tags):  # a Laurent polynomial with its last digit at -5
        terms = {-e: derive_rng(21, "exact", *tags, e).randrange(F.q) for e in range(1, 5)}
        return LaurentSeries.from_terms(F, {**terms, -5: 1})

    def series(floor, *tags):
        return random_series(F, floor, derive_rng(21, "layout", *tags, floor))

    def zeros_to(z):  # on Y's floor, zθ = z: digits -1..-z zero, -(z+1) not
        terms = {e: c for e, c in series(-14, *tags, "zeros", z).terms().items() if e < -z - 1}
        return (LaurentSeries.from_terms(F, {**terms, -z - 1: 1}, -14),)

    literal = SeriesMatrix([[exact(*tags, j) for j in range(2)]])
    zero = SeriesMatrix([[LaurentSeries.zero(F)], [LaurentSeries.zero(F)]])
    beside = SeriesMatrix(
        [[exact(*tags, "beside"), series(-14, *tags)], [series(-14, *tags, 1), series(-14, *tags, 2)]]
    )
    two = SeriesMatrix([[series(-13, *tags)], [series(-16, *tags)]])
    Y = random_matrix(F, 1, 1, -14, "layout", *tags)
    return {
        "exact": (literal, None, 12),
        "exact-shifted": (literal, (exact(*tags, "shift"),), 12),
        "zero": (zero, None, 5),
        "exact-beside-truncated": (beside, None, 10),
        "mixed-floors": (two, (series(-15, *tags, "shift"),) * 2, 10),
        "shift-shallower": (Y, (series(-11, *tags, "shift"),), 12),
        "shift-deeper": (Y, (series(-17, *tags, "shift"),), 12),
        "exact-shift": (Y, (exact(*tags, "shift"),), 12),
        "zeros-to-1": (Y, zeros_to(1), 12),
        "zeros-to-3": (Y, zeros_to(3), 12),
    }


def _call_list_inputs():
    F3 = Fq(3)
    cases = {}
    for m, n, floor, T_max in [(1, 1, -12, 14), (1, 2, -9, 16), (2, 1, -10, 9), (2, 2, -11, 14)]:
        Y = random_matrix(F3, m, n, floor, "spy", m, n)
        shifts = {
            None: None,
            "zero": (LaurentSeries.zero(F3),) * m,
            "random": shifts_on_floor(F3, m, floor, "spy", m, n)["random"],
        }
        for theta, shift in shifts.items():
            cases[f"{m}-{n}-{floor}-{T_max}-{theta}"] = (Y, shift, T_max)
    common = random_matrix(F3, 1, 2, -40, "route")
    exact = SeriesMatrix([[parse_series_literal(t, F3) for t in ("X^-1 + X^-4", "X^-2 + X^-3")]])
    mixed = SeriesMatrix([[common.entry(0, 0), common.entry(0, 1).truncate(-39)]])
    shift = (random_series(F3, -39, derive_rng(21, "route-theta")),)
    cases["exact"] = (exact, None, 7)
    # X^-6: depth 5 for every D <= 5, past L - D from D = 2 on if L were
    # only the exact cap 7; the basis reads these D as it takes L = 7 + D_max
    cases["exact-deep"] = (SeriesMatrix([[parse_series_literal("X^-6", F3)]]), None, 8)
    cases["mixed-floor"] = (mixed, None, 29)
    cases["shifted"] = (common, shift, 29)
    return cases


@pytest.mark.parametrize("case", list(_call_list_inputs()))
def test_basis_profile_calls_best_error_at_capped_and_check_bounds(monkeypatch, case):
    # best_error decides each capped degree bound and, as a check, the
    # deepest uncapped one, and no other: homogeneous, with an all-exact-zero
    # theta or a random one on Y's floor, and on an exact Y, two floors and
    # a shift on a floor of its own
    import ffdioph.exponents as exponents

    real = exponents.best_error
    seen = []

    def spy(Y, theta, T, method="kernel"):
        seen.append((T, theta is None))
        return real(Y, theta, T, method=method)

    Y, shift, T_max = _call_list_inputs()[case]
    n = Y.n
    bounds = [per_bound(Y, shift, n * D + 1) for D in range((T_max - 1) // n + 1)]
    calls = basis_calls(n, bounds)
    # some D to read off the basis, and a capped one
    assert calls[0] > 1 and len(calls) > 1
    # a shift not exactly zero: the shifted profile's call decides its
    # homogeneous sibling too, and a bound only the sibling sends goes
    # without theta; an exactly zero shift reaches best_error as None
    sibling = shift is not None and not all(t.is_exact_zero() for t in shift)
    hom = [per_bound(Y, None, n * D + 1) for D in range(len(bounds))] if sibling else []
    monkeypatch.setattr(exponents, "best_error", spy)
    prof = profile(Y, shift, T_max, "standard", "kernel")
    alone = [T for T in basis_calls(n, hom) if T not in calls]
    assert seen == sorted([(T, not sibling) for T in calls] + [(T, True) for T in alone])
    assert [prof.entry(n * D + 1).B for D in range(len(bounds))] == bounds
    if sibling:
        assert [prof.homogeneous.entry(n * D + 1).B for D in range(len(bounds))] == hom
    else:
        assert prof.homogeneous is None


def test_sibling_alone_decides_the_bounds_only_it_sends(monkeypatch):
    # an exact Y beside a random shift: the sibling meets exact hits (-inf,
    # capped) at bounds the shifted profile reads off its basis; those go to
    # best_error without theta, and only the shifted profile's own bounds
    # carry theta, so no bound pays theta's scan and witness for nothing
    import ffdioph.exponents as exponents

    F3 = Fq(3)
    Y = SeriesMatrix([[parse_series_literal("X^-1 + 2*X^-3", F3)]])
    theta = (random_series(F3, -24, derive_rng(21, "alone")),)
    shifted = basis_calls(1, [per_bound(Y, theta, T) for T in range(1, 13)])
    alone = [T for T in basis_calls(1, [per_bound(Y, None, T) for T in range(1, 13)]) if T not in shifted]
    assert alone  # bounds that only the sibling sends
    real, seen = exponents.best_error, []

    def spy(Y, theta, T, method="kernel"):
        seen.append((T, theta is None))
        return real(Y, theta, T, method=method)

    monkeypatch.setattr(exponents, "best_error", spy)
    prof = profile(Y, theta, 12)
    monkeypatch.undo()
    assert seen == sorted([(T, False) for T in shifted] + [(T, True) for T in alone])
    assert [e.B for e in prof.entries] == [per_bound(Y, theta, T) for T in range(1, 13)]
    assert prof.homogeneous == profile(Y, None, 12)


def test_basis_profile_check_refuses_a_wrong_value(monkeypatch):
    import ffdioph.exponents as exponents

    real = exponents.best_error

    def off_by_one(Y, theta, T, method="kernel"):
        be = real(Y, theta, T, method=method)
        return be if be.censored else be.replace(B=be.B.shift(-1))

    monkeypatch.setattr(exponents, "best_error", off_by_one)
    Y = random_matrix(F2, 1, 1, -40, "wrong")
    for theta in (None, shifts_on_floor(F2, 1, -40, "wrong")["random"]):
        with pytest.raises(AssertionError, match="order basis gives B"):
            profile(Y, theta, 12, "standard", "kernel")


def _profile_inputs():
    return {
        "brute": (random_matrix(F2, 1, 2, -12, "route-brute"), None, "standard", "brute"),
        # m = 2: the multiplicative kernel route enumerates per horizon
        "multiplicative": (random_matrix(F2, 2, 1, -40, "route"), None, "multiplicative", "kernel"),
    }


@pytest.mark.parametrize("case", list(_profile_inputs()))
def test_other_profiles_call_best_error_for_every_bound(monkeypatch, case):
    import ffdioph.exponents as exponents

    Y, theta, kind, method = _profile_inputs()[case]
    seen = []
    for name in ("best_error", "best_error_mult"):
        real = getattr(exponents, name)

        def spy(Y, theta, T, method="kernel", real=real):
            seen.append(T)
            return real(Y, theta, T, method=method)

        monkeypatch.setattr(exponents, name, spy)
    T_max = 7
    profile(Y, theta, T_max, kind, method)
    step = Y.n if kind == "standard" else 1
    assert seen == list(range(1, T_max + 1, step))


def per_horizon_mult(Y, theta, T):
    """B(T) from best_error_mult's kernel route alone, as profile records it."""
    from ffdioph.approx import best_error_mult

    try:
        return best_error_mult(Y, theta, T).B
    except PrecisionExhaustedError:
        return DegValue.censored_at(-Y.m)


def mult_inputs(F, *tags):
    """(Y, theta, T_max) of m = 1 multiplicative profiles: n = 1, 2, 3 on a
    deep floor, homogeneous and with a random shift, and on a shallow floor
    where shapes reach their caps; an exact literal, homogeneous and with an
    exact shift; and columns and a shift on floors of their own."""
    cases = {}
    for n, T_max in [(1, 12), (2, 10), (3, 7)]:
        for floor in (-40, -5 - n):
            Y = random_matrix(F, 1, n, floor, "mult", *tags, n, floor)
            theta = (random_series(F, floor, derive_rng(21, "mult-theta", *tags, n, floor)),)
            cases[f"1x{n}{floor}"] = (Y, None, T_max)
            cases[f"1x{n}{floor}-shifted"] = (Y, theta, T_max)
    # X^-1 and X^-(3+j) with nonzero digits: X^3 and X^4 clear the two
    # columns, exact hits from T = 4 on, all capped
    exact = [
        LaurentSeries.from_terms(
            F, {-1 - e: 1 + derive_rng(21, "lit", *tags, j, e).randrange(F.q - 1) for e in (0, 2 + j)}
        )
        for j in range(3)
    ]
    cases["exact"] = (SeriesMatrix([exact[:2]]), None, 9)
    cases["exact-shifted"] = (SeriesMatrix([exact[:2]]), (exact[2],), 9)
    cols = [random_series(F, floor, derive_rng(21, "mixed", *tags, floor)) for floor in (-13, -16, -11)]
    cases["mixed-floors"] = (SeriesMatrix([cols[:2]]), (random_series(F, -15, derive_rng(21, "mixed", *tags)),), 10)
    cases["shift-shallower"] = (SeriesMatrix([cols[1:]]), (cols[0],), 8)
    return cases


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F128"])
def test_mult_basis_profile_equals_best_error_mult_per_horizon(name):
    # an m = 1 multiplicative kernel profile reads each horizon whose shapes
    # are all uncapped off one order basis per column shift vector; every
    # entry must equal best_error_mult's own scans over the shapes
    import ffdioph.exponents as exponents

    F = BASIS_FIELDS[name]
    read = total = 0
    for case, (Y, theta, T_max) in mult_inputs(F, name).items():
        prof = profile(Y, theta, T_max, "multiplicative", "kernel")
        want = [per_horizon_mult(Y, theta, T) for T in range(1, T_max + 1)]
        assert [e.B for e in prof.entries] == want, case
        read += len(exponents._basis_reads(Y, [theta], T_max, "multiplicative")[0])
        total += T_max
    # both routes are reached: horizons off the bases and capped ones
    assert 60 <= read <= total - 30


@pytest.mark.parametrize("name, n", [("F2", 2), ("F2", 3), ("F3", 2)], ids=["F2-1x2", "F2-1x3", "F3-1x2"])
@pytest.mark.parametrize("shifted", [False, True], ids=["homogeneous", "shifted"])
def test_mult_basis_profile_equals_best_error_mult_at_long_horizons(name, n, shifted):
    # T_max 20 on a deep floor: every horizon is read off the order bases,
    # and each must equal best_error_mult's own scans over its shapes
    import ffdioph.exponents as exponents

    F, T_max = BASIS_FIELDS[name], 20
    floor = -3 * T_max - 20
    Y = random_matrix(F, 1, n, floor, "mult-long", n)
    theta = (random_series(F, floor, derive_rng(21, "mult-long", name, n)),) if shifted else None
    prof = profile(Y, theta, T_max, "multiplicative", "kernel")
    assert [e.B for e in prof.entries] == [per_horizon_mult(Y, theta, T) for T in range(1, T_max + 1)]
    assert len(exponents._basis_reads(Y, [theta], T_max, "multiplicative")[0]) == T_max


def _mult_capped(Y, theta, T):
    """Whether some shape of horizon T is at its scan cap."""
    from ffdioph.approx import _deepest_feasible_depth, _search_caps, compositions

    for shape in compositions(T - 1, Y.n):
        cap, _ = _search_caps(Y, theta, list(shape))
        ((K, _),) = _deepest_feasible_depth(Y, theta, list(shape), [cap])
        if K == cap:
            return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shifted", [False, True], ids=["homogeneous", "shifted"])
def test_mult_basis_profile_calls_best_error_mult_at_capped_and_check_horizons(monkeypatch, n, shifted):
    # on one common floor a shape is capped for its basis exactly when it is
    # for its scan, so best_error_mult decides the horizons with a capped
    # shape and, as a check, the deepest other one, and no other horizon
    import ffdioph.exponents as exponents

    F3 = Fq(3)
    T_max, floor = {1: 10, 2: 9, 3: 7}[n], -3 * n - 4
    Y = random_matrix(F3, 1, n, floor, "mult-spy", n)
    theta = (random_series(F3, floor, derive_rng(21, "mult-spy", n)),) if shifted else None
    capped = [T for T in range(1, T_max + 1) if _mult_capped(Y, theta, T)]
    check = max(T for T in range(1, T_max + 1) if T not in capped)
    assert capped and check < T_max  # some horizons to read off the bases
    real, seen = exponents.best_error_mult, []

    def spy(Y, theta, T, method="kernel"):
        seen.append(T)
        return real(Y, theta, T, method=method)

    monkeypatch.setattr(exponents, "best_error_mult", spy)
    prof = profile(Y, theta, T_max, "multiplicative", "kernel")
    assert seen == sorted(capped + [check])
    monkeypatch.undo()
    assert [e.B for e in prof.entries] == [per_horizon_mult(Y, theta, T) for T in range(1, T_max + 1)]


@pytest.mark.parametrize("shifted", [False, True], ids=["homogeneous", "shifted"])
def test_column_shifted_basis_decides_no_bound_below_its_largest_shift(shifted):
    # no shape of shifts r reads a D below max r: those entries are None,
    # and every D from max r to D_max (none capped on this deep floor) has
    # its K; profile tests check the values against best_error_mult
    from ffdioph.approx import order_basis_depths

    F3 = Fq(3)
    Y = random_matrix(F3, 1, 3, -60, "below-shift")
    theta = (random_series(F3, -60, derive_rng(21, "below-shift-theta")),) if shifted else None
    for r in [(0, 2, 1), (3, 0, 0), (0, 0, 0)]:
        (depths,) = order_basis_depths(Y, [theta], 12, r)
        assert depths[: max(r)] == [None] * max(r)
        assert len(depths) == 13 and None not in depths[max(r) :]


@pytest.mark.parametrize("name, m, n, T_max", [("F3", 1, 1, 160), ("F2", 2, 2, 80)])
def test_long_horizon_basis_equals_best_error_at_sampled_bounds(name, m, n, T_max):
    # a shift's one carried row moves on through every degree bound of a
    # long horizon; the entries it gives must still be best_error's, from
    # the first degree bound to the last, all uncapped on floor -3T-20
    F = BASIS_FIELDS[name]
    floor = -3 * T_max - 20
    Y = random_matrix(F, m, n, floor, "long", name)
    theta = shifts_on_floor(F, m, floor, "long", name)["random"]
    prof = profile(Y, theta, T_max, "standard", "kernel")
    top = (T_max - 1) // n
    for D in sorted({round(top * k / 5) for k in range(6)}):
        B = prof.entry(n * D + 1).B
        assert not B.censored and B == per_bound(Y, theta, n * D + 1), D


def test_shifted_order_basis_carries_one_row_per_side(monkeypatch):
    # a shift costs the basis at most a few row operations per degree bound
    # beside the homogeneous run (104 here): it carries one row, where a row
    # per open degree bound, each reduced at every column, costs about 8700
    from ffdioph import approx

    F3 = Fq(3)
    Y = random_matrix(F3, 1, 1, -500, "carried")
    theta = (random_series(F3, -500, derive_rng(21, "carried-theta")),)
    real, calls = Fq.sub_scaled, [0]

    def counted(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(Fq, "sub_scaled", counted)
    approx.order_basis_depths(Y, [None], 160)
    homogeneous, calls[0] = calls[0], 0
    approx.order_basis_depths(Y, [theta], 160)
    assert calls[0] - homogeneous < 2 * (160 + 1)


def test_order_basis_refuses_a_lost_pivot(monkeypatch):
    # the degree sum sum(r) + m(s+2) after order s holds only when every
    # step finds a pivot; residuals that lose every row must raise
    import ffdioph.approx as approx

    Y = random_matrix(F2, 1, 3, -30, "pivot")
    assert approx.order_basis_depths(Y, [None], 6, (0, 2, 1))[0]
    monkeypatch.setattr(approx, "pack_gf2", lambda digits: 0)
    with pytest.raises(AssertionError, match="order basis found no pivot at order 0"):
        approx.order_basis_depths(Y, [None], 6, (0, 2, 1))


def _window_inputs():
    F3, F128 = Fq(3), BASIS_FIELDS["F128"]
    den = Poly(F3, [1, 1, 1])
    rational = SeriesMatrix([[rational_series(F3, Poly(F3, [1]), den, -30)]])
    return {
        # (Y, theta, L, D_max), L = -floor being the depth the basis may read;
        # F128 3x2: the basis stops inside its window of 21 orders, far
        # above the floor -89
        "window": (random_matrix(F128, 3, 2, -89, "basis", "F128", 3, 2, -89), None, 89, 9),
        # 1/(X^2+X+1): δ stays at most 2, so the basis never stops and every
        # D >= 2 is at its cap; the same with a shift of one denominator
        "fallback": (rational, None, 30, 6),
        "fallback-shifted": (rational, (rational_series(F3, Poly(F3, [0, 1]), den, -30),), 30, 6),
    }


@pytest.mark.parametrize("case", list(_window_inputs()))
def test_order_basis_reads_all_digits_only_past_its_window(monkeypatch, case):
    # the basis reduces residuals over a window of orders first and over all
    # L digits only when it has not stopped inside it; either way its depths
    # are the scan's, and the first capped D is capped for best_error too
    from ffdioph.approx import order_basis_depths

    Y, theta, L, D_max = _window_inputs()[case]
    entries = [s for row in Y.rows for s in row]
    real, lows = LaurentSeries.digits, []

    def spy(self, hi, lo):
        if any(self is s for s in entries):
            lows.append(lo)
        return real(self, hi, lo)

    monkeypatch.setattr(LaurentSeries, "digits", spy)
    (depths,) = order_basis_depths(Y, [theta], D_max)
    monkeypatch.undo()
    if case == "window":
        assert -L < min(lows) and len(depths) == D_max + 1
    else:
        assert -L < max(lows) and min(lows) == -L and len(depths) <= D_max
    n, m = Y.n, Y.m
    got = [DegValue.exact(-(K + 1) * m) for K in depths]
    assert got == [per_bound(Y, theta, n * D + 1) for D in range(len(depths))]
    if len(depths) <= D_max:
        assert per_bound(Y, theta, n * len(depths) + 1).censored


def _brute_horizon(F, n, T_max):
    """The largest T <= T_max whose degree bound D keeps the enumeration
    small, q**(n*(D+1)) <= 64, or else T = 1."""
    D = 0
    while F.q ** (n * (D + 2)) <= 64:
        D += 1
    return min(T_max, n * D + 1)


@pytest.mark.parametrize("method", ["kernel", "brute"])
@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F128"])
def test_homogeneous_sibling_equals_a_separate_homogeneous_profile(name, method):
    # a shifted standard profile carries the profile of (Y, None), read off
    # the same basis run (kernel) or decided horizon by horizon (brute); it
    # must equal a profile of its own on every floor layout, including the
    # shifts on floors of their own, whose caps differ from Y's, shifts zero
    # to -1 and -3 only, and shifts zero down to Y's floor and to a
    # shallower one (zθ = L), and one known only above X^1, whose entries run
    # out of precision; an exactly zero shift and no shift give no sibling
    F = BASIS_FIELDS[name]
    cases = floor_layouts(F, name)
    Y = cases["shift-deeper"][0]  # 1x1 on floor -14
    cases["zero-to-floor"] = (Y, (LaurentSeries.zero(F, -14),), 12)
    cases["zero-to-shallower"] = (Y, (LaurentSeries.zero(F, -11),), 12)
    cases["exact-zero"] = (Y, (LaurentSeries.zero(F),), 12)
    # a shift known only above X^1: its side runs out of precision at every
    # horizon, and the sibling is decided by calls of its own
    cases["shift-above-0"] = (Y, (LaurentSeries(F, 2, [1, 0], 1),), 12)
    compared = 0
    for layout, (Y, theta, T_max) in cases.items():
        unshifted = theta is None or all(t.is_exact_zero() for t in theta)
        if method == "brute":
            if theta is None:
                continue  # nothing to compare, and the kernel pass asserts None
            T_max = _brute_horizon(F, Y.n, T_max)
        prof = profile(Y, theta, T_max, "standard", method)
        if unshifted:
            assert prof.homogeneous is None, layout
            continue
        assert prof.homogeneous == profile(Y, None, T_max, "standard", method), layout
        assert prof.homogeneous.homogeneous is None
        if method == "kernel":  # and the shifted entries, read off the same run
            want = [per_bound(Y, theta, T) for T in range(1, T_max + 1, Y.n)]
            assert [prof.entry(T).B for T in range(1, T_max + 1, Y.n)] == want, layout
        compared += 1
    assert compared == 10


def _shared_basis_inputs(F, *tags):
    """(Y, thetas, D_max, col_shifts) for one shared order basis run: shifts
    on Y's floor, on a shallower and a deeper one, an exact one, ones zero
    to Y's floor and to a shallower one, and None; 1x2 also with column
    shifts."""
    cases = {}
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for floor, D_max in [(-40, 8), (-9, 6)]:
            Y = random_matrix(F, m, n, floor, "shared", *tags, m, n, floor)

            def shift(f, tag):
                return tuple(
                    random_series(F, f, derive_rng(21, "shared", *tags, m, n, tag, i)) for i in range(m)
                )

            thetas = [
                shift(floor, "same"),
                None,
                shift(floor + 3, "shallower"),
                shift(floor - 3, "deeper"),
                (LaurentSeries.from_terms(F, {-2: 1, -5: 1}),) * m,
                (LaurentSeries.zero(F, floor),) * m,
                (LaurentSeries.zero(F, floor + 3),) * m,
            ]
            for r in [None] + ([(0, 1), (2, 0)] if (m, n) == (1, 2) else []):
                cases[f"{m}x{n}{floor}-{r}"] = (Y, thetas, D_max, r)
    return cases


@pytest.mark.parametrize("name", ["F2", "F3", "F4"])
def test_shared_order_basis_equals_one_run_per_shift(name):
    # one run over several right-hand sides gives each the depths a run of
    # its own gives, whatever its cap and wherever it sits in the sequence
    from ffdioph.approx import order_basis_depths

    F = BASIS_FIELDS[name]
    for case, (Y, thetas, D_max, r) in _shared_basis_inputs(F, name).items():
        alone = [order_basis_depths(Y, [theta], D_max, r)[0] for theta in thetas]
        assert order_basis_depths(Y, thetas, D_max, r) == alone, case
        assert order_basis_depths(Y, thetas[::-1], D_max, r) == alone[::-1], case
        for theta, depths in zip(thetas, alone):  # as a standard profile asks
            assert order_basis_depths(Y, [theta, None], D_max, r) == [depths, alone[1]], case


def test_shared_order_basis_refuses_a_lost_pivot(monkeypatch):
    # the degree-sum check guards a run with a shift and its homogeneous
    # sibling as it guards a run of one
    import ffdioph.approx as approx

    Y = random_matrix(F2, 1, 1, -30, "pivot-shared")
    thetas = [shifts_on_floor(F2, 1, -30, "pivot-shared")["random"], None]
    assert all(approx.order_basis_depths(Y, thetas, 6))
    monkeypatch.setattr(approx, "pack_gf2", lambda digits: 0)
    with pytest.raises(AssertionError, match="order basis found no pivot at order 0"):
        approx.order_basis_depths(Y, thetas, 6)
