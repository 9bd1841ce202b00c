import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ffdioph import (
    DegValue,
    Fq,
    LaurentSeries,
    NEG_INF,
    ParseError,
    Poly,
    PrecisionExhaustedError,
    deg_lt,
    deg_max,
    deg_sum,
    parse_series_literal,
)

F2 = Fq(2)
F3 = Fq(3)
F4 = Fq(2, 2)
F9 = Fq(3, 2)


def S(text, field=F2, floor=NEG_INF):
    return parse_series_literal(text, field, floor)


# exact finite Laurent polynomials over F_2 with exponents in [-6, 4]
def exact_series(field=F2):
    return st.dictionaries(
        st.integers(-6, 4), st.integers(1, field.q - 1), max_size=5
    ).map(lambda terms: LaurentSeries.from_terms(field, terms))


# ---------------------------------------------------------------------------
# DegValue combinators
# ---------------------------------------------------------------------------


def test_deg_max_censoring_rules():
    exact = DegValue.exact
    cens = DegValue.censored_at
    assert deg_max([exact(2), cens(1)]) == exact(2)
    assert deg_max([exact(2), cens(2)]) == exact(2)
    assert deg_max([exact(1), cens(2)]) == cens(2)
    assert deg_max([exact(NEG_INF), exact(NEG_INF)]) == exact(NEG_INF)


def test_deg_sum_zero_beats_censoring():
    assert deg_sum([DegValue.exact(NEG_INF), DegValue.censored_at(-5)]) == DegValue.exact(
        NEG_INF
    )
    assert deg_sum([DegValue.exact(2), DegValue.censored_at(-5)]) == DegValue.censored_at(-3)


def test_deg_lt_decisions():
    assert deg_lt(DegValue.exact(-3), -2)
    assert not deg_lt(DegValue.exact(-2), -2)
    assert deg_lt(DegValue.censored_at(-5), -4)
    with pytest.raises(PrecisionExhaustedError):
        deg_lt(DegValue.censored_at(-2), -4)
    assert deg_lt(DegValue.exact(-1), Fraction(-1, 2))


# ---------------------------------------------------------------------------
# arithmetic properties
# ---------------------------------------------------------------------------


@given(exact_series(), exact_series())
def test_ultrametric(f, g):
    s = f + g
    df, dg, ds = f.deg().value, g.deg().value, s.deg().value
    assert ds <= max(df, dg)
    if df != dg:
        assert ds == max(df, dg)


@given(exact_series(), exact_series())
def test_degree_multiplicative(f, g):
    prod = f * g
    if f.is_exact_zero() or g.is_exact_zero():
        assert prod.is_exact_zero()
    else:
        assert prod.deg().value == f.deg().value + g.deg().value


@given(exact_series(), st.one_of(st.none(), st.integers(-7, 0)))
def test_split_parts_reconstruction(f, floor):
    if floor is not None:
        f = f.truncate(floor)  # a floor <= 0 leaves the polynomial part known
    poly, frac = f.split_parts()
    assert frac.is_known_zero() or frac.deg().value <= -1
    assert frac.floor == f.floor
    back = LaurentSeries.from_poly(poly) + frac
    assert back == f


def test_split_parts_examples():
    poly, frac = S("X^2 + 1 + X^-3").split_parts()
    assert poly.to_literal() == "1 + X^2" and frac.to_literal() == "X^-3"
    poly, frac = S("X^-1").split_parts()
    assert poly.is_zero() and frac.to_literal() == "X^-1"
    poly, frac = S("X^3").split_parts()
    assert poly.to_literal() == "X^3" and frac.is_exact_zero()


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------


def test_inverse_example_f2():
    inv = S("X + 1").inverse(-4)
    assert inv.to_literal() == "X^-4 + X^-3 + X^-2 + X^-1"
    back = S("X + 1") * inv
    assert back.coeff(0) == 1
    assert all(back.coeff(e) == 0 for e in range(back.floor, 0))


def test_inverse_monomial_exact():
    inv = S("X^-1").inverse(-10)
    assert inv == S("X")
    assert S("1").inverse(-5) == S("1")


@given(exact_series(F3))
@settings(max_examples=60)
def test_inverse_multiply_back(f):
    if f.is_known_zero():
        return
    inv = f.inverse(-12)
    back = f * inv
    assert back.coeff(0) == 1
    lo = back.floor if back.floor != NEG_INF else 0
    assert all(back.coeff(e) == 0 for e in range(int(lo), 0))
    assert all(back.coeff(e) == 0 for e in range(1, back.top + 1)) or back.top <= 0


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(F2).inverse(-4)
    with pytest.raises(ValueError):
        LaurentSeries.zero(F2, floor=-5).inverse(-4)


def test_inverse_precision_guard():
    # inverse takes exact Laurent polynomials; a truncated input is refused
    # at any floor, however shallow
    f = S("X + 1").truncate(-3)  # digits below -3 unknown
    for floor in (-1, -4, -40):
        with pytest.raises(ValueError):
            f.inverse(floor)


# ---------------------------------------------------------------------------
# division by a polynomial
# ---------------------------------------------------------------------------


def _random_divisor(field, d, rng, monic):
    lead = 1 if monic or field.q == 2 else rng.randrange(2, field.q)
    return Poly(field, [rng.randrange(field.q) for _ in range(d)] + [lead])


def _random_numerator(field, rng, exact):
    top = rng.randrange(-6, 9)
    if exact:
        terms = {e: rng.randrange(field.q) for e in range(top - 12, top + 1)}
        return LaurentSeries.from_terms(field, terms)
    digits = [rng.randrange(1, field.q)] + [rng.randrange(field.q) for _ in range(top + 20)]
    return LaurentSeries(field, top, digits, -20)


@pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_div_poly_matches_inverse_product_and_multiplies_back(field):
    rng = random.Random(f"div_poly|{field.q}")
    for d in range(5):
        for trial in range(8):
            q = _random_divisor(field, d, rng, monic=trial % 2 == 0)
            a = _random_numerator(field, rng, exact=trial % 4 < 2)
            deepest = -40 if a.is_exact() else a.floor - d  # the deepest floor allowed
            for floor in (deepest, deepest + 3, a.top - d - 1, a.top - d, a.top - d + 2):
                g = a.div_poly(q, floor)
                assert g.floor == floor
                inv = LaurentSeries.from_poly(q).inverse(min(floor - max(a.top, 0) - 1, -d))
                assert g == (a * inv).truncate(floor)
                # q g agrees with a down to floor + d, the deepest digit g reads
                assert LaurentSeries.from_poly(q) * g == a.truncate(floor + d)


def test_div_poly_truncates_an_exact_quotient():
    q = Poly(F2, [1, 1])  # X + 1
    got = S("X^3 + X^2").div_poly(q, -3)
    assert got == LaurentSeries.from_terms(F2, {2: 1}, -3)
    assert LaurentSeries.zero(F2).div_poly(q, -5) == LaurentSeries.zero(F2, -5)
    assert S("X^-2").div_poly(q, -1) == LaurentSeries.zero(F2, -1)


def test_div_poly_precision_boundary():
    q = Poly(F3, [2, 0, 2])  # 2X^2 + 2: d = 2, non-monic
    a = S("X^3 + 2X^-1 + X^-9", F3).truncate(-20)
    assert a.div_poly(q, -22).floor == -22  # reads a down to -20 exactly
    with pytest.raises(PrecisionExhaustedError):
        a.div_poly(q, -23)
    with pytest.raises(PrecisionExhaustedError):
        LaurentSeries.zero(F3, floor=-4).div_poly(q, -7)
    with pytest.raises(ZeroDivisionError):
        a.div_poly(Poly.zero(F3), -5)
    with pytest.raises(ValueError):
        a.div_poly(Poly.one(F2), -5)


# ---------------------------------------------------------------------------
# precision floors
# ---------------------------------------------------------------------------


def test_truncation_consistency():
    f = S("X^2 + X^-1 + X^-4 + X^-7")
    g = S("1 + X^-2 + X^-6")
    deep = f * g
    shallow = f.truncate(-5) * g.truncate(-5)
    assert shallow.floor == -5 + 2  # unknown digits meet the other top
    for e in range(max(deep.top, shallow.top), shallow.floor - 1, -1):
        assert deep.coeff(e) == shallow.coeff(e)


@given(exact_series(), exact_series(), st.integers(-8, -1), st.sampled_from(["add", "mul"]))
def test_truncated_ops_never_fabricate_digits(f, g, floor, op):
    deep = f + g if op == "add" else f * g
    ft = f.truncate(floor) if f.floor == NEG_INF or floor >= f.floor else f
    gt = g.truncate(floor) if g.floor == NEG_INF or floor >= g.floor else g
    shallow = ft + gt if op == "add" else ft * gt
    if shallow.floor == NEG_INF:
        assert shallow == deep
        return
    hi = max(
        [t for t in (deep.top, shallow.top) if t != NEG_INF], default=None
    )
    if hi is None:
        return
    for e in range(hi, int(shallow.floor) - 1, -1):
        assert shallow.coeff(e) == deep.coeff(e)


def _oracle_top(terms, floor):
    """Largest exponent that may carry a nonzero digit."""
    if terms:
        return max(terms)
    return NEG_INF if floor == NEG_INF else floor - 1


def _oracle_add(field, f, g):
    """(terms, floor) of f + g, term by term from the operands' terms."""
    floor = max(f.floor, g.floor)
    out = {}
    for terms in (f.terms(), g.terms()):
        for e, c in terms.items():
            if e >= floor:
                out[e] = field.add(out.get(e, 0), c)
    return {e: c for e, c in out.items() if c}, floor


def _oracle_mul(field, f, g):
    """(terms, floor) of f * g by schoolbook over the operands' terms; the
    unknown digits of one factor meet the other's highest possible digit."""
    tf, tg = f.terms(), g.terms()
    floor = NEG_INF
    for lo, other_top in (
        (f.floor, _oracle_top(tg, g.floor)),
        (g.floor, _oracle_top(tf, f.floor)),
    ):
        if lo != NEG_INF and other_top != NEG_INF:
            floor = max(floor, lo + other_top)
    out = {}
    for ea, a in tf.items():
        for eb, b in tg.items():
            if ea + eb >= floor:
                out[ea + eb] = field.add(out.get(ea + eb, 0), field.mul(a, b))
    return {e: c for e, c in out.items() if c}, floor


def _series(field):
    """Exact or truncated series: terms on [-8, 5], floor none or in [-10, 3]."""
    terms = st.dictionaries(st.integers(-8, 5), st.integers(1, field.q - 1), max_size=6)
    floor = st.one_of(st.just(NEG_INF), st.integers(-10, 3))
    return st.builds(
        lambda t, fl: LaurentSeries.from_terms(
            field, {e: c for e, c in t.items() if e >= fl}, fl
        ),
        terms,
        floor,
    )


_series_pairs = st.sampled_from([F2, F3, F4]).flatmap(
    lambda field: st.tuples(_series(field), _series(field))
)


@given(_series_pairs)
@example((S("X^2 + X^-6"), S("X^-1", floor=-3)))  # g's floor cuts f's stored range
@example((S("X^-6 + X^-9", F3), S("2X^2", F3, floor=-2)))  # f lies wholly below it
@example((LaurentSeries.zero(F3, floor=-4), S("X + 2X^-7", F3)))  # known zero, finite floor
@example((LaurentSeries.zero(F2, floor=-4), LaurentSeries.zero(F2)))  # known zero times exact zero
@example((S("X^-1 + X^-2 + X^-3 + X^-5 + X^-8"), S("X^3", floor=-1)))  # lo cuts self.coeffs
@example((S("X + X^-2", F4), S("X^-1", F4)))  # exact operands
def test_add_mul_match_terms_oracle(pair):
    f, g = pair
    field = f.field
    for got, want in ((f + g, _oracle_add(field, f, g)), (f * g, _oracle_mul(field, f, g))):
        assert (got.terms(), got.floor) == want


F131 = Fq(131)  # above TABLE_LIMIT: the row ops run the computed digit loop


def _oracle_sub(field, f, g):
    """(terms, floor) of f - g, term by term from the operands' terms."""
    floor = max(f.floor, g.floor)
    out = {e: c for e, c in f.terms().items() if e >= floor}
    for e, c in g.terms().items():
        if e >= floor:
            out[e] = field.sub(out.get(e, 0), c)
    return {e: c for e, c in out.items() if c}, floor


_sub_pairs = st.sampled_from([F2, F3, F4, F131]).flatmap(
    lambda field: st.tuples(_series(field), _series(field))
)
_F3_TRUNC = S("X + 2X^-2 + X^-3", F3, floor=-5)
_F3_EXACT = S("2X^3 + X^-1", F3)


@given(_sub_pairs)
@example((S("X^2 + 2X^-1", F3), S("X^3 + X^-5", F3, floor=-6)))  # f's range ends above g's floor
@example((S("X^3 + X^-5", F3, floor=-6), S("X^2 + 2X^-1", F3)))  # the same, swapped
@example((_F3_TRUNC, _F3_TRUNC))  # f - f at a finite floor: a known zero that keeps it
@example((_F3_EXACT, _F3_EXACT))  # f - f on exact input: an exact zero
@example((S("X^3 + X^2 + 2X + X^-2", F3), S("X^3 + X^2 + 2X + 2X^-3", F3)))  # 4 digits cancel
@example((S("5X^2 + 130X^-1", F131), S("5X^2 + 7X^-4", F131, floor=-4)))  # computed branch
@example((LaurentSeries.zero(F131, floor=-3), S("X^-1", F131)))  # known zero minus exact
def test_sub_neg_match_terms_oracle(pair):
    f, g = pair
    field = f.field
    d = f - g
    assert (d.terms(), d.floor) == _oracle_sub(field, f, g)
    for s in (f, g):
        n = -s
        assert (n.terms(), n.floor) == ({e: field.neg(c) for e, c in s.terms().items()}, s.floor)
    assert d == f + (-g)
    if f == g:
        assert d.is_known_zero() and d.floor == f.floor


@pytest.mark.parametrize("make", [lambda: Fq(3), lambda: Fq(2, 2)], ids=["F3", "F4"])
def test_equal_fields_built_apart_combine(make):
    # two distinct but equal contexts mix freely; only a different field raises
    A, B = make(), make()
    assert A is not B and A == B
    f, g = S("X + X^-2", A), S("X^-1 + X^-2", B, floor=-3)
    assert (f + g).terms() == _oracle_add(A, f, g)[0]
    assert (f - g).terms() == _oracle_sub(A, f, g)[0]
    assert (f * g).terms() == _oracle_mul(A, f, g)[0]
    assert (Poly(A, [1, 1]) - Poly(B, [0, 1])).coeffs == (1,)
    h = S("X^-1", F2)
    for op in (lambda: f + h, lambda: f - h, lambda: f * h):
        with pytest.raises(ValueError, match="mixed-field series arithmetic"):
            op()
    with pytest.raises(ValueError, match="mixed-field polynomial arithmetic"):
        Poly(A, [1]) - Poly(F2, [1])


def test_censored_zero_degree():
    z = LaurentSeries.zero(F2, floor=-5)
    assert z.deg() == DegValue.censored_at(-6)
    assert LaurentSeries.zero(F2).deg() == DegValue.exact(NEG_INF)


def test_add_floor_propagation():
    a = S("X^-1", floor=-10)
    b = S("X^-2", floor=-4)
    assert (a + b).floor == -4


def test_coeff_below_floor_raises():
    f = S("X^-1", floor=-3)
    with pytest.raises(PrecisionExhaustedError):
        f.coeff(-4)


def test_constructor_normalizes_stored_digits():
    # leading zeros move top down, an exact series drops its trailing zeros,
    # a truncated one is padded down to its floor, and all zeros give a known
    # zero at the floor
    f = LaurentSeries(F3, 2, [0, 0, 1, 0, 2, 0, 0], NEG_INF)
    assert (f.top, f.coeffs) == (0, (1, 0, 2))
    g = LaurentSeries(F3, 2, [0, 1, 2], -3)
    assert (g.top, g.coeffs, g.floor) == (1, (1, 2, 0, 0, 0), -3)
    z = LaurentSeries(F3, 4, (0, 0), -2)
    assert z.is_known_zero() and (z.top, z.coeffs, z.floor) == (NEG_INF, (), -2)
    # a digit below the floor, also when the floor is above top
    for top, coeffs, floor in ((0, [1, 0, 1], -1), (-3, [1], -1)):
        with pytest.raises(ValueError, match="below the stated floor"):
            LaurentSeries(F3, top, coeffs, floor)


def _read(read):
    """(raised, digits) for a read that may hit a precision floor."""
    try:
        return False, read()
    except PrecisionExhaustedError:
        return True, None


@given(
    exact_series(F3),
    st.one_of(st.none(), st.integers(-8, 5)),
    st.integers(-12, 8),
    st.integers(-12, 8),
)
@example(S("X^-1 + X^-3", F3), None, 7, 2)  # window above top
@example(S("X^2 + 2X^-1", F3), None, -3, -9)  # below an exact stored range
@example(S("X^2 + 2X^-1", F3), -4, -3, -4)  # down to the floor
@example(S("X^2 + 2X^-1", F3), -4, 0, -5)  # one digit below the floor
@example(LaurentSeries.zero(F3), None, 3, -3)  # exact zero
@example(LaurentSeries.zero(F3), -2, 1, -3)  # censored zero, below its floor
@example(S("X^-1", F3), -3, -5, -4)  # hi < lo reads nothing
def test_digits_slice_matches_coeff(f, floor, hi, lo):
    if floor is not None:
        f = f.truncate(floor)
    got = _read(lambda: f.digits(hi, lo))
    assert got == _read(lambda: [f.coeff(e) for e in range(hi, lo - 1, -1)])
    if hi >= lo:
        assert got[0] == _read(lambda: f.coeff(lo))[0]
    else:
        assert got == (False, [])


def test_matching_sub_censors_not_zero():
    a = S("X^-1 + X^-3", floor=-6)
    d = a - a
    assert d.is_known_zero() and not d.is_exact_zero()
    assert d.floor == -6


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------


def test_literal_roundtrip():
    for text in ("0", "X^-1 + X^-3", "2*X^2 + 1 + X^-5", "X"):
        f = parse_series_literal(text, F3)
        assert parse_series_literal(f.to_literal(), F3) == f


def test_literal_orders_low_to_high():
    assert S("X^-1 + X^-3").to_literal() == "X^-3 + X^-1"


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_series_literal("X^-1 + + X", F2)
    assert err.value.position is not None


def test_extension_series_literals(F4):
    f = parse_series_literal("[1,1]*X^-2 + X", F4)
    assert f.coeff(-2) == F4.from_coords([1, 1])
    assert parse_series_literal(f.to_literal(), F4) == f
