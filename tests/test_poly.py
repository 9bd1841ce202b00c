import pytest
from hypothesis import example, given, strategies as st

from ffdioph import Fq, NEG_INF, Poly, parse_poly_literal, poly_divmod

F2 = Fq(2)
F3 = Fq(3)


def P(text, field=F3):
    return parse_poly_literal(text, field)


def test_divmod_examples():
    q, r = poly_divmod(P("X^3 + 2*X + 1"), P("X^2 + 1"))
    assert q == P("X") and r == P("X + 1")
    q, r = poly_divmod(P("X", F2), P("X", F2))
    assert q == P("1", F2) and r.is_zero()
    q, r = poly_divmod(P("1", F2), P("X", F2))
    assert q.is_zero() and r == P("1", F2)


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(P("X"), Poly.zero(F3))


def coeff_lists(p, max_len=6):
    return st.lists(st.integers(0, p - 1), min_size=0, max_size=max_len)


DIV_FIELDS = [Fq(2), Fq(3), Fq(2, 2), Fq(3, 2)]
DIV_IDS = ["F2", "F3", "F4", "F9"]


def assert_divmod(a, b):
    # a = q b + r with deg r < deg b fixes q and r
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.deg < b.deg
    return q, r


@pytest.mark.parametrize("field", DIV_FIELDS, ids=DIV_IDS)
@given(data=st.data())
def test_divmod_reconstruction(field, data):
    a = Poly(field, data.draw(coeff_lists(field.q)))
    b = Poly(field, data.draw(coeff_lists(field.q, 4)))
    if not b.is_zero():
        assert_divmod(a, b)


@pytest.mark.parametrize("field", DIV_FIELDS, ids=DIV_IDS)
def test_divmod_divisor_shapes(field):
    # non-monic divisors, divisors with zero low coefficients (X^z times a
    # polynomial with nonzero constant term) and deg a < deg b, one by one
    import random

    rng = random.Random(f"divmod:{field.q}")
    for db in range(5):
        for lead in range(1, field.q):
            for z in range(db + 1):
                core = [rng.randrange(1, field.q)] + [rng.randrange(field.q) for _ in range(db - z)]
                core[-1] = lead
                b = Poly(field, [0] * z + core)
                assert b.deg == db and b.lc() == lead and not any(b.coeffs[:z])
                for da in range(-1, db + 6):  # da = -1 is the zero numerator
                    coeffs = [rng.randrange(field.q) for _ in range(da + 1)]
                    a = Poly(field, coeffs[:-1] + [rng.randrange(1, field.q)] if coeffs else [])
                    assert a.deg == (da if coeffs else NEG_INF)
                    q, r = assert_divmod(a, b)
                    if a.deg < db:
                        assert q.is_zero() and r == a


@given(st.sampled_from(DIV_FIELDS[:3]), coeff_lists(4), coeff_lists(4))
@example(F2, [], [1, 1])  # a zero factor
@example(F3, [0, 0, 2], [])
@example(Fq(2, 2), [0, 3, 0], [2, 0, 1])  # zero coefficients inside
def test_degree_multiplicative(field, ac, bc):
    # coefficients against a schoolbook term-dict oracle, on F2, F3 and F4
    a = Poly(field, [c % field.q for c in ac])
    b = Poly(field, [c % field.q for c in bc])
    prod = a * b
    want = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            want[i + j] = field.add(want.get(i + j, 0), field.mul(x, y))
    assert {k: c for k, c in enumerate(prod.coeffs) if c} == {k: c for k, c in want.items() if c}
    assert not prod.coeffs or prod.coeffs[-1]
    if a.is_zero() or b.is_zero():
        assert prod.is_zero()
    else:
        assert prod.deg == a.deg + b.deg


SUM_FIELDS = [Fq(2), Fq(3), Fq(2, 2), Fq(131)]  # F131: the computed row ops


@given(st.sampled_from(SUM_FIELDS), st.lists(st.integers(0, 130), max_size=6),
       st.lists(st.integers(0, 130), max_size=6))
@example(Fq(3), [1, 2, 1], [1, 2, 1])  # a - a: every coefficient cancels
@example(Fq(3), [2, 0, 1], [1, 2, 1])  # the leading coefficients cancel
@example(Fq(131), [], [5, 0, 130])  # zero minus a longer operand
def test_sums_match_coefficient_oracle(field, ac, bc):
    # +, - and unary - coefficient by coefficient through the scalar ops
    a = Poly(field, [c % field.q for c in ac])
    b = Poly(field, [c % field.q for c in bc])
    n = max(len(a.coeffs), len(b.coeffs))
    assert a + b == Poly(field, [field.add(a.coeff(k), b.coeff(k)) for k in range(n)])
    assert a - b == Poly(field, [field.sub(a.coeff(k), b.coeff(k)) for k in range(n)])
    assert -b == Poly(field, [field.neg(c) for c in b.coeffs])
    assert a - b == a + (-b) and (a - b) + b == a


def test_zero_degree_is_minus_infinity():
    assert Poly.zero(F2).deg == NEG_INF
    assert Poly.one(F2).deg == 0


def test_literal_roundtrip():
    for text in ("0", "1", "X", "2*X^2 + 1", "X^3 + X"):
        p = P(text)
        assert parse_poly_literal(p.to_literal(), F3) == p


def test_extension_coefficient_literals():
    F4 = Fq(2, 2)
    p = parse_poly_literal("[0,1]*X^2 + 1", F4)
    assert p.coeff(2) == F4.from_coords([0, 1])
    assert parse_poly_literal(p.to_literal(), F4) == p


def test_negative_exponent_rejected():
    from ffdioph import ParseError

    with pytest.raises(ParseError):
        parse_poly_literal("X^-1", F2)
