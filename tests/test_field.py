import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from ffdioph import Fq, ParseError, parse_field_spec
from ffdioph.config import ExperimentConfig
from ffdioph.field import TABLE_LIMIT, is_irreducible_mod_p, is_prime


def test_prime_detection():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        Fq(4)


def test_builtin_extension_tables():
    assert Fq(2, 2).q == 4
    assert Fq(2, 3).q == 8
    assert Fq(3, 2).q == 9
    with pytest.raises(ValueError):
        Fq(5, 2)  # no built-in modulus for F_25


def test_reducible_modulus_rejected():
    # X^2 + 1 = (X+1)^2 over F_2
    with pytest.raises(ValueError):
        Fq(2, 2, (1, 0, 1))
    assert is_irreducible_mod_p([1, 1, 1], 2)
    assert not is_irreducible_mod_p([1, 0, 1], 2)


@pytest.mark.parametrize("field", [Fq(2), Fq(3), Fq(2, 2), Fq(3, 2), Fq(2, 3)])
def test_field_axioms_exhaustive(field):
    els = list(field.elements())
    for a in els:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1
    # associativity and distributivity on a subsample
    for a in els[: min(4, len(els))]:
        for b in els:
            for c in els:
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))


def test_inverse_of_zero_raises(F4):
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)


@given(st.integers(0, 8), st.integers(0, 8))
def test_f9_commutativity(a, b):
    F9 = Fq(3, 2)
    assert F9.mul(a, b) == F9.mul(b, a)
    assert F9.add(a, b) == F9.add(b, a)


def test_coords_roundtrip(F9):
    for a in F9.elements():
        assert F9.from_coords(F9.coords(a)) == a


def test_parse_field_spec_roundtrip():
    for text in ("p=2", "p=3", "p=2,d=2,modulus=X^2 + X + 1"):
        F = parse_field_spec(text)
        assert parse_field_spec(F.spec_string()) == F


def test_parse_field_spec_errors():
    with pytest.raises(ParseError):
        parse_field_spec("d=2")
    with pytest.raises(ParseError):
        parse_field_spec("p=2,bogus=1")
    with pytest.raises(ParseError):
        parse_field_spec("p=zz")


# -- lookup tables against an independent oracle ------------------------------
# The oracle works on coordinate vectors with plain integer arithmetic mod p:
# a schoolbook product reduced by the modulus, and inverses by search.  It
# calls nothing in ffdioph.field but the constructor and the attributes p, d,
# modulus.


def _oracle_coords(F, a):
    return [a // F.p**i % F.p for i in range(F.d)]


def _oracle_elem(F, cs):
    return sum((c % F.p) * F.p**i for i, c in enumerate(cs))


def _oracle_add(F, a, b):
    return _oracle_elem(F, [x + y for x, y in zip(_oracle_coords(F, a), _oracle_coords(F, b))])


def _oracle_neg(F, a):
    return _oracle_elem(F, [-x for x in _oracle_coords(F, a)])


def _oracle_sub(F, a, b):
    return _oracle_elem(F, [x - y for x, y in zip(_oracle_coords(F, a), _oracle_coords(F, b))])


def _oracle_mul(F, a, b):
    p, d = F.p, F.d
    modulus = F.modulus if d > 1 else (0, 1)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(_oracle_coords(F, a)):
        for j, y in enumerate(_oracle_coords(F, b)):
            prod[i + j] += x * y
    # X^d = -(m_0 + ... + m_{d-1} X^{d-1}) / m_d
    lead_inv = pow(modulus[d], p - 2, p)
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k] * lead_inv % p
        prod[k] = 0
        for i in range(d):
            prod[k - d + i] -= c * modulus[i]
    return _oracle_elem(F, prod[:d])


def _oracle_inv(F, a):
    (b,) = [b for b in range(1, F.p**F.d) if _oracle_mul(F, a, b) == 1]
    return b


TABLE_FIELDS = {
    "F2": Fq(2),
    "F3": Fq(3),
    "F5": Fq(5),
    "F7": Fq(7),
    "F4": Fq(2, 2),
    "F8": Fq(2, 3),
    "F9": Fq(3, 2),
    "F16": Fq(2, 4, (1, 1, 0, 0, 1)),  # X^4 + X + 1
    "F25": Fq(5, 2, (2, 0, 1)),  # X^2 + 2
    "F64": Fq(2, 6, (1, 1, 0, 0, 0, 0, 1)),  # X^6 + X + 1
    "F67": Fq(67),
    "F128": Fq(2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),  # X^7 + X + 1, q = TABLE_LIMIT
}


def _assert_tables_match_oracle(F, spec):
    """Every table entry of F against the oracle of the field spec (an
    object with p, d, modulus)."""
    assert F.q <= TABLE_LIMIT and F._mul is not None
    els = range(F.q)
    for a in els:
        assert F.neg(a) == _oracle_neg(spec, a)
        if a:
            assert F.inv(a) == _oracle_inv(spec, a)
        for b in els:
            assert F.add(a, b) == _oracle_add(spec, a, b)
            assert F.sub(a, b) == _oracle_sub(spec, a, b)
            assert F.mul(a, b) == _oracle_mul(spec, a, b)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("name", list(TABLE_FIELDS))
def test_tables_match_oracle_exhaustively(name):
    F = TABLE_FIELDS[name]
    _assert_tables_match_oracle(F, F)


def test_non_monic_modulus_is_made_monic():
    # 2X^2 + 2 is irreducible over F_3; the field is F_9 with the power
    # basis of X^2 + 1, and the tables follow arithmetic mod 2X^2 + 2 itself
    assert is_irreducible_mod_p([2, 0, 2], 3)
    F = Fq(3, 2, (2, 0, 2))
    assert F == Fq(3, 2, (1, 0, 1)) and F.modulus == (1, 0, 1)
    _assert_tables_match_oracle(F, SimpleNamespace(p=3, d=2, modulus=(2, 0, 2)))
    assert parse_field_spec("p=3,d=2,modulus=2*X^2 + 2") == F
    cfg = ExperimentConfig.from_dict(
        {"suite": "estimate", "field": "p=3,d=2,modulus=2*X^2 + 2"}
    )
    assert cfg.fq() == F


def test_field_above_table_limit_loops_and_matches_oracle():
    F = Fq(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # X^8 + X^4 + X^3 + X + 1, q = 256
    assert F.q > TABLE_LIMIT
    assert (F._add, F._mul, F._neg, F._inv) == (None,) * 4
    rng = random.Random(8)
    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.add(a, b) == _oracle_add(F, a, b)
        assert F.sub(a, b) == _oracle_sub(F, a, b)
        assert F.mul(a, b) == _oracle_mul(F, a, b)
        assert F.neg(a) == _oracle_neg(F, a)
        if a:
            assert _oracle_mul(F, a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_large_prime_field_loops():
    F = Fq(131)
    assert F.q > TABLE_LIMIT and F._mul is None
    assert F.mul(130, 130) == 1 and F.sub(3, 5) == 129 and F.mul(5, F.inv(5)) == 1


ROW_OP_FIELDS = {
    "F4": Fq(2, 2),
    "F9": Fq(3, 2),
    "F64": TABLE_FIELDS["F64"],
    "F131": Fq(131),
    "F243": Fq(3, 5, (1, 2, 0, 0, 0, 1)),  # X^5 + 2X + 1
}


@pytest.mark.parametrize("name", list(ROW_OP_FIELDS))
def test_row_ops_equal_per_element_ops(name):
    # sub_scaled and scaled against sub and mul entry by entry, on tabled
    # fields (up to q = TABLE_LIMIT) and on the digit loops above it
    F = ROW_OP_FIELDS[name]
    assert (F._mul is None) == (F.q > TABLE_LIMIT)
    rng = random.Random(f"row-ops:{name}")
    for _ in range(60):
        n = rng.randrange(0, 12)
        r = [rng.randrange(F.q) if rng.random() < 0.7 else 0 for _ in range(n)]
        p = [rng.randrange(F.q) if rng.random() < 0.7 else 0 for _ in range(n)]
        f, start = rng.randrange(F.q), rng.randrange(0, n + 1)
        before, p_before = list(r), list(p)
        F.sub_scaled(r, f, p, start)
        assert r == before[:start] + [
            F.sub(a, F.mul(f, c)) for a, c in zip(before[start:], p[start:])
        ]
        assert p == p_before
        assert F.scaled(f, p) == [F.mul(f, c) for c in p]
        assert p == p_before


SUM_ROW_FIELDS = {
    **TABLE_FIELDS,
    "F131": Fq(131),
    "F256": Fq(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),  # X^8 + X^4 + X^3 + X + 1
}


@pytest.mark.parametrize("name", list(SUM_ROW_FIELDS))
def test_sum_row_ops_equal_per_element_ops(name):
    # add_row, sub_row and neg_row against add, sub and neg entry by entry: on
    # random rows, on empty rows and on rows of all q - 1, over every tabled
    # field and over a prime field and an extension above TABLE_LIMIT
    F = SUM_ROW_FIELDS[name]
    assert (F._add is None) == (F.q > TABLE_LIMIT)
    rng = random.Random(f"sum-row-ops:{name}")
    top, ramp = [F.q - 1] * 9, [k % F.q for k in range(9)]
    rows = [([], []), (top, top), (top, ramp), (ramp, top)]
    for _ in range(40):
        n = rng.randrange(0, 12)
        rows.append(tuple([rng.randrange(F.q) for _ in range(n)] for _ in "ab"))
    for a, b in rows:
        a_before, b_before = list(a), list(b)
        assert F.add_row(a, b) == [F.add(x, y) for x, y in zip(a, b)]
        assert F.sub_row(a, b) == [F.sub(x, y) for x, y in zip(a, b)]
        assert F.neg_row(a) == [F.neg(x) for x in a]
        assert (a, b) == (a_before, b_before)
        # tuples read like lists, and a new list comes back each time
        assert F.add_row(tuple(a), tuple(b)) == F.add_row(a, b)
        assert F.neg_row(a) is not a
    # like zip, a pair of rows is read as far as the shorter one reaches
    assert F.add_row([1, 1, 1], [1]) == [F.add(1, 1)]
    assert F.sub_row([1], [0, 1, 1]) == [1]
