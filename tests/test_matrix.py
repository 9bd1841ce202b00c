import random

import pytest

from ffdioph import (
    DegValue,
    Fq,
    LaurentSeries,
    NEG_INF,
    Poly,
    SeriesMatrix,
    matvec_affine,
    parse_poly_literal,
    parse_series_literal,
    prod_plus_deg,
    sup_deg,
)

F2 = Fq(2)


def S(text, field=F2):
    return parse_series_literal(text, field)


def test_norm_examples():
    vec = (S("X^2 + 1"), S("X^-1"))
    assert sup_deg(vec) == DegValue.exact(2)
    qv = (parse_poly_literal("X^2", F2), Poly.zero(F2))
    assert prod_plus_deg(qv) == 2


def test_degree_product_bounds():
    rng = random.Random("norms")
    for _ in range(50):
        m = rng.randrange(1, 4)
        qv = tuple(
            Poly(F2, [rng.randrange(2) for _ in range(rng.randrange(0, 5))])
            for _ in range(m)
        )
        sup_q = max((q.deg for q in qv if not q.is_zero()), default=NEG_INF)
        if sup_q != NEG_INF:
            assert prod_plus_deg(qv) <= m * max(0, sup_q)


def test_matvec_examples():
    Y = SeriesMatrix([[S("X^-1")]])
    out = matvec_affine(Y, (parse_poly_literal("X", F2),), (Poly.one(F2),), None)
    assert out[0].is_exact_zero()  # X * X^-1 + 1 = 0 in characteristic 2

    Y0 = SeriesMatrix([[LaurentSeries.zero(F2)]])
    out = matvec_affine(
        Y0, (Poly.one(F2),), (Poly.zero(F2),), (S("X^-3"),)
    )
    assert out[0] == S("X^-3")

    out = matvec_affine(Y, (Poly.one(F2),), (Poly.zero(F2),), None)
    assert out[0] == S("X^-1")


def test_matvec_floor_propagation():
    Y = SeriesMatrix([[parse_series_literal("X^-1", F2, -10)]])
    q = (parse_poly_literal("X^3", F2),)
    out = matvec_affine(Y, q, (Poly.zero(F2),), None)
    assert out[0].floor == -10 + 3


def test_matvec_dim_mismatch():
    Y = SeriesMatrix([[S("X^-1")]])
    with pytest.raises(ValueError):
        matvec_affine(Y, (Poly.one(F2), Poly.one(F2)), (Poly.zero(F2),), None)


def test_transpose():
    Y = SeriesMatrix([[S("X^-1"), S("X^-2")]])
    Yt = Y.transpose()
    assert (Yt.m, Yt.n) == (2, 1)
    assert Yt.entry(0, 0) == S("X^-1") and Yt.entry(1, 0) == S("X^-2")
