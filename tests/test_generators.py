import itertools
from fractions import Fraction

import pytest

from ffdioph import (
    ConfigError,
    PrecisionExhaustedError,
    Fq,
    LaurentSeries,
    NEG_INF,
    parse_poly_literal,
    parse_series_literal,
)
from ffdioph.approx import witness_error_degs
from ffdioph.generators import (
    PlantParams,
    _noise_series,
    cf_series,
    derive_rng,
    generate_matrix,
    generate_series,
    generate_theta,
    lacunary_series,
    plant_membership_pair,
    plant_witness,
    random_series,
    rational_series,
    uniform_digits,
)
from ffdioph.matrix import matvec_affine

F2 = Fq(2)
F3 = Fq(3)


def test_rational_multiply_back():
    num = parse_poly_literal("1", F2)
    den = parse_poly_literal("X + 1", F2)
    r = rational_series(F2, num, den, -4)
    assert r.to_literal() == "X^-4 + X^-3 + X^-2 + X^-1"
    back = r * LaurentSeries.from_poly(den)
    assert back.coeff(0) == 1
    assert all(back.coeff(e) == 0 for e in range(back.floor, 0))


def test_rational_monomial_denominator_exact():
    r = rational_series(F2, parse_poly_literal("X^2 + 1", F2), parse_poly_literal("X", F2), -40)
    assert r.is_exact()
    assert r.to_literal() == "X^-1 + X"


def test_lacunary_example():
    assert lacunary_series(F2, 3, -10).to_literal() == "X^-9 + X^-3 + X^-1"
    assert lacunary_series(F2, 3, -27).to_literal() == "X^-27 + X^-9 + X^-3 + X^-1"


def test_cf_golden_satisfies_quadratic():
    g = cf_series(F2, [1], -50)
    X = parse_series_literal("X", F2)
    rel = g * g + X * g + LaurentSeries.one(F2)
    assert rel.is_known_zero()


def test_cf_prescribed_quotient_degrees():
    # quotients X, X^2 -> convergent denominator degrees 1, 3, 4, 6, ...
    g = cf_series(F2, [1, 2], -30)
    assert g.top == -1
    from ffdioph import SeriesMatrix, best_error

    Y = SeriesMatrix([[g]])
    # first leap: denominator X costs 1 and earns error -(1+2)
    assert best_error(Y, None, 2, "brute").B.value == -3


def test_random_series_determinism():
    a = random_series(F2, -20, derive_rng(5, "x"))
    b = random_series(F2, -20, derive_rng(5, "x"))
    c = random_series(F2, -20, derive_rng(6, "x"))
    assert a == b
    assert a != c
    assert a.floor == -20


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 64, 67, 128, 255, 256, 257, 1000])
def test_bulk_digits_are_the_randrange_loop(q):
    # the same digits and the same stream use: the next draw agrees too
    for count in (0, 1, 2, 7, 80, 500):
        bulk, loop = derive_rng(q, "draw", count), derive_rng(q, "draw", count)
        assert uniform_digits(bulk, q, count) == [loop.randrange(q) for _ in range(count)]
        assert bulk.random() == loop.random()


_DRAW_FIELDS = [
    Fq(2), Fq(3), Fq(2, 2), Fq(5), Fq(2, 3), Fq(3, 2), Fq(67),
    Fq(2, 7, (1, 1, 0, 0, 0, 0, 0, 1)), Fq(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)), Fq(257),
]


@pytest.mark.parametrize("field", _DRAW_FIELDS, ids=lambda F: f"F{F.q}")
def test_series_draws_are_the_randrange_loop(field):
    q = field.q
    for floor in (-1, -2, -7, -80):
        rng, loop = derive_rng(1, "series", floor), derive_rng(1, "series", floor)
        want = [loop.randrange(q) for _ in range(-floor)]
        assert random_series(field, floor, rng) == LaurentSeries(field, -1, want, floor)
        assert rng.random() == loop.random()
        # a noise series: a nonzero top digit by randrange(1, q), then its tail
        rng, loop = derive_rng(2, "noise", floor), derive_rng(2, "noise", floor)
        want = [loop.randrange(1, q)] + [loop.randrange(q) for _ in range(1 - floor)]
        assert _noise_series(field, floor + 1, 2 * floor, rng) == LaurentSeries(field, floor + 1, want, 2 * floor)
        assert rng.random() == loop.random()


def test_generate_series_dispatch():
    assert generate_series("X^-1 + X^-3", F2, -10).is_exact()
    assert generate_series({"kind": "lacunary", "base": 2}, F2, -8).to_literal() == (
        "X^-8 + X^-4 + X^-2 + X^-1"
    )
    with pytest.raises(ConfigError):
        generate_series({"kind": "bogus"}, F2, -8)
    with pytest.raises(ConfigError):
        generate_series({"kind": "random"}, F2, -8)  # rng required


def test_generate_matrix_grid_and_random():
    M = generate_matrix(
        {"kind": "grid", "entries": [["X^-1", {"kind": "lacunary", "base": 2}]]},
        F2,
        1,
        2,
        -8,
        0,
    )
    assert M.entry(0, 0).to_literal() == "X^-1"
    R1 = generate_matrix({"kind": "random"}, F3, 2, 2, -12, 7)
    R2 = generate_matrix({"kind": "random"}, F3, 2, 2, -12, 7)
    assert R1 == R2
    with pytest.raises(ConfigError):
        generate_matrix({"kind": "lacunary", "base": 2}, F2, 2, 2, -8, 0)


def test_generate_theta_forms():
    assert all(t.is_exact_zero() for t in generate_theta("0", F2, 2, -8, 0))
    th = generate_theta(["X^-1", "X^-2"], F2, 2, -8, 0)
    assert th[1].to_literal() == "X^-2"
    with pytest.raises(ConfigError):
        generate_theta(["X^-1"], F2, 2, -8, 0)
    rnd = generate_theta({"kind": "random"}, F2, 2, -8, 3)
    assert rnd == generate_theta({"kind": "random"}, F2, 2, -8, 3)


def test_plant_witness_reverifies_and_repeats():
    params = PlantParams(F2, 1, 2, Fraction(1), Fraction(1), 5, -80)
    a = plant_witness(params, 42)
    b = plant_witness(params, 42)
    assert a.Y == b.Y and a.alpha == b.alpha and a.theta == b.theta
    assert all(not q.is_zero() for q in a.alpha.q)


def test_plant_witness_missing_its_premise_names_it(monkeypatch):
    # error rows planted above the premise cutoff fail the product premise;
    # the plant reports which premise through witness_extract_uv's check
    monkeypatch.setattr("ffdioph.generators._PLANT_ERR_MARGIN", -8)
    with pytest.raises(AssertionError, match="misses its premise: row product premise"):
        plant_witness(PlantParams(F2, 1, 1, Fraction(1), Fraction(1), 3, -60), 9)


def test_plant_witness_dim_requirement():
    with pytest.raises(ValueError):
        PlantParams(F2, 2, 2, Fraction(1), Fraction(1), 4, -60)


def test_noise_below_the_floor_is_precision_exhausted():
    # a noise row whose top lies below the floor it is drawn to cannot be
    # drawn; both callers then lose the instance to precision, not to a
    # ValueError that would read as invalid input
    with pytest.raises(PrecisionExhaustedError, match="below the floor"):
        _noise_series(F2, -135, -134, derive_rng(0, "noise"))
    assert _noise_series(F2, -134, -134, derive_rng(0, "noise")).top == -134
    # neither planter draws noise below the floor it plants at: each plants
    # deep enough for its noise rows, whatever floor it is given.  Limsup
    # eta 16, floor -110, seed 5: instances 5 and 9 plant a noise row of
    # degree -135, below floor - 24 = -134
    for idx in (5, 9):
        pair = plant_membership_pair(F2, Fraction(16), 5 * 32452843 + idx, -110)
        assert min(e.floor for e in pair.Y.rows[0]) < -110
    # plant_witness: the error row is planted at degree -9 - {0, 1, 2}, below
    # a floor of -5, and comes out known, with that degree
    inst = plant_witness(PlantParams(F2, 1, 1, Fraction(1), Fraction(1), 3, -5), 9)
    [d] = witness_error_degs(inst.Y, inst.theta, inst.alpha)
    assert not d.censored and -11 <= d.value <= -9


def test_membership_pair_determinism():
    a = plant_membership_pair(F3, Fraction(3, 2), 21, -80)
    b = plant_membership_pair(F3, Fraction(3, 2), 21, -80)
    assert a.Y == b.Y and a.alpha == b.alpha and a.alpha2 == b.alpha2
    assert a.alpha.q != a.alpha2.q


def test_package_has_no_assert_statement():
    # `python -O` strips assert statements; invariants in the package raise
    # AssertionError explicitly, so a broken one stays an instance failure
    import ast
    from pathlib import Path

    import ffdioph

    paths = sorted(Path(ffdioph.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize("field", [F2, F3, Fq(2, 2)], ids=["F2", "F3", "F4"])
def test_membership_pair_matches_full_depth_cramer(field):
    # oracle: Cramer's rule on the full-depth right-hand sides, with the det
    # inverse taken 8 + 2 deg det digits below their floor; each noise row
    # is redrawn from its own stream, its top read off the pair's residual
    for eta, floor, seed in itertools.product(("1", "3/2", "2"), (-40, -60, -80), (3, 8)):
        pair = plant_membership_pair(field, Fraction(eta), seed, floor)
        (theta,) = pair.theta
        work = theta.floor
        rhs = []
        for k, a in enumerate((pair.alpha, pair.alpha2), start=1):
            (row,) = matvec_affine(pair.Y, a.q, a.p, pair.theta)
            d = _noise_series(field, row.top, work, derive_rng(seed, f"pair-d{k}"))
            rhs.append(d - LaurentSeries.from_poly(a.p[0]) - theta)
        (q1, q2) = (
            [LaurentSeries.from_poly(x) for x in a.q] for a in (pair.alpha, pair.alpha2)
        )
        det = pair.alpha.q[0] * pair.alpha2.q[1] - pair.alpha.q[1] * pair.alpha2.q[0]
        det_inv = LaurentSeries.from_poly(det).inverse(work - 8 - 2 * max(0, det.deg))
        y11 = ((rhs[0] * q2[1] - rhs[1] * q1[1]) * det_inv).truncate(floor)
        y12 = ((rhs[1] * q1[0] - rhs[0] * q2[0]) * det_inv).truncate(floor)
        assert pair.Y.rows[0] == (y11, y12), (eta, floor, seed)
