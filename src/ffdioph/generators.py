"""Instance generators: series from structured specs, random matrices, and
planted premise witnesses.

All randomness is counter-based: every draw comes from a fresh
``random.Random`` seeded with a string derived from (seed, role tags), so
parallel generation is order-independent and runs reproduce byte-for-byte.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .approx import Witness
from .errors import ConfigError, PrecisionExhaustedError, PreconditionError
from .field import Fq
from .limsup import TsetParams, delta_membership, tau0, witness_extract_uv, xi_and_t
from .matrix import SeriesMatrix, zero_theta
from .poly import Poly, parse_poly_literal
from .record import Record
from .series import LaurentSeries, parse_series_literal


def derive_rng(seed: int, *tags) -> random.Random:
    key = f"{seed}|" + "/".join(str(t) for t in tags)
    return random.Random(key)


def uniform_digits(rng: random.Random, q: int, count: int) -> list[int]:
    """``[rng.randrange(q) for _ in range(count)]``, drawn from bulk words.

    randrange(q) takes one 32-bit word per try, keeps its top q.bit_length()
    bits and tries again on a value >= q.  Each digit takes at least one
    word, so one getrandbits(32 * need) call for the `need` digits still
    missing reads no word the loop would not; its little-endian words, cut
    to their top bits with values >= q dropped, are the loop's digits in
    order.  The digits and the rng's state after the call are the loop's.
    For q >= 256 the top bits span more than a byte and the loop runs as is.
    """
    if q >= 256:
        return [rng.randrange(q) for _ in range(count)]
    keep, drop = _top_byte_tables(q)
    digits = []
    while len(digits) < count:
        need = count - len(digits)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        digits += words[3::4].translate(keep, drop)
    return digits


@functools.lru_cache(maxsize=None)
def _top_byte_tables(q: int) -> tuple[bytes, bytes]:
    """bytes.translate arguments that take a word's top byte to its top
    q.bit_length() bits and delete the bytes that give a value >= q."""
    shift = 8 - q.bit_length()
    return bytes(x >> shift for x in range(256)), bytes(x for x in range(256) if x >> shift >= q)


def random_series(field: Fq, floor: int, rng: random.Random) -> LaurentSeries:
    """Digits uniform over F_q on exponents -1 down to floor."""
    if floor >= 0:
        raise ConfigError("random series need a negative floor")
    return LaurentSeries(field, -1, uniform_digits(rng, field.q, -floor), floor)


def random_poly(field: Fq, deg: int, rng: random.Random) -> Poly:
    """Uniform polynomial of degree exactly deg (deg < 0 gives zero)."""
    if deg < 0:
        return Poly.zero(field)
    coeffs = [rng.randrange(field.q) for _ in range(deg)]
    coeffs.append(rng.randrange(1, field.q))
    return Poly(field, coeffs)


def lacunary_series(field: Fq, base: int, floor: int) -> LaurentSeries:
    """Sum of X^(-base^k) for all base^k within the floor."""
    if base < 2:
        raise ConfigError("lacunary base must be >= 2")
    if floor >= -1:
        raise ConfigError("lacunary series need floor <= -2")
    terms = {}
    e = 1
    while e <= -floor:
        terms[-e] = 1
        e *= base
    return LaurentSeries.from_terms(field, terms, floor)


def cf_series(field: Fq, degrees, floor: int) -> LaurentSeries:
    """Series with prescribed partial-quotient degrees (quotients X^d).

    Built by the convergent recurrence; the degree list cycles if it runs
    out before the requested depth is reached.
    """
    degrees = [int(d) for d in degrees]
    if not degrees or any(d < 1 for d in degrees):
        raise ConfigError("quotient degrees must be positive integers")
    if floor >= 0:
        raise ConfigError("cf series need a negative floor")
    p_prev, p_cur = Poly.one(field), Poly.zero(field)
    q_prev, q_cur = Poly.zero(field), Poly.one(field)
    deg_cur = 0
    deg_prev = None
    i = 0
    while deg_prev is None or deg_prev + deg_cur < -floor + 1:
        d = degrees[i % len(degrees)]
        i += 1
        a = Poly.x_power(field, d)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        deg_prev, deg_cur = deg_cur, deg_cur + d
    return LaurentSeries.from_poly(p_cur).div_poly(q_cur, floor)


def rational_series(field: Fq, num: Poly, den: Poly, floor: int) -> LaurentSeries:
    if den.is_zero():
        raise ConfigError("rational series denominator is zero")
    if num.is_zero():
        return LaurentSeries.zero(field)
    dseries = LaurentSeries.from_poly(den)
    if len(dseries.coeffs) == 1:
        # monomial denominator: the quotient is an exact Laurent polynomial
        return LaurentSeries.from_poly(num) * dseries.inverse(0)
    return LaurentSeries.from_poly(num).div_poly(den, floor)


def generate_series(spec, field: Fq, floor: int, rng: random.Random | None = None):
    """Build one series from a structured spec (dict or literal string)."""
    if isinstance(spec, str):
        return parse_series_literal(spec, field)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"bad series spec: {spec!r}")
    kind = spec["kind"]
    if kind == "literal":
        return parse_series_literal(spec["text"], field)
    if kind == "rational":
        num = parse_poly_literal(spec["num"], field)
        den = parse_poly_literal(spec["den"], field)
        return rational_series(field, num, den, floor)
    if kind == "lacunary":
        return lacunary_series(field, int(spec["base"]), floor)
    if kind == "cf":
        return cf_series(field, spec["degrees"], floor)
    if kind == "random":
        if rng is None:
            raise ConfigError("random series spec needs an rng")
        return random_series(field, floor, rng)
    raise ConfigError(f"unknown series kind {kind!r}")


def generate_matrix(
    spec, field: Fq, m: int, n: int, floor: int, seed: int, tag: str = "Y"
) -> SeriesMatrix:
    """Matrix of series; entry (i, j) draws from substream (seed, tag, i, j)."""
    kind = spec.get("kind") if isinstance(spec, dict) else "literal"
    if kind == "grid":
        entries = spec["entries"]
        if len(entries) != m or any(len(r) != n for r in entries):
            raise ConfigError("grid entries must be an m x n array")
    elif not isinstance(spec, (str, dict)):
        raise ConfigError(f"bad matrix spec: {spec!r}")
    elif kind == "random" or (m == 1 and n == 1):
        entries = [[spec] * n] * m
    else:
        raise ConfigError("matrix specs beyond 1x1 need kind='random' or kind='grid'")
    return SeriesMatrix(
        [
            [
                generate_series(entries[i][j], field, floor, derive_rng(seed, tag, i, j))
                for j in range(n)
            ]
            for i in range(m)
        ]
    )


def generate_theta(spec, field: Fq, m: int, floor: int, seed: int):
    if spec in (None, 0, "0", "zero"):
        return zero_theta(field, m)
    if isinstance(spec, dict) and spec.get("kind") == "random":
        return tuple(
            random_series(field, floor, derive_rng(seed, "theta", i))
            for i in range(m)
        )
    if isinstance(spec, list):
        if len(spec) != m:
            raise ConfigError("theta literal list must have one entry per row")
        return tuple(generate_series(s, field, floor) for s in spec)
    if isinstance(spec, str):
        if m != 1:
            raise ConfigError("single theta literal needs m = 1")
        return (generate_series(spec, field, floor),)
    raise ConfigError(f"bad theta spec: {spec!r}")


# ---------------------------------------------------------------------------
# planted premise witnesses
# ---------------------------------------------------------------------------


# planted error rows sit this many degrees below the premise cutoff
_PLANT_ERR_MARGIN = 2


class PlantParams(Record):
    field: Fq
    m: int
    n: int
    eta: Fraction
    eps: Fraction
    T: int
    floor: int

    def __post_init__(self):
        if self.m != 1 and self.n != 1:
            raise ValueError("planting needs m = 1 (row) or n = 1 (column)")
        object.__setattr__(self, "eta", Fraction(self.eta))
        object.__setattr__(self, "eps", Fraction(self.eps))


class PlantedInstance(Record):
    Y: SeriesMatrix
    theta: tuple
    alpha: Witness
    T: int
    eta: Fraction
    eps: Fraction


def _noise_series(field: Fq, top: int, floor: int, rng: random.Random):
    """Series with exact leading exponent `top` and random tail down to
    `floor`; a top below the floor cannot be drawn, so it raises
    PrecisionExhaustedError."""
    if top < floor:
        raise PrecisionExhaustedError(f"noise of degree {top} lies below the floor {floor}")
    coeffs = [rng.randrange(1, field.q)] + uniform_digits(rng, field.q, top - floor)
    return LaurentSeries(field, top, coeffs, floor)


def solve_matrix_for_residual(
    field: Fq, q, p, theta, deltas, floor: int, seed: int, tag: str = "solve"
) -> SeriesMatrix:
    """Matrix Y with Y q + p + theta = delta row by row.

    The highest-degree coordinate of q is the pivot column; all other
    entries are random, drawn down to ``floor``, and each row's pivot entry
    is solved down to ``floor`` by one exact long division by the pivot
    polynomial.  That division reads theta and the deltas only down to
    floor + deg q_pivot: inputs cut there give the same Y, and inputs known
    less deep raise PrecisionExhaustedError.
    """
    m, n = len(p), len(q)
    qs = [LaurentSeries.from_poly(qj) for qj in q]
    pivot = max(range(n), key=lambda j: (q[j].deg, j))
    if q[pivot].is_zero():
        raise ValueError("q must have a nonzero coordinate")
    rows = []
    for i in range(m):
        others = {
            j: random_series(field, floor, derive_rng(seed, tag, i, j))
            for j in range(n)
            if j != pivot
        }
        acc = deltas[i] - LaurentSeries.from_poly(p[i]) - theta[i]
        for j, s in others.items():
            if not q[j].is_zero():
                acc = acc - s * qs[j]
        pivot_entry = acc.div_poly(q[pivot], floor)
        rows.append([pivot_entry if j == pivot else others[j] for j in range(n)])
    return SeriesMatrix(rows)


def plant_witness(params: PlantParams, seed: int) -> PlantedInstance:
    """Construct (Y, theta, alpha, T) satisfying the product premises.

    One matrix entry per row is solved exactly so that Y q + p + theta
    equals a noise series of prescribed degree; the premises are re-verified
    by ``witness_extract_uv`` before returning.  Everything is drawn down to
    the lower of ``params.floor`` and T below the deepest target row, so
    each error row is known below its top whatever the configured floor.
    """
    F = params.field
    m, n, T = params.m, params.n, params.T
    rng = derive_rng(seed, "plant")
    cutoff = (params.eta + params.eps) * T  # errors must beat e^-cutoff

    # q: all coordinates nonzero, plus-product within the horizon
    budget = T - 1
    degs = []
    remaining = budget
    for _ in range(n):
        d = rng.randrange(0, remaining + 1)
        degs.append(d)
        remaining -= d
    q = tuple(random_poly(F, d, rng) for d in degs)
    p = tuple(random_poly(F, rng.randrange(0, 3), rng) for _ in range(m))

    # target error rows: degrees summing strictly below -cutoff
    per_row = -(math.floor(cutoff / m) + 1 + _PLANT_ERR_MARGIN)
    targets = [per_row - rng.randrange(0, 3) for _ in range(m)]
    # Y q is known down to floor + deg q_pivot <= floor + T - 1, above each target
    floor = min(params.floor, min(targets) - T)
    theta = tuple(
        random_series(F, floor, derive_rng(seed, "plant-theta", i)) for i in range(m)
    )
    deltas = [
        _noise_series(F, d, floor, derive_rng(seed, "plant-noise", i))
        for i, d in enumerate(targets)
    ]

    Y = solve_matrix_for_residual(F, q, p, theta, deltas, floor, seed, "plant-Y")
    alpha = Witness(p, q)

    # re-verify the premises exactly on the truncated data
    try:
        witness_extract_uv(Y, theta, alpha, T, params.eta, params.eps)
    except PreconditionError as exc:
        raise AssertionError(f"planted witness misses its premise: {exc}") from exc
    return PlantedInstance(Y, theta, alpha, T, params.eta, params.eps)


# ---------------------------------------------------------------------------
# paired membership witnesses (for the intersection property)
# ---------------------------------------------------------------------------


class MembershipPair(Record):
    Y: SeriesMatrix
    theta: tuple
    t: object  # IndexTuple
    tau: Fraction
    alpha: Witness
    alpha2: Witness


def plant_membership_pair(
    field: Fq,
    eta: Fraction,
    seed: int,
    floor: int = -80,
) -> MembershipPair:
    """A 1 x 2 instance where two distinct witnesses share a member cell.

    Both witness equations Y q = delta - p - theta are solved at once by
    Cramer's rule in the two unknown entries of Y, so both cell memberships
    hold exactly by construction.  Y is solved down to the lower of
    ``floor`` and one digit below the lowest noise top less max deg q, so
    each row Y q + p + theta is known below its top whatever ``floor`` is.
    """
    eta = Fraction(eta)
    rng = derive_rng(seed, "pair")
    params = TsetParams(1, 2, eta)
    # a comfortably accepted (u, v): xi >= 3 leaves room for the degree bump
    v = (rng.randrange(0, 2), rng.randrange(0, 2))
    need = math.ceil(eta * sum(v) + 3 * (1 + 2 * eta))
    u = (need + rng.randrange(0, 3),)
    got = xi_and_t(u, v, params)
    if got is None:
        raise AssertionError("the planted (u, v) is not accepted")
    _, it = got
    tau = tau0(Fraction(1), params) / 2
    sigma = it.sigma

    # q2 bumps the second coordinate's degree by one: the two determinant
    # terms then have distinct degrees, so det != 0 by the ultrametric
    q1 = tuple(random_poly(field, v[i], rng) for i in range(2))
    q2 = (random_poly(field, v[0], rng), random_poly(field, v[1] + 1, rng))
    det = q1[0] * q2[1] - q1[1] * q2[0]
    if det.is_zero():
        raise AssertionError("the two planted witnesses are dependent")
    p1 = (random_poly(field, rng.randrange(0, 2), rng),)
    p2 = (random_poly(field, rng.randrange(0, 2), rng),)
    depth = it.t[0] + math.ceil(tau * sigma) + 3
    tops = [-depth - rng.randrange(0, 3) for _ in range(2)]
    floor = min(floor, min(tops) - max(x.deg for x in q1 + q2) - 1)
    # theta and the noise rows are drawn below the planting floor: the
    # Cramer numerators, their products with q, must be known down to
    # floor + deg det, which needs work <= floor + deg det - max deg q
    work = floor - 24
    theta = (random_series(field, work, derive_rng(seed, "pair-theta")),)
    d1 = _noise_series(field, tops[0], work, derive_rng(seed, "pair-d1"))
    d2 = _noise_series(field, tops[1], work, derive_rng(seed, "pair-d2"))
    rhs1 = d1 - LaurentSeries.from_poly(p1[0]) - theta[0]
    rhs2 = d2 - LaurentSeries.from_poly(p2[0]) - theta[0]
    q2s = [LaurentSeries.from_poly(x) for x in q2]
    q1s = [LaurentSeries.from_poly(x) for x in q1]
    # a digit of num / det at e >= floor reads num down to e + deg det and
    # 1/det down to e - top, so each product comes out known down to floor
    nums = [
        (rhs1 * q2s[1] - rhs2 * q1s[1]).truncate(floor + det.deg),
        (rhs2 * q1s[0] - rhs1 * q2s[0]).truncate(floor + det.deg),
    ]
    top = max(num.top for num in nums)
    det_inv = LaurentSeries.from_poly(det).inverse(floor - top)
    y11, y12 = (num * det_inv for num in nums)
    Y = SeriesMatrix([[y11, y12]])
    a1, a2 = Witness(p1, q1), Witness(p2, q2)
    for a in (a1, a2):
        res = delta_membership(Y, theta, it, a, tau)
        if not res.member:
            raise AssertionError("constructed pair misses its membership")
    return MembershipPair(Y, theta, it, tau, a1, a2)
