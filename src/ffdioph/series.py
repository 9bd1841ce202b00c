"""Truncated Laurent series in 1/X over F_q, with exact precision tracking.

A series carries its known digits for exponents ``top`` down to ``floor``.
``floor = NEG_INF`` marks an exact element (a Laurent polynomial: every digit
below the stored range is exactly zero).  A finite floor means digits below
it are unknown, and every operation propagates that ignorance so that no
exact-looking digit is ever fabricated.

All absolute values are handled in the degree domain: an element of size
e^k is represented by the integer k (see ``DegValue``), never by a float.
"""

from __future__ import annotations

from .errors import ParseError, PrecisionExhaustedError
from .field import Fq
from .poly import NEG_INF, Poly, format_terms, mul_coeffs, parse_terms, poly_divmod
from .record import Record


class DegValue(Record):
    """A degree (log-absolute-value) that may be censored by a precision floor.

    ``value`` is an integer, or NEG_INF for an exactly-zero quantity.
    ``censored=True`` means "the true degree is <= value; digits below are
    unknown".  Exactly-zero values are never censored.
    """

    value: int | float
    censored: bool = False

    @classmethod
    def exact(cls, v) -> "DegValue":
        return cls(v, False)

    @classmethod
    def censored_at(cls, v: int) -> "DegValue":
        return cls(v, True)

    def shift(self, k: int) -> "DegValue":
        if self.value == NEG_INF:
            return self
        return DegValue(self.value + k, self.censored)

    def scale(self, m: int) -> "DegValue":
        if self.value == NEG_INF:
            return self
        return DegValue(self.value * m, self.censored)

    def __repr__(self) -> str:
        tag = "<=" if self.censored else ""
        return f"DegValue({tag}{self.value})"


def deg_max(values) -> DegValue:
    """Supremum of degrees.  Exact when an uncensored entry attains the max."""
    values = list(values)
    if not values:
        raise ValueError("deg_max of empty sequence")
    m = max(v.value for v in values)
    exact_hit = any(v.value == m and not v.censored for v in values)
    if m == NEG_INF:
        return DegValue(NEG_INF, False)
    return DegValue(m, not exact_hit)


def deg_sum(values) -> DegValue:
    """Degree of a product.  An exact zero factor wins over censoring."""
    values = list(values)
    if any(v.value == NEG_INF for v in values):
        return DegValue(NEG_INF, False)
    total = sum(v.value for v in values)
    return DegValue(total, any(v.censored for v in values))


def deg_lt(d: DegValue, threshold) -> bool:
    """Decide ``true degree < threshold`` or raise if censoring prevents it.

    threshold may be an int or Fraction (a formal exponent of e).
    """
    if d.value < threshold:
        return True  # even if censored: true value <= d.value < threshold
    if not d.censored:
        return False
    raise PrecisionExhaustedError(
        f"cannot compare censored degree <={d.value} against threshold {threshold}"
    )


class LaurentSeries:
    """Immutable element of F_q((1/X)) known down to a precision floor."""

    __slots__ = ("field", "top", "coeffs", "floor")

    def __init__(self, field: Fq, top, coeffs, floor):
        # normalize: strip leading zeros, detect known-zero, trim exact tails
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            top -= 1
        if not coeffs:
            top = NEG_INF
        if floor == NEG_INF:
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs:
                top = NEG_INF
        else:
            if top != NEG_INF:
                want = top - floor + 1
                if len(coeffs) < want:
                    coeffs.extend([0] * (want - len(coeffs)))
                elif len(coeffs) > want:
                    raise ValueError("coefficients extend below the stated floor")
        if top != NEG_INF and floor != NEG_INF and floor > top:
            raise ValueError("floor must not exceed the leading exponent")
        self.field = field
        self.top = top
        self.coeffs = tuple(coeffs)
        self.floor = floor

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: Fq, floor=NEG_INF) -> "LaurentSeries":
        return cls(field, NEG_INF, (), floor)

    @classmethod
    def one(cls, field: Fq) -> "LaurentSeries":
        return cls(field, 0, (1,), NEG_INF)

    @classmethod
    def monomial(cls, field: Fq, exp: int, coeff: int = 1) -> "LaurentSeries":
        return cls(field, exp, (coeff,), NEG_INF)

    @classmethod
    def from_terms(cls, field: Fq, terms: dict[int, int], floor=NEG_INF) -> "LaurentSeries":
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            return cls.zero(field, floor)
        top = max(terms)
        lo = min(terms) if floor == NEG_INF else floor
        if floor != NEG_INF and min(terms) < floor:
            raise ValueError("term below the stated floor")
        coeffs = [terms.get(e, 0) for e in range(top, lo - 1, -1)]
        return cls(field, top, coeffs, floor)

    @classmethod
    def from_poly(cls, poly: Poly) -> "LaurentSeries":
        if poly.is_zero():
            return cls.zero(poly.field)
        coeffs = list(reversed(poly.coeffs))
        return cls(poly.field, poly.deg, coeffs, NEG_INF)

    # -- queries -----------------------------------------------------------

    def is_exact(self) -> bool:
        return self.floor == NEG_INF

    def is_known_zero(self) -> bool:
        """All known digits vanish (exactly zero iff also exact)."""
        return self.top == NEG_INF

    def is_exact_zero(self) -> bool:
        return self.top == NEG_INF and self.floor == NEG_INF

    def deg(self) -> DegValue:
        """Degree as a DegValue; censored when only a zero prefix is known."""
        if self.top != NEG_INF:
            return DegValue(self.top, False)
        if self.floor == NEG_INF:
            return DegValue(NEG_INF, False)
        return DegValue(self.floor - 1, True)

    def _stored_lo(self):
        if self.top == NEG_INF:
            return self.floor
        return self.top - len(self.coeffs) + 1

    def coeff(self, e: int) -> int:
        """Digit at exponent e; raises if e is below the floor."""
        if self.floor != NEG_INF and e < self.floor:
            raise PrecisionExhaustedError(
                f"digit at exponent {e} is below the floor {self.floor}"
            )
        if self.top == NEG_INF or e > self.top:
            return 0
        idx = self.top - e
        if idx < len(self.coeffs):
            return self.coeffs[idx]
        return 0  # exact series, below stored range

    def digits(self, hi: int, lo: int) -> list[int]:
        """Digits at exponents hi, hi-1, ..., lo, sliced from the stored ones.

        Same rule as ``coeff``: zeros above ``top`` and below the stored range
        of an exact series, and PrecisionExhaustedError if lo is below a finite
        floor.  An empty window (hi < lo) is [] and reads nothing.
        """
        if hi < lo:
            return []
        if self.floor != NEG_INF and lo < self.floor:
            raise PrecisionExhaustedError(
                f"digit at exponent {lo} is below the floor {self.floor}"
            )
        width = hi - lo + 1
        if self.top == NEG_INF:
            return [0] * width
        start = self.top - hi  # index of exponent hi in coeffs
        out = [0] * min(width, max(0, -start))
        out.extend(self.coeffs[max(0, start) : max(0, self.top - lo + 1)])
        out.extend([0] * (width - len(out)))
        return out

    def terms(self) -> dict[int, int]:
        if self.top == NEG_INF:
            return {}
        return {
            self.top - i: c for i, c in enumerate(self.coeffs) if c
        }

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "LaurentSeries") -> None:
        if self.field != other.field:
            raise ValueError("mixed-field series arithmetic")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        floor = max(self.floor, other.floor)
        tops = [t for t in (self.top, other.top) if t != NEG_INF]
        if not tops:
            return LaurentSeries.zero(self.field, floor)
        top = max(tops)
        if floor != NEG_INF:
            lo = floor
        else:
            lo = min(
                s._stored_lo() for s in (self, other) if s.top != NEG_INF
            )
        F = self.field
        # both operands as aligned slices of exponents top..lo, one add per digit
        coeffs = list(map(F.add, self.digits(top, lo), other.digits(top, lo)))
        return LaurentSeries(F, top, coeffs, floor)

    def __neg__(self) -> "LaurentSeries":
        F = self.field
        return LaurentSeries(
            F, self.top, [F.neg(c) for c in self.coeffs], self.floor
        )

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def _effective_top(self):
        """Largest exponent that may carry a nonzero digit."""
        if self.top != NEG_INF:
            return self.top
        if self.floor == NEG_INF:
            return NEG_INF
        return self.floor - 1

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        F = self.field
        et_s, et_o = self._effective_top(), other._effective_top()
        # unknown digits of one factor meet the other factor's top digits
        floor = NEG_INF
        if self.floor != NEG_INF and et_o != NEG_INF:
            floor = max(floor, self.floor + et_o)
        if other.floor != NEG_INF and et_s != NEG_INF:
            floor = max(floor, other.floor + et_s)
        if self.is_known_zero() or other.is_known_zero():
            return LaurentSeries.zero(F, floor)
        top = self.top + other.top
        lo = floor if floor != NEG_INF else self._stored_lo() + other._stored_lo()
        # the digit at top - k collects self.coeffs[i] * other.coeffs[k - i]
        out = mul_coeffs(F, self.coeffs, other.coeffs, top - lo + 1)
        return LaurentSeries(F, top, out, floor)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by X^k."""
        top = self.top + k if self.top != NEG_INF else NEG_INF
        floor = self.floor + k if self.floor != NEG_INF else NEG_INF
        return LaurentSeries(self.field, top, self.coeffs, floor)

    def truncate(self, new_floor: int) -> "LaurentSeries":
        """Forget digits below new_floor (which must not deepen knowledge)."""
        if self.floor != NEG_INF and new_floor < self.floor:
            raise PrecisionExhaustedError(
                f"cannot extend floor {self.floor} down to {new_floor}"
            )
        if self.top == NEG_INF:
            return LaurentSeries.zero(self.field, new_floor)
        if new_floor > self.top:
            return LaurentSeries.zero(self.field, new_floor)
        coeffs = [self.coeff(e) for e in range(self.top, new_floor - 1, -1)]
        return LaurentSeries(self.field, self.top, coeffs, new_floor)

    def inverse(self, floor: int) -> "LaurentSeries":
        """Inverse of an exact nonzero Laurent polynomial, down to ``floor``.

        An exact monomial has an exact inverse.  Otherwise, with lo the lowest
        stored exponent, P = self * X^-lo is a polynomial with a nonzero
        constant term, and 1/self = X^-lo / P comes from ``div_poly``,
        truncated at ``floor``; for zero, P = 0 and ``div_poly`` raises
        ZeroDivisionError.  A truncated input raises ValueError.
        """
        if not self.is_exact():
            raise ValueError("inverse takes an exact Laurent polynomial")
        F = self.field
        if len(self.coeffs) == 1:
            return LaurentSeries.monomial(F, -self.top, F.inv(self.coeffs[0]))
        lo = self._stored_lo()
        P = Poly(F, self.coeffs[::-1])
        return LaurentSeries.one(F).div_poly(P, floor + lo).shift(-lo)

    def div_poly(self, q: Poly, floor: int) -> "LaurentSeries":
        """Quotient by an exact nonzero polynomial, with digits down to ``floor``.

        With d = deg q, the digit window top..floor + d, scaled by X^-floor
        (d zero low coefficients), is divided by q with ``poly_divmod``:
        quotient coefficient k is the digit at floor + k, since the digits
        below floor + d form a tail of degree < d that changes only the
        remainder.  So it reads this series down to floor + d and no deeper;
        a numerator not known that deep raises PrecisionExhaustedError.  The
        result is truncated at ``floor`` even when the quotient is exact.
        """
        if q.field != self.field:
            raise ValueError("mixed-field series arithmetic")
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        F = self.field
        d = q.deg
        if self.floor != NEG_INF and self.floor > floor + d:
            raise PrecisionExhaustedError(
                f"quotient floor {floor} needs digits below the floor {self.floor}"
            )
        window = [0] * d + self.digits(self.top, floor + d)[::-1]
        quot, _ = poly_divmod(Poly(F, window), q)
        return LaurentSeries(F, self.top - d, quot.coeffs[::-1], floor)

    # -- structure -----------------------------------------------------------

    def split_parts(self) -> tuple[Poly, "LaurentSeries"]:
        """Split into polynomial part (exponents >= 0) and fractional part."""
        if self.floor != NEG_INF and self.floor > 0:
            raise PrecisionExhaustedError(
                "polynomial part not fully known above the floor"
            )
        if self.top == NEG_INF or self.top < 0:
            return Poly.zero(self.field), self
        # coeffs[k] is the digit at top - k, so the digit at -1 is coeffs[top + 1]
        poly = Poly(self.field, self.digits(self.top, 0)[::-1])
        frac = LaurentSeries(self.field, -1, self.coeffs[self.top + 1 :], self.floor)
        return poly, frac

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.top == other.top
            and self.coeffs == other.coeffs
            and self.floor == other.floor
        )

    def __hash__(self) -> int:
        return hash((self.field, self.top, self.coeffs, self.floor))

    def __repr__(self) -> str:
        body = self.to_literal()
        if self.floor == NEG_INF:
            return f"Series({body!r})"
        return f"Series({body!r}, floor={self.floor})"

    def to_literal(self) -> str:
        return format_terms(self.terms(), self.field)


def parse_series_literal(text: str, field: Fq, floor=NEG_INF) -> LaurentSeries:
    terms = parse_terms(text, field, allow_negative=True)
    if floor != NEG_INF:
        below = [e for e in terms if e < floor]
        if below:
            raise ParseError(f"term exponent {min(below)} below floor {floor}")
    return LaurentSeries.from_terms(field, terms, floor)
