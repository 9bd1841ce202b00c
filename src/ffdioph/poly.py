"""Polynomials over F_q: the ring of integer-like elements of the Laurent
series field.

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial is the empty tuple.  Degrees live in the integers, with
``NEG_INF`` (= float('-inf')) as the degree of the zero polynomial so that
deg(fg) = deg f + deg g holds without special cases.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .field import Fq

NEG_INF = float("-inf")


class Poly:
    """Immutable polynomial over a fixed F_q context."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Fq, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: Fq) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Fq) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x_power(cls, field: Fq, k: int) -> "Poly":
        if k < 0:
            raise ValueError("x_power needs a nonnegative exponent")
        return cls(field, (0,) * k + (1,))

    # -- queries ---------------------------------------------------------

    @property
    def deg(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed-field polynomial arithmetic")

    # sums share the field's row operations with LaurentSeries: one pass over
    # the common low coefficients, then the longer operand's tail as it is
    # (negated in a - b when it is b's)

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        out = F.add_row(a, b)
        out += a[n:]
        out += b[n:]
        return Poly(F, out)

    def __neg__(self) -> "Poly":
        return Poly(self.field, self.field.neg_row(self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        out = F.sub_row(a, b)
        out += a[n:]
        out += F.neg_row(b[n:])
        return Poly(F, out)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        return Poly(self.field, mul_coeffs(self.field, a, b, len(a) + len(b) - 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.to_literal()!r})"

    def to_literal(self) -> str:
        return format_terms(
            {e: c for e, c in enumerate(self.coeffs) if c}, self.field
        )


def mul_coeffs(F: Fq, a, b, width: int) -> list[int]:
    """Entries k < width of the convolution of a and b, the sum of a[i] * b[k - i]:
    the one product loop of ``Poly`` (low degree first) and ``LaurentSeries``
    (high exponent first, cut at its floor), one add and mul per nonzero pair."""
    out = [0] * width
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    add, mul = F.add, F.mul
    for i, x in enumerate(a[:width]):
        if not x:
            continue
        for j, y in nonzero:
            k = i + j
            if k >= width:
                break
            out[k] = add(out[k], mul(x, y))
    return out


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = quot*b + rem with deg rem < deg b.

    The package's one long division.  Top-down: quotient coefficient k
    clears the remainder's coefficient at k + deg b, with one
    multiply-subtract per nonzero lower coefficient of b, so it costs
    O(len(a) * nnz(b)) field operations.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.field != b.field:
        raise ValueError("mixed-field polynomial division")
    F = a.field
    db = len(b.coeffs) - 1
    lead_inv = F.inv(b.lc())
    lower = [(i, c) for i, c in enumerate(b.coeffs[:db]) if c]
    rem = list(a.coeffs)
    quot = [0] * max(0, len(rem) - db)
    sub, mul = F.sub, F.mul
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + db]
        if top:
            f = quot[k] = mul(top, lead_inv)
            for i, c in lower:
                rem[k + i] = sub(rem[k + i], mul(f, c))
    return Poly(F, quot), Poly(F, rem[:db])


def iter_polys(field: Fq, max_deg: int):
    """All polynomials of degree <= max_deg (including zero), low-deg first:
    its first q**(r+1) entries are those of degree <= r."""
    yield Poly.zero(field)
    for deg in range(max_deg + 1):
        base = field.q**deg
        for lead in range(1, field.q):
            for rest in range(base):
                coeffs = []
                v = rest
                for _ in range(deg):
                    coeffs.append(v % field.q)
                    v //= field.q
                coeffs.append(lead)
                yield Poly(field, coeffs)


# ---------------------------------------------------------------------------
# literal syntax shared by polynomials and Laurent series
#
#   term  := coef | coef '*' X | X | coef '*' X^k | X^k      (k may be negative)
#   coef  := digits | '[' digits (',' digits)* ']'           (basis tuple for d>1)
#   expr  := term ('+' term)*  with '-' also accepted between terms
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<coef>\[[0-9,\s]*\]|\d+)(?:\s*\*\s*)?)?"
    r"(?:(?P<var>X)(?:\^(?P<exp>-?\d+))?)?"
)


def parse_terms(text: str, field: Fq, allow_negative: bool) -> dict[int, int]:
    """Parse a '+'-joined term list into an {exponent: element} map."""
    out: dict[int, int] = {}
    pos = 0
    text = text.strip()
    if not text:
        raise ParseError("empty literal", 0)
    sign = 1
    expect_term = True
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-":
            if expect_term:
                raise ParseError("unexpected sign", pos)
            sign = 1 if ch == "+" else -1
            expect_term = True
            pos += 1
            continue
        if not expect_term:
            raise ParseError("expected '+' between terms", pos)
        m = _TOKEN.match(text, pos)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ParseError("expected a term", pos)
        coef_txt, var, exp_txt = m.group("coef"), m.group("var"), m.group("exp")
        if coef_txt is None:
            elem = 1
        elif coef_txt.startswith("["):
            try:
                parts = [int(s) for s in coef_txt[1:-1].split(",") if s.strip()]
            except ValueError:
                raise ParseError("bad basis tuple", pos) from None
            if len(parts) > field.d:
                raise ParseError(
                    f"basis tuple longer than extension degree {field.d}", pos
                )
            elem = field.from_coords(parts)
        else:
            elem = int(coef_txt) % field.p
        exp = 0
        if var is not None:
            exp = int(exp_txt) if exp_txt is not None else 1
        if exp < 0 and not allow_negative:
            raise ParseError("negative exponent not allowed here", pos)
        if sign < 0:
            elem = field.neg(elem)
        out[exp] = field.add(out.get(exp, 0), elem)
        if out[exp] == 0:
            del out[exp]
        sign = 1
        expect_term = False
        pos = m.end()
    if expect_term:
        raise ParseError("trailing operator", n)
    return out


def format_terms(terms: dict[int, int], field: Fq) -> str:
    """Render an {exponent: element} map, terms ordered low to high exponent."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms):
        c = terms[e]
        if field.d > 1 and c >= field.p:
            coef_txt = "[" + ",".join(str(x) for x in field.coords(c)) + "]"
        else:
            coef_txt = str(c)
        if e == 0:
            parts.append(coef_txt)
        else:
            xpart = "X" if e == 1 else f"X^{e}"
            parts.append(xpart if coef_txt == "1" else f"{coef_txt}*{xpart}")
    return " + ".join(parts)


def parse_poly_literal(text: str, field: Fq) -> Poly:
    terms = parse_terms(text, field, allow_negative=False)
    if not terms:
        return Poly.zero(field)
    coeffs = [0] * (max(terms) + 1)
    for e, c in terms.items():
        coeffs[e] = c
    return Poly(field, coeffs)
