"""Finite field arithmetic for F_q, q = p^d.

Elements are plain integers in range(q).  For prime fields (d = 1) the
integer is the residue mod p.  For extension fields the integer encodes the
coordinate vector (c0, c1, ..., c_{d-1}) relative to the power basis of the
modulus as c0 + c1*p + ... + c_{d-1}*p^(d-1).  All arithmetic goes through a
shared ``Fq`` context object, which keeps element values hashable, cheap to
copy and safe to share between workers.

Every operation has two branches.  A field with q <= ``TABLE_LIMIT``
builds add and mul tables and neg and inv vectors once, when constructed,
and each operation is then one lookup (sub two: a - b adds -b).  A larger
field (a big user modulus) computes on base-p coordinates on every call,
mod p in one step on a prime field.  The tables are part of the context,
so they travel with it to workers.  Two row operations serve elimination:
``sub_scaled`` (r -= f * p in place, as r + (-f) * p) and ``scaled``
(f * row).  Each reads one row of the mul table per call on a tabled
field, and on a larger one calls the coordinate computation per entry.
"""

from __future__ import annotations

from .errors import ParseError

# Built-in irreducible moduli (coefficient lists, low degree first) for the
# extension fields we support out of the box.  Anything else needs an
# explicit user-supplied modulus.
_BUILTIN_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),  # X^2 + X + 1 over F_2  -> F_4
    (2, 3): (1, 1, 0, 1),  # X^3 + X + 1 over F_2  -> F_8
    (3, 2): (1, 0, 1),  # X^2 + 1     over F_3  -> F_9
}

# Fields with at most this many elements do all arithmetic by table lookup
# (two q x q tables, add and mul, and two vectors, neg and inv, built in
# ``Fq.__init__``); larger fields work on base-p digits on every call.  128
# tables every field the benchmark and the examples use; only fields chosen to
# exercise the computed path (q > 128) run it.
TABLE_LIMIT = 128


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_irreducible_mod_p(coeffs: list[int], p: int) -> bool:
    """Trial-division irreducibility test for small moduli over F_p: no
    monic polynomial of degree 1 .. deg//2 divides."""
    from .poly import Poly, iter_polys, poly_divmod  # deferred: poly depends on field

    F = Fq(p)
    f = Poly(F, [c % p for c in coeffs])
    if f.deg < 1:
        return False
    return all(
        poly_divmod(f, g)[1].coeffs
        for g in iter_polys(F, f.deg // 2)
        if g.deg >= 1 and g.lc() == 1
    )


class Fq:
    """Arithmetic context for the finite field with q = p^d elements.

    Instances are immutable after construction and safe to share between
    workers; every operation is a pure function of its arguments.
    """

    __slots__ = ("p", "d", "q", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, p: int, d: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        if d == 1:
            if modulus is not None:
                raise ValueError("modulus only applies to extension fields (d > 1)")
        else:
            if modulus is None:
                modulus = _BUILTIN_MODULI.get((p, d))
                if modulus is None:
                    raise ValueError(
                        f"no built-in modulus for p={p}, d={d}; supply one explicitly"
                    )
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != d + 1 or modulus[-1] == 0:
                raise ValueError(f"modulus must have degree exactly {d}")
            if not is_irreducible_mod_p(list(modulus), p):
                raise ValueError("modulus is not irreducible")
            # a unit multiple gives the same field and power basis, and the
            # digit loops reduce by a monic modulus
            lead_inv = pow(modulus[-1], p - 2, p)
            modulus = tuple(c * lead_inv % p for c in modulus)
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus
        self._add = self._mul = self._neg = self._inv = None
        if self.q <= TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self) -> None:
        """Fill the lookup tables, with no digit loop per entry.

        Sums are coordinatewise mod p, so the add table of p^(k+1) elements
        is built from that of p^k and the mod-p one:
        (a' + p^k c) + (b' + p^k c') = (a' + b') + p^k (c + c').

        Products come from the powers of a primitive element g: with
        a = g^i and b = g^j, a*b = g^((i+j) mod (q-1)) and 1/a = g^(-i).
        """
        q, p = self.q, self.p
        cyc = list(range(p))
        base = [cyc[c:] + cyc[:c] for c in cyc]  # (c + c') mod p
        add, P = base, p
        for _ in range(self.d - 1):
            add = [
                [hi + lo for hi in top for lo in low]
                for top in ([P * c for c in row] for row in base)
                for low in add
            ]
            P *= p
        self._add = add
        self._neg = [row.index(0) for row in add]
        power = self._primitive_powers()
        log = [0] * q
        for k, x in enumerate(power):
            log[x] = k
        n = q - 1
        self._mul = [[0] * q] + [
            [0] + [power[(log[a] + log[b]) % n] for b in range(1, q)]
            for a in range(1, q)
        ]
        # inv[0] is never read: inv() rejects zero first
        self._inv = [0] + [power[-log[a] % n] for a in range(1, q)]

    def _primitive_powers(self) -> list[int]:
        """[g^0, g^1, ..., g^(q-2)] for the least primitive element g,
        stepping by a table of x -> x*g (``_linear_table``) built from the
        images g*X^i of the power basis, each X times the one before."""
        p, d = self.p, self.d
        if d > 1:
            # X*X^i is X^(i+1), and X*X^(d-1) = X^d is minus the monic
            # modulus's lower terms
            x_d = self.from_coords([-c for c in self.modulus[:-1]])
            times_x = self._linear_table([p**i for i in range(1, d)] + [x_d])
        for g in range(1, self.q):
            images = [g]
            for _ in range(d - 1):
                images.append(times_x[images[-1]])
            times_g = self._linear_table(images)
            power, x = [1], g
            while x != 1:
                power.append(x)
                x = times_g[x]
            if len(power) == self.q - 1:
                return power
        raise AssertionError("the multiplicative group of F_q is cyclic")

    def _linear_table(self, images: list[int]) -> list[int]:
        """[f(x) for x in range(q)] for the F_p-linear f with f(X^i) =
        images[i]: x = sum c_i X^i goes to sum c_i images[i], every sum read
        off the add table, one base-p digit of x at a time."""
        add = self._add
        table = [0]
        for image in images:
            multiples = [0]  # c * image for c = 0 .. p-1
            for _ in range(self.p - 1):
                multiples.append(add[multiples[-1]][image])
            table = [add[c][x] for c in multiples for x in table]
        return table

    # -- element codec -------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        """Coordinates of an element relative to the power basis."""
        out = []
        for _ in range(self.d):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coords(self, coords) -> int:
        cs = list(coords)
        if len(cs) > self.d:
            raise ValueError(f"too many coordinates for degree-{self.d} extension")
        val = 0
        for c in reversed(cs):
            val = val * self.p + (c % self.p)
        return val

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic ----------------------------------------------------
    # Arguments must be elements, i.e. ints in range(q): a table lookup does
    # not reduce its index, and a negative one would wrap silently.

    def add(self, a: int, b: int) -> int:
        t = self._add
        return t[a][b] if t is not None else self._add_digits(a, b)

    def neg(self, a: int) -> int:
        t = self._neg
        return t[a] if t is not None else self._neg_digits(a)

    def sub(self, a: int, b: int) -> int:
        t = self._add
        if t is not None:
            return t[a][self._neg[b]]
        return self._add_digits(a, self._neg_digits(b))

    def mul(self, a: int, b: int) -> int:
        t = self._mul
        return t[a][b] if t is not None else self._mul_digits(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in F_q")
        t = self._inv
        if t is not None:
            return t[a]
        # a^(q-2) by square-and-multiply
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self._mul_digits(result, base)
            base = self._mul_digits(base, base)
            e >>= 1
        return result

    # -- row operations: one call per row, for elimination --------------

    def sub_scaled(self, r: list[int], f: int, p: list[int], start: int = 0) -> None:
        """r[j] -= f * p[j] in place for every j >= start."""
        t = self._mul
        if t is not None:
            fm, add = t[self._neg[f]], self._add
            for j in range(start, len(r)):
                c = p[j]
                if c:
                    r[j] = add[r[j]][fm[c]]
        else:
            add, neg, mul = self._add_digits, self._neg_digits, self._mul_digits
            for j in range(start, len(r)):
                c = p[j]
                if c:
                    r[j] = add(r[j], neg(mul(f, c)))

    def scaled(self, f: int, row: list[int]) -> list[int]:
        """The row f * row, as a new list."""
        t = self._mul
        if t is not None:
            fm = t[f]
            return [fm[c] for c in row]
        return [self._mul_digits(f, c) for c in row]

    # -- digit loops: serve fields above TABLE_LIMIT --

    def _add_digits(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a + b) % self.p
        p, val, mult = self.p, 0, 1
        for _ in range(self.d):
            val += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return val

    def _neg_digits(self, a: int) -> int:
        if self.d == 1:
            return (-a) % self.p
        p, val, mult = self.p, 0, 1
        for _ in range(self.d):
            val += ((-a) % p) * mult
            a //= p
            mult *= p
        return val

    def _mul_digits(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        p = self.p
        ca, cb = list(self.coords(a)), list(self.coords(b))
        prod = [0] * (2 * self.d - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce mod the modulus polynomial
        mod = self.modulus
        for k in range(len(prod) - 1, self.d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(self.d):
                    prod[k - self.d + i] = (prod[k - self.d + i] - c * mod[i]) % p
        return self.from_coords(prod[: self.d])

    # -- misc ----------------------------------------------------------

    def is_gf2(self) -> bool:
        return self.q == 2

    def spec_string(self) -> str:
        if self.d == 1:
            return f"p={self.p}"
        terms = []
        for e in range(self.d, -1, -1):
            c = self.modulus[e]
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("X" if c == 1 else f"{c}*X")
            else:
                terms.append(f"X^{e}" if c == 1 else f"{c}*X^{e}")
        return f"p={self.p},d={self.d},modulus={' + '.join(terms)}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fq)
            and self.p == other.p
            and self.d == other.d
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.d, self.modulus))

    def __repr__(self) -> str:
        return f"Fq({self.spec_string()!r})"


def parse_field_spec(text: str) -> Fq:
    """Parse a field spec string like ``p=2`` or ``p=2,d=2,modulus=X^2+X+1``."""
    from .poly import parse_poly_literal  # deferred: poly depends on field

    parts = [s.strip() for s in text.split(",")]
    kv: dict[str, str] = {}
    # the modulus itself may contain no commas, so plain splitting is safe
    for part in parts:
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"expected key=value in field spec, got {part!r}")
        k, v = part.split("=", 1)
        kv[k.strip()] = v.strip()
    if "p" not in kv:
        raise ParseError("field spec must set p")
    try:
        p = int(kv["p"])
        d = int(kv.get("d", "1"))
    except ValueError as exc:
        raise ParseError(f"bad integer in field spec: {exc}") from exc
    modulus = None
    if "modulus" in kv:
        base = Fq(p)
        mpoly = parse_poly_literal(kv["modulus"], base)
        modulus = mpoly.coeffs
    unknown = set(kv) - {"p", "d", "modulus"}
    if unknown:
        raise ParseError(f"unknown field spec keys: {sorted(unknown)}")
    return Fq(p, d, modulus)
