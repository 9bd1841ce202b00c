"""Vectors and matrices over the Laurent series field, plus the degree-domain
norms used throughout: the sup norm and the plus-product that ignores small
polynomial coordinates.
"""

from __future__ import annotations

from .field import Fq
from .poly import NEG_INF
from .series import DegValue, LaurentSeries, deg_max


class SeriesMatrix:
    """Immutable m x n matrix of LaurentSeries over a common field."""

    __slots__ = ("field", "m", "n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged matrix rows")
        field = rows[0][0].field
        for r in rows:
            for s in r:
                if s.field != field:
                    raise ValueError("mixed-field matrix entries")
        self.field = field
        self.m = len(rows)
        self.n = n
        self.rows = rows

    def entry(self, i: int, j: int) -> LaurentSeries:
        return self.rows[i][j]

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix(tuple(zip(*self.rows)))

    def __eq__(self, other) -> bool:
        return isinstance(other, SeriesMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"SeriesMatrix({self.m}x{self.n})"


def zero_theta(field: Fq, m: int) -> tuple[LaurentSeries, ...]:
    return tuple(LaurentSeries.zero(field) for _ in range(m))


def sup_deg(vec) -> DegValue:
    """Degree of the sup norm of a series vector."""
    return deg_max(s.deg() for s in vec)


def prod_plus_deg(qvec) -> int:
    """Degree of the plus-product of a polynomial vector: sum of max(0, deg)."""
    total = 0
    for q in qvec:
        d = q.deg
        if d != NEG_INF and d > 0:
            total += d
    return total


def cut_series(s: LaurentSeries, floor: int) -> LaurentSeries:
    """s known down to floor and no deeper; s itself if known less deep."""
    if s.floor != NEG_INF and s.floor >= floor:
        return s
    return s.truncate(floor)


def cut_matrix(Y: SeriesMatrix, q, floor: int) -> SeriesMatrix:
    """Y with column j cut to floor - max(deg q_j, 0) by cut_series.

    A digit of Y_ij q_j at exponent e reads Y_ij down to e - deg q_j only,
    so every digit of Y q (and of Y q + p + theta with theta cut to floor)
    at exponents >= floor is the uncut one, and none below floor is known.
    """
    if len(q) != Y.n:
        raise ValueError("dimension mismatch in affine product")
    return SeriesMatrix(
        [
            [cut_series(s, floor - max(qj.deg, 0)) for s, qj in zip(row, q)]
            for row in Y.rows
        ]
    )


def matvec_affine(
    Y: SeriesMatrix,
    q,
    p,
    theta=None,
) -> tuple[LaurentSeries, ...]:
    """Rows of Y*q + p + theta with exact floor propagation.

    q: polynomial vector of length n; p: polynomial vector of length m;
    theta: optional series vector of length m (zero when omitted).
    """
    if len(q) != Y.n or len(p) != Y.m:
        raise ValueError("dimension mismatch in affine product")
    if theta is not None and len(theta) != Y.m:
        raise ValueError("shift vector length must match row count")
    field = Y.field
    qs = [LaurentSeries.from_poly(qi) for qi in q]
    out = []
    for i in range(Y.m):
        acc = LaurentSeries.from_poly(p[i])
        for j in range(Y.n):
            if not q[j].is_zero():
                acc = acc + Y.entry(i, j) * qs[j]
        if theta is not None:
            acc = acc + theta[i]
        out.append(acc)
    return tuple(out)
