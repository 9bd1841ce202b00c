"""Dense Gaussian elimination over F_q.

One reduction per row representation -- bit-packed Python ints for GF(2)
(bit j = column j) and element lists driven by an ``Fq`` context for every
other field -- both behind ``_rref``, whose pivot rows feed one basis
extraction, ``_basis``.  ``solve_affine`` reduces the augmented system
[A | b] with the same core.  Basis vectors come out in a canonical order
(free columns ascending, unit entry at the free column), so results are
deterministic.
"""

from __future__ import annotations

from .field import Fq


def _rref_generic(field: Fq, rows: list[list[int]], ncols: int):
    R = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(R)):
            if R[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        R[rank], R[sel] = R[sel], R[rank]
        inv = field.inv(R[rank][col])
        if inv != 1:
            R[rank] = [field.mul(inv, c) for c in R[rank]]
        for r in range(len(R)):
            if r != rank and R[r][col] != 0:
                f = R[r][col]
                row_r, row_p = R[r], R[rank]
                for j in range(col, len(row_r)):
                    if row_p[j]:
                        row_r[j] = field.sub(row_r[j], field.mul(f, row_p[j]))
        pivots.append(col)
        rank += 1
        if rank == len(R):
            break
    return R, pivots


def _rref_gf2(rows: list[int], ncols: int):
    R = list(rows)
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        bit = 1 << col
        sel = None
        for r in range(rank, len(R)):
            if R[r] & bit:
                sel = r
                break
        if sel is None:
            continue
        R[rank], R[sel] = R[sel], R[rank]
        piv = R[rank]
        for r in range(len(R)):
            if r != rank and R[r] & bit:
                R[r] ^= piv
        pivots.append(col)
        rank += 1
        if rank == len(R):
            break
    return R, pivots


def _rref(field: Fq, rows: list[list[int]], ncols: int, rhs=None):
    """Reduce A, or [A | b] when rhs is given; return (pivot rows, pivot columns).

    GF(2) rows come back packed into ints (bit j = column j), all others as
    element lists.  The b column sits at index ncols and becomes a pivot
    exactly when A x = b is inconsistent.
    """
    width = ncols if rhs is None else ncols + 1
    if field.is_gf2():
        packed = []
        for i, row in enumerate(rows):
            v = 0
            for j, c in enumerate(row):
                if c:
                    v |= 1 << j
            if rhs is not None and rhs[i]:
                v |= 1 << ncols
            packed.append(v)
        R, pivots = _rref_gf2(packed, width)
    else:
        if rhs is not None:
            rows = [list(r) + [b] for r, b in zip(rows, rhs)]
        R, pivots = _rref_generic(field, rows, width)
    return R[: len(pivots)], pivots


def _basis(field: Fq, R, pivots: list[int], ncols: int) -> list[list[int]]:
    """Canonical basis of {x : A x = 0} from the reduced rows of A."""
    pivset = set(pivots)
    gf2 = field.is_gf2()
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [0] * ncols
        vec[free] = 1
        if gf2:
            bit = 1 << free
            for row, pc in zip(R, pivots):
                if row & bit:
                    vec[pc] = 1
        else:
            for row, pc in zip(R, pivots):
                if row[free]:
                    vec[pc] = field.neg(row[free])
        basis.append(vec)
    return basis


def nullspace(field: Fq, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Canonical basis of {x : A x = 0}."""
    R, pivots = _rref(field, rows, ncols)
    return _basis(field, R, pivots, ncols)


def solve_affine(
    field: Fq, rows: list[list[int]], rhs: list[int], ncols: int
):
    """Solve A x = b; returns (particular solution or None, nullspace basis).

    The nullspace basis of A is returned even when the system is
    inconsistent, since callers often need it anyway.
    """
    R, pivots = _rref(field, rows, ncols, rhs)
    if pivots and pivots[-1] == ncols:
        return None, _basis(field, R, pivots[:-1], ncols)
    gf2 = field.is_gf2()
    x = [0] * ncols
    for row, pc in zip(R, pivots):
        x[pc] = row >> ncols & 1 if gf2 else row[ncols]
    return x, _basis(field, R, pivots, ncols)

