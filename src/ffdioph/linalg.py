"""Gaussian elimination over F_q, one row at a time.

``Echelon`` is the one elimination core: the reduced row echelon form of
the rows inserted so far, one fully reduced row per pivot column, kept as a
bit-packed int on GF(2) (bit j = column j) and as an element list on every
other field, updated by one ``Fq`` row operation per pivot (``sub_scaled``,
``scaled``), which hides whether the field uses tables or digit loops.
Column ``ncols`` carries an optional right-hand side b of A x = b; it
becomes a pivot exactly when the rows so far are inconsistent.  A row may
carry b itself at column ``ncols``: a list of ncols + 1 elements, or on
GF(2) an int with bit j = column j.  ``pack_gf2`` is the one packer into
that int: ``insert`` packs a list row with it, and ``approx`` its digit
windows, handing over int rows.  The reduced form of a row space is
unique, so results do not depend on row order or on how rows are given,
and a caller can test feasibility after each batch of rows without
starting over.  Pivot rows are never
changed in place: a GF(2) row is an int, and ``insert`` replaces a list row
it reduces by a reduced copy (copy-on-write).  So ``pivots.copy()`` is a
snapshot of the form that later inserts leave intact, on every field.
On GF(2) a new pivot row is swept out of the other pivot rows only if some
row added before held its pivot bit, so inserting rows that are already
reduced, as the solvers do with a scan's pivot rows, costs no sweep.
``nullspace`` and ``solve_affine`` wrap one ``Echelon`` each and pass
ncols-wide rows and b; basis vectors come out in a canonical order (free
columns ascending, unit entry at the free column).
"""

from __future__ import annotations

from .field import Fq

# GF(2) element -> ASCII bit, so that a list packs into an int at C speed
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def pack_gf2(digits) -> int:
    """GF(2) elements as one int, bit t = digits[t]: the package's one
    packer into the int row format.

    Base 2 is exempt from the int/str digit limit, so any length packs.
    """
    return int(bytes(digits[::-1]).translate(_ASCII_BITS) or b"0", 2)


class Echelon:
    """Reduced row echelon form of [A | b], grown by ``insert``."""

    def __init__(self, field: Fq, ncols: int):
        self.field = field
        self.ncols = ncols
        self.gf2 = field.is_gf2()
        self.pivots: dict[int, object] = {}  # pivot column -> reduced row
        self._mask = 0  # GF(2): bit set of the pivot columns
        self._seen = 0  # GF(2): OR of the pivot rows ever added

    def insert(self, row: list[int] | int, b: int = 0) -> None:
        """Add the equation row . x = b.

        row is a list of ncols elements, or of ncols + 1 whose last is a
        right-hand side it carries; on GF(2) it may instead be an int with
        bit j = column j, a carried right-hand side at bit ncols and no bit
        above it.  b is added to the carried right-hand side (0 if none).
        """
        if self.gf2:
            self._insert_gf2(row, b)
        else:
            r = list(row)
            if len(r) == self.ncols:
                r.append(b)
            elif b:
                r[-1] = self.field.add(r[-1], b)
            self._insert_generic(r)

    def _insert_gf2(self, row: list[int] | int, b: int) -> None:
        v = row if isinstance(row, int) else pack_gf2(row)
        if b:
            v ^= 1 << self.ncols
        # pivot rows are zero on each other's pivot columns, so clearing the
        # pivot bits v starts with clears all of them
        hits = v & self._mask
        while hits:
            low = hits & -hits
            v ^= self.pivots[low.bit_length() - 1]
            hits ^= low
        if not v:
            return
        low = v & -v
        col = low.bit_length() - 1
        # every pivot row is a sum of rows added before, so only a bit one
        # of those held can need clearing: a reduced row skips the sweep
        if self._seen & low:
            for pc, r in self.pivots.items():
                if r & low:
                    self.pivots[pc] = r ^ v
        self.pivots[col] = v
        self._mask |= low
        self._seen |= v

    def _insert_generic(self, r: list[int]) -> None:
        F = self.field
        for pc, p in self.pivots.items():
            f = r[pc]
            if f:
                F.sub_scaled(r, f, p, pc)
        col = next((j for j, c in enumerate(r) if c), None)
        if col is None:
            return
        inv = F.inv(r[col])
        if inv != 1:
            r = F.scaled(inv, r)
        for pc, p in self.pivots.items():
            f = p[col]
            if f:
                p = p.copy()  # copy-on-write: a snapshot may still hold p
                F.sub_scaled(p, f, r, col)
                self.pivots[pc] = p
        self.pivots[col] = r

    def _entry(self, row, j: int) -> int:
        return row >> j & 1 if self.gf2 else row[j]

    def has_nonzero_solution(self) -> bool:
        """Is there x != 0 with A x = b for the rows so far?"""
        if self.ncols in self.pivots:
            return False  # inconsistent
        if len(self.pivots) < self.ncols:
            return True  # a free column exists
        return any(self._entry(r, self.ncols) for r in self.pivots.values())

    def solution(self) -> list[int] | None:
        """The particular solution (zero at every free column), or None."""
        if self.ncols in self.pivots:
            return None
        x = [0] * self.ncols
        for pc, r in self.pivots.items():
            x[pc] = self._entry(r, self.ncols)
        return x

    def basis(self) -> list[list[int]]:
        """Canonical basis of {x : A x = 0}."""
        rows = [(pc, r) for pc, r in self.pivots.items() if pc < self.ncols]
        basis = []
        for free in range(self.ncols):
            if free in self.pivots:
                continue
            vec = [0] * self.ncols
            vec[free] = 1
            for pc, r in rows:
                c = self._entry(r, free)
                if c:
                    vec[pc] = self.field.neg(c)
            basis.append(vec)
        return basis


def nullspace(field: Fq, rows: list, ncols: int) -> list[list[int]]:
    """Canonical basis of {x : A x = 0}; rows as ``Echelon.insert`` takes them."""
    ech = Echelon(field, ncols)
    for row in rows:
        ech.insert(row)
    return ech.basis()


def solve_affine(field: Fq, rows: list, rhs: list[int], ncols: int):
    """Solve A x = b; returns (particular solution or None, nullspace basis).

    rows as ``Echelon.insert`` takes them; rhs holds one element per row.

    The nullspace basis of A is returned even when the system is
    inconsistent, since callers often need it anyway.
    """
    ech = Echelon(field, ncols)
    for row, b in zip(rows, rhs):
        ech.insert(row, b)
    return ech.solution(), ech.basis()
