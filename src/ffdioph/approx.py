"""Dirichlet systems and best-approximation errors.

Everything here minimizes degrees of rows of Y q + p + theta over integer
vectors q (polynomials) with p chosen optimally per row.  Two independent
routes are provided: a linear-algebra kernel path (the fractional digits of
Y q are F_q-linear in the coefficients of q) and a brute-force enumeration
used as an oracle.  They agree on every value the kernel does not censor;
where it censors, the enumeration's value is at most the kernel's.

The kernel path eliminates each constraint row once.  A depth scan finds
the deepest digit depth K at which some q != 0 with deg q_j <= D_j zeroes
digits -1..-K of every row of Y q + theta: one ``linalg.Echelon`` takes in
the rows of depth 1, 2, ..., stops at the first infeasible depth and keeps
its reduced rows of depth K, whose canonical solution is the witness.
The shifted system is the homogeneous one [Y | theta] with the last
unknown fixed at 1: theta is column n, of degree bound 0, whose entry is
the right-hand side at column ncols.  Constraint rows are slices of one
digit table that each call fills once (``_digit_table``, from
``LaurentSeries.digits``).  On GF(2) every window is packed once into an
int by ``linalg.pack_gf2``, the packer of ``linalg``'s int row format, and
each row is built as an int by one shift and mask per column, the form
``linalg.Echelon`` eliminates by XOR; other fields use element lists.
The scan's pivot rows go to the solvers as they are.  A shift's
homogeneous sibling, the same box of Y alone, shares its scan: the pivot
rows of [Y | theta] below column ncols, the right-hand side dropped, are the
reduced rows of Y's own system, so one elimination gives both sides' K,
each side stopping at its own first infeasible depth or its own cap and
keeping its own pivot rows, witness and decision.  One kernel decision
(``_kernel_best``) takes a list of boxes and [theta] or [theta, None],
theta a shift or None.  It reads a box's value off its scan
(``_decide_box``): -(K+1) below the precision cap (the witness is
multiplied out only to depth K+1); at the cap an exact -inf when the
witness leaves every row exactly zero, and otherwise a censored bound on
truncated inputs.  The standard objective is the one-box case, every
column bounded by D; the multiplicative one (m = 1) passes the shapes
(D_1..D_n) with sum D_j = T-1, whose decided boxes combine by the
enumeration's rule (``_BruteBest``), so it never enumerates.

One order basis serves every standard box at once (``order_basis_depths``):
it gives the scan's K for each degree bound D below its cap, from one pass
over the orders of [A | -I], where A holds Y's digits as polynomials in z,
read down to -L: L is minus the shallowest finite floor of Y and theta, or
on all-exact inputs the exact cap plus the largest D.  A shift carries one
row z^D Theta, reduced alongside the basis, for its least open D: when it
would pivot, D is decided and the row times z serves D + 1.  As that row
never reduces a basis row, one run serves several shifts, and the
homogeneous problem, each to its own L.  A residual is one int on GF(2),
reduced by XOR, and one digit list reduced by ``Fq.sub_scaled``
elsewhere, grown over a window of orders before all L digits.  Column
shifts r serve the multiplicative shapes (m = 1): shape (D_1..D_n) is the
box of D = max D_j with column j's unknowns shifted by r_j = D - D_j, so
one basis serves every shape of one r.
``exponents.profile`` reads every standard kernel profile, with the
homogeneous one beside a shifted one, and every m = 1 multiplicative one
off such bases, and keeps the kernel decision for capped horizons and one
check per profile; ``best_error`` decides a shifted profile's horizon and
its sibling's in one call.

``best_error``, ``best_error_mult`` and ``exponents.profile`` share one
input gate (``_shift_or_none``): it refuses T < 1, a theta of length other
than m and an unknown method, in that order, and reads a theta that is
None or exactly zero as None, the homogeneous problem.  Below it theta is
a shift or None: no route builds a zero shift column, and a shift has a
sibling.

The enumeration is one search (``_brute``) over one candidate enumerator
(``_iter_q``: deg q_j <= caps[j] and plus-product degree <= budget, each
coordinate drawn from ``poly.iter_polys``) for both objectives.  The
enumerator yields each q with the rows of Y q + theta, summed down its
recursion: each column product Y[:, j] * p is made once, and a candidate's
rows are its prefix's plus one column.  The standard objective takes caps
D, budget n*D and the row maximum times m; the multiplicative one takes
caps T-1, budget T-1 and the row sum.  It serves method="brute" and
m >= 2.  It judges each candidate by its own floor, so on truncated inputs
it may be lower where the kernel censors.  A candidate with a row of
floor > 0 has an unknown polynomial part and is skipped; a finite result is
then censored, and only when no candidate can be judged does it raise
PrecisionExhaustedError.
"""

from __future__ import annotations

from itertools import chain

from .errors import PrecisionExhaustedError
from .field import Fq
from .linalg import Echelon, nullspace, pack_gf2, solve_affine
from .matrix import SeriesMatrix, cut_matrix, cut_series, matvec_affine, prod_plus_deg
from .poly import NEG_INF, Poly, iter_polys
from .record import Record
from .series import DegValue, LaurentSeries, deg_max, deg_sum


class DirichletTarget(Record):
    """Exponent tuple (t_1..t_{m+n}) with balanced row/column halves."""

    m: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.m + self.n:
            raise ValueError("target length must be m + n")
        if any(v < 0 or not isinstance(v, int) for v in self.values):
            raise ValueError("target entries must be nonnegative integers")
        if sum(self.values[: self.m]) != sum(self.values[self.m :]):
            raise ValueError("row and column halves of the target must balance")

    @property
    def row_part(self) -> tuple[int, ...]:
        return self.values[: self.m]

    @property
    def col_part(self) -> tuple[int, ...]:
        return self.values[self.m :]


class Witness(Record):
    """An approximation pair (p, q) with q a nonzero polynomial vector."""

    p: tuple[Poly, ...]
    q: tuple[Poly, ...]

    def __post_init__(self):
        if all(qi.is_zero() for qi in self.q):
            raise ValueError("witness q vector must be nonzero")


class DirichletResult(Record):
    witness: Witness
    strict_also: bool
    error_degs: tuple[DegValue, ...]


class BestError(Record):
    """Minimized degree functional at one horizon, with its witness.  A
    ``best_error`` result for (Y, theta) with theta not exactly zero also
    holds ``homogeneous``, the result for (Y, None) at the same horizon,
    which it decides beside it; it is None otherwise."""

    B: DegValue
    witness: Witness
    method: str
    homogeneous: BestError | None = None

    @property
    def censored(self) -> bool:
        return self.B.censored


def _optimal_p(rows) -> tuple[list[Poly], list[LaurentSeries]]:
    """Per-row p that cancels the polynomial part; returns (p, residuals)."""
    ps, resid = [], []
    for r in rows:
        poly_part, frac = r.split_parts()
        ps.append(-poly_part)
        resid.append(frac)
    return ps, resid


def witness_error_degs(Y: SeriesMatrix, theta, w: Witness) -> tuple[DegValue, ...]:
    """Exact degrees of the rows of Y q + p + theta for a stored witness."""
    rows = matvec_affine(Y, w.q, w.p, theta)
    return tuple(r.deg() for r in rows)


# ---------------------------------------------------------------------------
# Dirichlet solver
# ---------------------------------------------------------------------------


def _digit_table(Y: SeriesMatrix, theta, bounds, depths) -> list[list[tuple]]:
    """The columns of row i of the system [Y | theta], each with its width.

    Column j holds Y_ij's digits at -1, -2, ..., -(depths[i] + bounds[j]),
    every digit the rows of depth 1..depths[i] read and none at depth 0, and
    has width bounds[j] + 1.  A shift adds column n: -theta_i's digits at
    -1..-depths[i], but none below theta_i's floor, a column of degree bound
    0 (width 1) whose one entry per row is the right-hand side; a row deeper
    than that floor has none.  Other fields store (digits, width).  GF(2),
    where -x = x, packs each window once into an int w (bit t = the digit at
    -(t+1)) and stores (w, mask, off): mask has the width's low bits set and
    off is the column's first unknown, so the shift lands at off = ncols.
    """
    F, gf2 = Y.field, Y.field.is_gf2()
    tab = []
    for i, (row, k) in enumerate(zip(Y.rows, depths)):
        cols = [(s.digits(-1, -(k + d)) if k else [], d + 1) for s, d in zip(row, bounds)]
        if theta is not None:
            th = theta[i].digits(-1, -min(k, -theta[i].floor))
            cols.append((th if gf2 else [F.neg(x) for x in th], 1))
        if gf2:
            packed, off = [], 0
            for w, width in cols:
                packed.append((pack_gf2(w), (1 << width) - 1, off))
                off += width
            cols = packed
        tab.append(cols)
    return tab


def _table_row(tab, i: int, c: int) -> list[int] | int:
    """Row (i, c) of _digit_table's system: digit -c of Y_i q (+ theta_i).

    The unknown s of q_j gets Y_ij's digit at -c-s, entry c-1+s of column
    j; the unknowns of q_0, q_1, ... follow one another, and a shift's
    right-hand side sits at column ncols.  On GF(2) the row is an int with
    that digit at bit off + s, built by one shift and mask per column.
    """
    cols = tab[i]
    if isinstance(cols[0][0], int):  # GF(2): packed windows
        r = 0
        for w, mask, off in cols:
            r |= (w >> c - 1 & mask) << off
        return r
    return [x for t, width in cols for x in t[c - 1 : c - 1 + width]]


def _constraints(Y: SeriesMatrix, bounds, depths):
    """Rows of the map q -> (digits -1..-depths[i] of Y_i q)."""
    tab = _digit_table(Y, None, bounds, depths)
    return [_table_row(tab, i, c) for i, k in enumerate(depths) for c in range(1, k + 1)]


def _vector_to_q(field: Fq, vec, bounds) -> list[Poly]:
    """q from its unknowns: coefficients 0..bounds[j] of each q_j in turn."""
    q, start = [], 0
    for d in bounds:
        q.append(Poly(field, vec[start : start + d + 1]))
        start += d + 1
    return q


def dirichlet_solve(Y: SeriesMatrix, t: DirichletTarget) -> DirichletResult:
    """Solve |Y_i q + p_i| < e^{-t_i} with deg q_j <= t_{m+j}.

    The q-bound allows equality, so unknowns outnumber equations and a
    nonzero kernel vector is guaranteed.  The result also says whether the
    strict system, deg q_j <= t_{m+j} - 1, whose pigeonhole count is square,
    has a nonzero solution; it is decided by one nullspace and no witness.
    The error-side inequality is strict in both.
    """
    if t.m != Y.m or t.n != Y.n:
        raise ValueError("target dimensions do not match the matrix")
    bounds = list(t.col_part)
    got = _solve_witness(Y, None, bounds, _constraints(Y, bounds, t.row_part), None)
    if got is None:  # cannot happen: unknowns always exceed equations
        raise AssertionError("relaxed Dirichlet system had empty kernel")
    w, resid = got
    degs = tuple(r.deg() for r in resid)
    for i, d in enumerate(degs):
        if d.value >= -t.row_part[i]:
            if d.censored:
                raise PrecisionExhaustedError("error bound undecidable at this floor")
            raise AssertionError(f"row {i} misses its error bound")
    for j, qj in enumerate(w.q):
        if qj.deg != NEG_INF and qj.deg > bounds[j]:
            raise AssertionError(f"coordinate {j} exceeds its size bound")
    strict = [b - 1 for b in bounds]
    ncols = sum(d + 1 for d in strict)
    strict_also = bool(nullspace(Y.field, _constraints(Y, strict, t.row_part), ncols))
    return DirichletResult(w, strict_also, degs)


# ---------------------------------------------------------------------------
# Best approximation error, kernel path
# ---------------------------------------------------------------------------


def _search_caps(Y: SeriesMatrix, theta, bounds):
    """(cap, exact) where cap is the deepest searchable digit depth when
    deg q_j <= bounds[j].

    With any truncated entry, cap is the deepest depth whose constraints are
    decidable and exact=False.  With all-exact entries, cap is one past the
    depth any nonzero residual could survive, and exact=True: feasibility at
    cap certifies an exact hit.
    """
    caps, stored_lo = [], []
    for i, row in enumerate(Y.rows):
        shift = [(theta[i], 0)] if theta is not None else []
        for s, dj in [*zip(row, bounds), *shift]:  # theta_i: a bound-0 column
            if s.floor != NEG_INF:
                caps.append(-s.floor - dj)
            elif not s.is_exact_zero():
                stored_lo.append(s.top - len(s.coeffs) + 1)
    if caps:
        return max(0, min(caps)), False
    lo = min(stored_lo) if stored_lo else 0
    return max(1, -lo + 1), True


def _deepest_feasible_depth(Y: SeriesMatrix, theta, bounds, caps):
    """[(K, rows)] per cap of caps.  For caps[0]: the largest K <= caps[0]
    at which some q != 0 with deg q_j <= bounds[j] zeroes digits -1..-K of
    every row of Y q + theta, and the ``Echelon`` pivot rows of the
    constraints of depth 1..K.  For a second cap, given with theta not None:
    the same for the homogeneous sibling Y q.

    Feasibility only shrinks as depth grows, so one elimination takes in the
    m rows of depth c = 1, 2, ... and each side stops at its first
    infeasible depth or at its cap; the pivots copied before each depth are
    the rows of depth K there.  The sibling shares the elimination of
    [A | b], b being theta's column: the pivot rows below column ncols, b
    dropped, are the reduced form of A whatever b is, so it is feasible
    while fewer than ncols pivots lie below ncols.  theta's column is read
    only to theta's floor, which a larger sibling cap may pass; theta's own
    cap never does.
    """
    ncols = sum(d + 1 for d in bounds)
    ech = Echelon(Y.field, ncols)
    pivots, low = ech.pivots, (1 << ncols) - 1

    def rows(snapshot, side):
        if side == 0:
            return list(snapshot.values())
        return [r & low if ech.gf2 else r[:ncols] for col, r in snapshot.items() if col < ncols]

    tab = _digit_table(Y, theta, bounds, [max(caps)] * Y.m)
    found, before = [None] * len(caps), {}
    for c in range(max(caps) + 1):
        if c:
            before = pivots.copy()
            for i in range(Y.m):
                ech.insert(_table_row(tab, i, c))
        for side, cap in enumerate(caps):
            if found[side] is not None:
                continue
            if not (ech.has_nonzero_solution() if side == 0 else len(pivots) - (ncols in pivots) < ncols):
                found[side] = (c - 1, rows(before, side))
            elif c == cap:
                found[side] = (c, rows(pivots, side))
        if None not in found:
            break
    return found


def _solve_witness(Y: SeriesMatrix, theta, bounds, rows, depth):
    """(witness, residual rows) for the canonical q != 0 that rows admit,
    with its optimal p, or None.

    rows go to the solvers as ``_table_row`` builds them, a shift's
    right-hand side at column ncols.  A reduced form is unique, so the
    scan's pivot rows of depth K give the q of all K*m constraint rows.
    With a depth, each residual row of Y q + p + theta is computed only down
    to exponent -depth: Y and theta are cut there by ``cut_matrix`` and
    ``cut_series`` first, so the product reads no deeper digit (None: the
    inputs' floors).  p reads only exponents >= 0 and is the same either
    way.  The caller must know Y and theta that deep.
    """
    ncols = sum(d + 1 for d in bounds)
    if theta is None:
        basis = nullspace(Y.field, rows, ncols)
        vec = basis[0] if basis else None
    else:
        vec, basis = solve_affine(Y.field, rows, [0] * len(rows), ncols)
        if vec is not None and not any(vec):
            vec = basis[0] if basis else None  # q = 0 is not allowed
    if vec is None:
        return None
    q = _vector_to_q(Y.field, vec, bounds)
    if depth is not None:
        Y = cut_matrix(Y, q, -depth)
        if theta is not None:
            theta = [cut_series(th, -depth) for th in theta]
    ps, resid = _optimal_p(matvec_affine(Y, q, [Poly.zero(Y.field)] * Y.m, theta))
    return Witness(tuple(ps), tuple(q)), resid


def _decide_box(
    Y: SeriesMatrix, theta, bounds, cap: int, exact_inputs: bool, K: int, rows
) -> tuple[DegValue, Witness]:
    """(B, witness) of the least row maximum of Y q + p + theta over the box
    deg q_j <= bounds[j], from its _search_caps and _deepest_feasible_depth.

    Below the cap B is -(K+1), which the witness attains; it is multiplied
    out only to depth K+1, which every input is known to.  At the cap an
    exactly-zero residual gives an exact -inf, since nothing lies below it;
    otherwise truncated inputs give the censored bound min(witness degree,
    -(K+1)), as a q whose digits vanish to the cap may hide a lower value.
    """
    got = _solve_witness(Y, theta, bounds, rows, K + 1 if K < cap else None)
    if got is None:
        raise AssertionError(f"depth {K} passed the scan but has no solution")
    w, resid = got
    obj = deg_max(r.deg() for r in resid)
    if K < cap:
        if obj.value != -K - 1 or obj.censored:
            raise AssertionError("kernel witness does not attain its depth")
        return obj, w
    if all(r.is_exact_zero() for r in resid):
        return DegValue(NEG_INF, False), w
    if exact_inputs:
        raise AssertionError("exact-depth solution left a nonzero residual")
    return DegValue.censored_at(min(obj.value, -K - 1)), w


def _kernel_best(Y: SeriesMatrix, thetas, boxes) -> list[tuple[DegValue, Witness]]:
    """(B, witness) per right-hand side of thetas, [theta] (a shift or None)
    or [theta, None] (a shift and its homogeneous sibling), as the input
    gate leaves theta: the least row maximum of Y q + p + theta over a union
    of boxes, each a bounds list, one depth scan per box serving both sides.
    Boxes below their cap are exact, so of them only the first deepest is
    decided; every box at its cap is decided too, and the decided boxes
    combine by _BruteBest's rule.  Each side has its own caps, witnesses and
    decisions.
    """
    kept, deepest = [[] for _ in thetas], [None] * len(thetas)
    for bounds in boxes:
        caps = [_search_caps(Y, theta, bounds) for theta in thetas]
        scans = _deepest_feasible_depth(Y, thetas[0], bounds, [cap for cap, _ in caps])
        for side, ((cap, exact_inputs), (K, rows)) in enumerate(zip(caps, scans)):
            scan = (bounds, cap, exact_inputs, K, rows)
            if K == cap:
                kept[side].append(scan)
            elif deepest[side] is None or K > deepest[side][3]:
                deepest[side] = scan
    results = []
    for theta, decided, first in zip(thetas, kept, deepest):
        if first is not None:
            decided.append(first)
        best = _BruteBest(max(max(scan[0]) for scan in decided))
        for scan in decided:
            B, w = _decide_box(Y, theta, *scan)
            best.offer(B, w.q, w.p)
        results.append(best.result())
    return results


# ---------------------------------------------------------------------------
# Boxes and multiplicative shapes, order basis
#
# Put A_ij(z) = sum_k a_ijk z^(k-1), a_ijk being Y_ij's digit at -k, and
# Q*_j(z) = z^D q_j(1/z).  Digits -1..-K of every row of Y q vanish exactly
# when sum_j A_ij Q*_j = P_i + O(z^(D+K)) with deg P_i < D, a simultaneous
# Hermite-Pade problem, and one order basis of [A | -I] answers it for every
# D at once (Beckermann-Labahn 1994).  A shift adds Theta_i(z), theta_i's
# digits -1, -2, ... at z^0, z^1, ..., as one carried row z^D Theta, D its
# least open degree bound.  A box deg q_j <= D - r_j is Q*_j = z^r_j R_j
# with deg R_j + r_j <= D: column j of A times z^r_j, and R_j's unit row
# starting at shifted degree r_j.
# ---------------------------------------------------------------------------


def order_basis_depths(
    Y: SeriesMatrix, thetas, D_max: int, col_shifts=None
) -> list[list[int | None]]:
    """[K(0), K(1), ...] for each right-hand side theta of thetas (None:
    homogeneous): the depth scan's K for the box deg q_j <= D - r_j of
    Y q + theta, for every D <= D_max below the cap L - D, L being that
    theta's.  Every D >= len(its list) is at that cap.  The column shifts
    r = col_shifts (min r = 0; None, all zeros, is the standard box D) serve
    the multiplicative shapes: shape (D_1..D_n) is the box of D = max D_j
    and r_j = D - D_j, so one basis serves every shape of one r.  No shape
    of r has D < max r, so the basis decides no such D: its entry is None.
    ``exponents.profile`` passes a shift with None beside it for a standard
    profile and its homogeneous sibling, and its own theta alone per r.

    A right-hand side reads digits -1..-L.  L is minus the shallowest finite
    floor of Y and theta (``_search_caps`` at D = 0): L - D is at most the
    scan's cap, since r_j >= 0, so a K below it is the scan's.  On all-exact
    inputs L is the exact cap plus D_max: a q feasible at that cap is an
    exact hit, feasible at every depth, so the basis caps its D as the scan
    does.  The basis runs to the largest L, and each right-hand side stops
    after order L - 1 of its own, so none reads a digit of its theta below
    its floor.

    The basis has n + m rows (Q*, P) of shifted degree max_j(deg Q*_j + r_j,
    deg P + 1), unit rows to start with: Q* = e_j of degree r_j and P = -e_i
    of degree 1.  A row is kept as its residual Q* A_r - P alone, A_r being
    A with column j times z^r_j, and its degree: the basis reads nothing
    else of it.  A residual is one sequence whose entry s*m + i is the
    coefficient of z^s in column i: an int on GF(2), where a row operation
    is XOR and z is << m, and a digit list reduced by ``Fq.sub_scaled``
    elsewhere.  For order s and column i, the rows with a nonzero
    coefficient of z^s there are cleared by the one of least (degree,
    index), and that pivot is multiplied by z.  Every step finds a pivot, so
    the degrees sum to sum(r) + m(s+1) after s orders: Minkowski's second
    theorem with equality (Mahler 1941), checked after every order.

    Let δ(s) be the least degree after s orders.  The basis is reduced, so
    some q != 0 of deg q_j <= D - r_j clears digits -1..-(s-D) of Y q
    exactly when δ(s) <= D (for s >= D, where a row with Q* = 0, some z^s P,
    has degree > s).  So K(D) = max{s - D : δ(s) <= D, s <= L}, and the box
    is at its cap exactly when δ(L) <= D or D >= L.

    A shift adds a row (0, z^D, 0) of degree D whose residual is z^D Theta:
    the order basis of [A; z^D Theta; -I].  A row of degree <= D holds the
    shift as c z^D, and the shift row is the only one with c != 0 there
    until it pivots, which it does only over rows of larger degree.  So
    depth k = s - D + 1 is feasible exactly when the shift row has not
    pivoted by order s (q != 0, as theta does not clear the k digits),
    unless theta itself clears them (k <= zθ, digits -1..-zθ being zero in
    every theta_i): then q must be a nonzero homogeneous solution, so
    δ(s+1) <= D; theta None or zero to -L is zθ = L.  K(D) is the last
    feasible depth; a D feasible at depth L - D is at its cap, and so is
    every larger D.  The shift row reduces no other row, so one basis of
    [A | -I] serves every D of every right-hand side.

    Each side carries one shift row, for its least open D (the length of
    its list so far): z^D Theta plus basis rows of degree <= D, starting as
    z^first Theta.  Which one does not change the pivot test: two differ by
    basis rows of degree <= D (predictable degree, Beckermann-Labahn 1994),
    nonzero at the tested column only if the pivot has degree <= D.  When
    the row would pivot at order s, K(D) = s - D, and z times the row as it
    stood serves D + 1 (Q* degree <= D + 1, residual zero through order s;
    K(D+1) >= K(D), so D + 1 cannot fail at order s).  The zθ rule moves
    the row on by z likewise, and decides only a prefix of a side's open D,
    as δ rises by at most 1 per order.  A side stops once it has decided
    every D <= D_max or read its L digits, and the basis once all have.

    Residuals are grown on a window of W = (D_max+4)(n+m)/m orders, three
    degree bounds past the (D_max+1)(n+m)/m that the basis takes in
    general, as a run stops only when its last side does; and on all L only
    when it has not stopped inside the window: orders below W read only
    coefficients below W, so both give the same depths.
    """
    F, m, n = Y.field, Y.m, Y.n
    gf2 = F.is_gf2()
    rs = col_shifts or [0] * n
    first = max(rs)  # the least D a shape of r reads
    sides = []  # per side (L, top, zθ, theta's digits)
    for theta in thetas:
        L, exact = _search_caps(Y, theta, [0] * n)
        L += D_max if exact else 0  # L - D reaches the exact cap for every D
        top = min(D_max, L - 1)  # every larger D is at its cap
        th = [t.digits(-1, -L) for t in theta or ()]
        zth = min((next((k for k, x in enumerate(t) if x), L) for t in th), default=L)
        sides.append((L, top, zth, th if zth < L else None))  # None: no shift row
    L_max = max(L for L, _, _, _ in sides)

    def run(W):
        """The depths from residuals of W orders, or None when the basis
        has not stopped by order W - 1 and W < L_max."""

        def row(cols, D=0):
            # entry s*m + i is the coefficient of z^s in column i, s < W;
            # cols hold the coefficients of z^D, z^(D+1), ...
            flat = [0] * (W * m)
            for i, col in enumerate(cols):
                col = col[: max(0, W - D)]
                flat[D * m + i : (D + len(col)) * m : m] = col
            return pack_gf2(flat) if gf2 else flat

        def up(v):  # z times a residual; a list keeps its W orders
            if gf2:
                return v << m
            v[:0] = [0] * m
            del v[-m:]
            return v

        res = [row([e.digits(-1, -W) for e in col], rj) for col, rj in zip(zip(*Y.rows), rs)]
        res += [row([[int(k == i)] + [0] * (W - 1) for k in range(m)]) for i in range(m)]
        deg = list(rs) + [1] * m
        # per side [L, top, zθ, ks, row]: ks[D] = K(D), None below first, and
        # row, None without a shift, is the carried row of D = len(ks)
        state = [
            [L, top, zth, [None] * min(first, top + 1), row(th, first) if th else None]
            for L, top, zth, th in sides
        ]
        still = [side for side in state if len(side[3]) <= side[1]]  # the sides not stopped
        carried = [side for side in still if side[4] is not None]
        for s in range(W):
            for at in range(s * m, s * m + m):
                if gf2:
                    live = [r for r, x in enumerate(res) if x >> at & 1]
                else:
                    live = [r for r, x in enumerate(res) if x[at]]
                if not live:
                    continue  # a lost pivot: the degree sum reports it
                piv = min(live, key=deg.__getitem__)  # ties: the least index
                prow = res[piv]
                inv = None if gf2 else F.inv(prow[at])
                for side in carried:
                    v, ks = side[4], side[3]
                    if not (v >> at & 1 if gf2 else v[at]):
                        continue
                    if deg[piv] > len(ks):  # it pivots itself: depth s - D + 1 fails
                        ks.append(s - len(ks))
                        side[4] = up(v)  # zero at order s, so not tested again there
                    elif gf2:
                        side[4] = v ^ prow
                    else:
                        F.sub_scaled(v, F.mul(v[at], inv), prow, at)
                if gf2:
                    for r in live:
                        if r != piv:
                            res[r] ^= prow
                else:
                    for r in live:
                        if r != piv:
                            F.sub_scaled(res[r], F.mul(res[r][at], inv), prow, at)
                res[piv] = prow << m if gf2 else up(prow)  # z times the pivot
                deg[piv] += 1
            if sum(deg) != sum(rs) + m * (s + 2):
                raise AssertionError(f"order basis found no pivot at order {s}")
            least, stop = min(deg), False
            for side in still:
                L, top, zth, ks, v = side
                while len(ks) < least and len(ks) <= min(top, s) and s - len(ks) < zth:
                    ks.append(s - len(ks))  # theta clears depth s - D + 1: δ(s+1) > D
                    if v is not None:
                        side[4] = v = up(v)
                stop = stop or len(ks) > top or s == L - 1
            if stop:  # a side that has read its L digits leaves its open D at their caps
                still = [side for side in still if len(side[3]) <= side[1] and s < side[0] - 1]
                carried = [side for side in still if side[4] is not None]
                if not still:
                    break
        else:
            if W < L_max:
                return None
        return [side[3] for side in state]

    depths = run(min((D_max + 4) * (n + m) // m, L_max))
    return depths if depths is not None else run(L_max)


# ---------------------------------------------------------------------------
# Best approximation error, brute-force oracle
# ---------------------------------------------------------------------------


def _poly_tiebreak_key(q: list[Poly], max_deg: int) -> tuple[int, ...]:
    # coefficients ordered by degree then coordinate index
    cols = [qj.coeffs + (0,) * (max_deg + 1 - len(qj.coeffs)) for qj in q]
    return tuple(chain.from_iterable(zip(*cols)))


def _iter_q(Y: SeriesMatrix, theta, caps, budget: int):
    """(q, rows) for every q != 0 with deg q_j <= caps[j] and plus-product
    degree <= budget, coordinate 0 outermost; rows are those of Y q + theta.

    Each coordinate runs through a prefix of one low-degree-first list: its
    first q**(r+1) entries are the polynomials of degree <= r.  The products
    Y[:, j] * p are made once per coordinate j and polynomial p, and a
    candidate's rows are its prefix's rows plus one column product, so row i
    is summed as theta_i + col_0 + col_1 + ...
    """
    F = Y.field
    polys = list(iter_polys(F, max(caps)))
    cols = [
        [
            [Y.entry(i, j) * LaurentSeries.from_poly(p) for i in range(Y.m)]
            for p in polys[: F.q ** (min(c, budget) + 1)]
        ]
        for j, c in enumerate(caps)
    ]

    def extend(prefix: list[Poly], rows, j: int, remaining: int):
        if j == len(caps):
            if not all(p.is_zero() for p in prefix):
                yield prefix, rows
            return
        for poly, col in zip(polys[: F.q ** (min(caps[j], remaining) + 1)], cols[j]):
            here = rows if poly.is_zero() else [a + b for a, b in zip(rows, col)]
            yield from extend(prefix + [poly], here, j + 1, remaining - max(0, poly.deg))

    base = list(theta) if theta is not None else [LaurentSeries.zero(F)] * Y.m
    yield from extend([], base, 0, budget)


class _BruteBest:
    """Tracks the least exact and the least censored objective.  Ties go to
    the least lexicographic key, so the witness depends on the candidate set
    alone, not on the order in which they are offered.  An exact -inf wins
    outright, since nothing lies below it; otherwise any censored candidate
    censors the result.  Keys are made only on ties, and the incumbent's is
    kept, so an improvement costs no key and the one Witness is made by
    result()."""

    def __init__(self, max_deg: int):
        self.max_deg = max_deg
        self.best = {False: None, True: None}  # censored? -> [value, q, ps, key]

    def offer(self, obj: DegValue, q: list[Poly], ps: list[Poly]):
        cur = self.best[obj.censored]
        key = None
        if cur is not None:
            if obj.value > cur[0]:
                return  # the key only breaks ties, so this candidate cannot win
            if obj.value == cur[0]:
                if cur[3] is None:
                    cur[3] = _poly_tiebreak_key(cur[1], self.max_deg)
                key = _poly_tiebreak_key(q, self.max_deg)
                if key >= cur[3]:
                    return
        self.best[obj.censored] = [obj.value, q, ps, key]

    def result(self) -> tuple[DegValue, Witness]:
        exact, cens = self.best[False], self.best[True]
        if exact is not None and exact[0] == NEG_INF:
            B, win = DegValue(NEG_INF, False), exact
        elif cens is not None:
            # any censored candidate may hide a lower true value, so the
            # minimum itself is only known as an upper bound
            win = cens if exact is None or cens[0] <= exact[0] else exact
            B = DegValue.censored_at(win[0])
        elif exact is None:
            raise AssertionError("no candidates offered")
        else:
            B, win = DegValue(exact[0], False), exact
        return B, Witness(tuple(win[2]), tuple(win[1]))


def _brute(Y: SeriesMatrix, theta, caps, budget: int, objective):
    """Least objective of the residual row degrees over _iter_q(caps, budget),
    with the witness tie-break of _BruteBest.

    A candidate with a row of floor > 0 is skipped: no p can cancel a
    polynomial part that is not known.  Its value is <= -m like every
    judged one's, so it may lie below the least judged value, and a finite
    result is then censored there.  With no candidate judged it raises
    PrecisionExhaustedError.
    """
    best, skipped = _BruteBest(max(caps)), False
    for q, rows in _iter_q(Y, theta, caps, budget):
        if prod_plus_deg(q) > budget or any(qj.deg > c for qj, c in zip(q, caps)):
            raise AssertionError("enumerator produced an inadmissible vector")
        if any(r.floor > 0 for r in rows):
            skipped = True
            continue
        ps, resid = _optimal_p(rows)
        best.offer(objective(r.deg() for r in resid), q, ps)
    if not any(best.best.values()):
        raise PrecisionExhaustedError("no candidate's polynomial part is known above the floor")
    B, w = best.result()
    if skipped and B.value != NEG_INF:
        B = DegValue.censored_at(B.value)
    return BestError(B, w, "brute")


def _shift_or_none(Y: SeriesMatrix, theta, T: int, method: str):
    """The one input gate of ``best_error``, ``best_error_mult`` and
    ``exponents.profile``: theta, or None when theta is None or exactly zero,
    the homogeneous problem, once T >= 1, theta's length and method pass."""
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    if theta is not None and len(theta) != Y.m:
        raise ValueError("shift vector length must match row count")
    if method not in ("kernel", "brute"):
        raise ValueError(f"unknown method {method!r}")
    return None if theta is None or all(th.is_exact_zero() for th in theta) else theta


def best_error(
    Y: SeriesMatrix, theta, T: int, method: str = "kernel"
) -> BestError:
    """Minimum of max-row degree over q != 0 with n*deg(q) <= T-1, times m.

    theta=None, or a theta exactly zero, which the input gate
    (``_shift_or_none``) reads as None, means the homogeneous problem.
    Censored results signal that the true value sits below what the
    precision floor can certify.  With any other theta the result also
    holds ``homogeneous``, exactly what best_error(Y, None, T, method)
    returns: the kernel decides both from one depth scan of the box
    (``_deepest_feasible_depth``), each side to its own cap with its own
    witness, and brute enumerates for each.
    """
    theta = _shift_or_none(Y, theta, T, method)
    D = (T - 1) // Y.n
    sides = [theta] if theta is None else [theta, None]  # None: the homogeneous sibling
    if method == "kernel":
        got = [BestError(B.scale(Y.m), w, "kernel") for B, w in _kernel_best(Y, sides, [[D] * Y.n])]
    else:
        # scaling by m >= 1 keeps the order, so it may precede the comparison
        got = [_brute(Y, th, [D] * Y.n, Y.n * D, lambda degs: deg_max(degs).scale(Y.m)) for th in sides]
    return got[0].replace(homogeneous=got[1]) if len(got) > 1 else got[0]


# ---------------------------------------------------------------------------
# Multiplicative variant
#
# The admissible set {q != 0 : sum_j max(0, deg q_j) <= T-1} is the union of
# the boxes deg q_j <= D_j over the shapes D_j >= 0, sum_j D_j = T-1.  For
# m = 1 the objective is the degree of the one row, so B_mult(T) is the
# least box value, which _kernel_best decides over the list of shapes as
# best_error's one box.  For m >= 2 the objective is a sum of row degrees,
# and _brute enumerates.
# ---------------------------------------------------------------------------


def compositions(total: int, parts: int):
    """Every tuple of parts integers >= 0 summing to total, in lexicographic
    order (reports that list them follow it)."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def best_error_mult(
    Y: SeriesMatrix, theta, T: int, method: str = "kernel"
) -> BestError:
    """Multiplicative analogue: minimize the product degree of the rows over
    q != 0 with plus-product degree <= T-1.

    method="kernel" decides the degree shapes' boxes by best_error's kernel
    decision when m = 1 and never enumerates.  For m >= 2 both methods
    enumerate.
    method="brute" always enumerates; it is the oracle for the kernel route,
    and its value is at most the kernel's.  theta passes best_error's input
    gate, so an exactly zero theta is None; no sibling is carried.
    """
    theta = _shift_or_none(Y, theta, T, method)
    if method == "kernel" and Y.m == 1:
        ((B, w),) = _kernel_best(Y, [theta], compositions(T - 1, Y.n))
        return BestError(B, w, "kernel")
    return _brute(Y, theta, [T - 1] * Y.n, T - 1, deg_sum)
