"""Finite-horizon profiles of best-approximation degrees and the rational
proxies they induce for the growth exponents.

A profile records (T, B(T)) for T = 1..T_max.  The estimate takes the tail
window [ceil(T_max/2), T_max] and reports max and min of -B(T)/T as exact
fractions; the max plays the role of the limsup exponent, the min of the
liminf one.  Censored entries never contribute to either proxy.
"""

from __future__ import annotations

from fractions import Fraction

from .approx import BestError, _shift_or_none, best_error, best_error_mult, compositions, order_basis_depths
from .errors import FFDiophError, PrecisionExhaustedError
from .matrix import SeriesMatrix
from .poly import NEG_INF
from .record import Record
from .series import DegValue


class ProfileEntry(Record):
    T: int
    B: DegValue

    @property
    def censored(self) -> bool:
        return self.B.censored


class ExponentProfile(Record):
    """Entries B(T) for T = 1..T_max.  A standard profile of (Y, theta) with
    theta not exactly zero also holds ``homogeneous``, the profile of
    (Y, None) to the same T_max, which ``profile`` builds beside it; it is
    None otherwise."""

    kind: str  # "standard" | "multiplicative"
    m: int
    n: int
    T_max: int
    entries: tuple[ProfileEntry, ...]
    homogeneous: ExponentProfile | None = None

    def entry(self, T: int) -> ProfileEntry:
        return self.entries[T - 1]

    def window(self) -> tuple[int, int]:
        return (self.T_max + 1) // 2, self.T_max


class EstimateWindowError(FFDiophError):
    """Too few usable entries in the tail window to form an estimate."""


class ExponentEstimate(Record):
    omega_proxy: Fraction | None
    omega_hat_proxy: Fraction | None
    window: tuple[int, int]
    infinite: bool
    censored: bool


def profile(
    Y: SeriesMatrix,
    theta,
    T_max: int,
    kind: str = "standard",
    method: str = "kernel",
) -> ExponentProfile:
    """Best-error degrees for all horizons up to T_max.

    method picks the best-error route for both kinds, "kernel" or "brute"
    (see ``best_error`` and ``best_error_mult``).  A theta of length other
    than Y.m, or an unknown method, is refused by the route's input gate
    before either route or basis runs; the gate also reads an exactly zero
    theta as None, so its profile is the homogeneous one.

    Each side, theta's and for a standard shifted profile its homogeneous
    sibling's, has one table {T: B(T)}.  A kernel profile, standard or
    multiplicative with m = 1, seeds it with every horizon below its cap
    read off order bases (``order_basis_depths``, which works out its own
    floor from Y and theta), with no scan and no witness: a standard one
    reads D off one basis, B = -(K(D)+1)*m; a multiplicative one reads each
    degree shape (D_1..D_n), sum D_j = T-1, off the basis of its column
    shifts r_j = max D - D_j, one basis per r, and B is -(K+1) for the
    largest K over the shapes.  A side sends to the route every horizon
    its bases do not give, so censored entries and -inf are the scan's, and
    the deepest one they give, as a check; brute profiles and
    multiplicative ones with m >= 2 send every horizon.  One ascending pass
    over the horizons sent fills the tables, and a route value at a
    horizon the bases read must equal that read.  For the standard kind
    both routes depend on T only through the degree bound D = (T-1)//n, so
    only T = n*D + 1 is sent or read and the other horizons with that D
    share its entry.  Precision exhaustion in a single entry is recorded as
    a censored value rather than aborting the whole profile.  Raises
    AssertionError if the check disagrees or an exact entry exceeds an
    earlier exact one.

    A standard profile whose theta is not None also carries the homogeneous
    profile of Y as ``homogeneous``, equal to
    profile(Y, None, T_max, "standard", method): the kernel reads both off
    the same basis run, whose carried shift row never reduces a basis row.
    At a horizon theta's side sends, one best_error(Y, theta, T) call
    decides both, the sibling's value being its ``homogeneous`` (the kernel
    decides both off one depth scan); a horizon only the sibling sends goes
    to best_error(Y, None, T).
    """
    if T_max < 1:
        raise ValueError("T_max must be >= 1")
    if kind not in ("standard", "multiplicative"):
        raise ValueError(f"unknown profile kind {kind!r}")
    theta = _shift_or_none(Y, theta, T_max, method)
    thetas = [theta] if kind == "multiplicative" or theta is None else [theta, None]
    reads = [{}] * len(thetas)  # T -> B(T) of the horizons the order bases give
    if method == "kernel" and (kind == "standard" or Y.m == 1):
        reads = _basis_reads(Y, thetas, T_max, kind)
    # standard horizons with one degree bound D = (T-1)//n share the entry
    # of the first, T = n*D + 1
    step = Y.n if kind == "standard" else 1
    # each side sends the route the horizons its bases do not give, and the
    # deepest one they give, as its check
    checks = [max(read, default=None) for read in reads]
    sent = [
        {T for T in range(1, T_max + 1, step) if T not in read or T == check}
        for read, check in zip(reads, checks)
    ]
    tables = [{T: DegValue.exact(B) for T, B in read.items()} for read in reads]
    for T in sorted(set().union(*sent)):
        # theta's call decides the sibling too; a horizon only the sibling
        # sends goes without theta
        first = 0 if T in sent[0] else 1
        for table, B in zip(tables[first:], _route(Y, thetas[first:], T, kind, method)):
            if table.setdefault(T, B) != B:
                raise AssertionError(f"order basis gives B({T}) = {table[T]}, the scan {B}")
    prof, *sibling = [
        _checked(Y, T_max, kind, [ProfileEntry(T, table[T - (T - 1) % step]) for T in range(1, T_max + 1)])
        for table in tables
    ]
    return prof.replace(homogeneous=sibling[0]) if sibling else prof


def _route(Y: SeriesMatrix, thetas, T: int, kind: str, method: str) -> list[DegValue]:
    """B(T) by the route per side of thetas: [theta], theta a shift or
    None as the input gate leaves it, or [theta, None] with theta a shift,
    where one best_error call serves both, its ``homogeneous`` being the
    sibling's.  An entry whose precision runs out gets the trivial bound
    deg <= -1 per row, censored, which survives any truncation.  Only
    theta's side runs out alone (a row of Y q with a floor above 0 keeps it
    in Y q + theta), and the sibling then takes a call of its own."""

    def call(theta) -> BestError | None:
        try:
            if kind == "standard":
                return best_error(Y, theta, T, method=method)
            if method == "kernel":
                # the default stays implicit: the benchmark's call-counting
                # hook (bench/tracing.py) takes best_error_mult(Y, theta, T)
                return best_error_mult(Y, theta, T)
            return best_error_mult(Y, theta, T, method=method)
        except PrecisionExhaustedError:
            return None

    got = [call(thetas[0])]
    if len(thetas) > 1:
        got.append(call(None) if got[0] is None else got[0].homogeneous)
    return [DegValue.censored_at(-Y.m) if be is None else be.B for be in got]


def _checked(Y: SeriesMatrix, T_max: int, kind: str, entries) -> ExponentProfile:
    """The profile of entries, once no exact value rises with T: a larger
    horizon admits more q."""
    exact = [e for e in entries if not e.censored]
    for prev, e in zip(exact, exact[1:]):
        if e.B.value > prev.B.value:
            raise AssertionError(
                f"profile rises at T={e.T}: B({e.T}) = {e.B.value} "
                f"exceeds B({prev.T}) = {prev.B.value}"
            )
    return ExponentProfile(kind, Y.m, Y.n, T_max, tuple(entries))


def _basis_reads(Y: SeriesMatrix, thetas, T_max: int, kind: str) -> list[dict[int, int]]:
    """{T: B(T)} per theta of thetas for every horizon up to T_max whose
    entry the order bases give (``order_basis_depths``); the other horizons
    are capped.

    A standard horizon reads its degree bound D = (T-1)//n, at T = n*D + 1,
    off one basis, which serves every theta.  A multiplicative one (m = 1,
    one theta) is the least value over its shapes D_j >= 0, sum D_j = T-1,
    each read off the basis of its column shifts r_j = M - D_j, M = max D_j,
    at D = M: one basis per r serves every T, run to the M of the deepest
    horizon, (T_max - 1 + sum r)//n.  Such a T is read only when none of
    its shapes is capped.
    """
    if kind == "standard":
        runs = order_basis_depths(Y, thetas, (T_max - 1) // Y.n)
        return [{Y.n * D + 1: -(K + 1) * Y.m for D, K in enumerate(depths)} for depths in runs]
    read, bases = {}, {}
    for T in range(1, T_max + 1):
        Ks = []
        for shape in compositions(T - 1, Y.n):
            M = max(shape)
            r = tuple(M - d for d in shape)
            if r not in bases:
                (bases[r],) = order_basis_depths(Y, thetas, (T_max - 1 + sum(r)) // Y.n, r)
            Ks.append(bases[r][M] if M < len(bases[r]) else None)
        if None not in Ks:
            read[T] = -(max(Ks) + 1)
    return [read]


def estimate(prof: ExponentProfile) -> ExponentEstimate:
    """Window extremes of -B(T)/T as exact rationals."""
    lo, hi = prof.window()
    tail = [e for e in prof.entries if lo <= e.T <= hi]
    usable = [e for e in tail if not e.censored]
    censored = len(usable) < len(tail)
    if not usable:
        raise EstimateWindowError("estimate window is fully censored")
    if len(usable) < 4:
        raise EstimateWindowError(
            f"need at least 4 uncensored window entries, have {len(usable)}"
        )
    if any(e.B.value == NEG_INF for e in usable):
        return ExponentEstimate(None, None, (lo, hi), True, censored)
    # -B/T compared by cross-multiplying (T > 0); a Fraction for each extreme
    top = bottom = (-int(usable[0].B.value), usable[0].T)
    for e in usable[1:]:
        b = -int(e.B.value)
        if b * top[1] > top[0] * e.T:
            top = (b, e.T)
        elif b * bottom[1] < bottom[0] * e.T:
            bottom = (b, e.T)
    return ExponentEstimate(Fraction(*top), Fraction(*bottom), (lo, hi), False, censored)
