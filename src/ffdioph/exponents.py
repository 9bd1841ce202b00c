"""Finite-horizon profiles of best-approximation degrees and the rational
proxies they induce for the growth exponents.

A profile records (T, B(T)) for T = 1..T_max.  The estimate takes the tail
window [ceil(T_max/2), T_max] and reports max and min of -B(T)/T as exact
fractions; the max plays the role of the limsup exponent, the min of the
liminf one.  Censored entries never contribute to either proxy.
"""

from __future__ import annotations

from fractions import Fraction

from .approx import BestError, best_error, best_error_mult, compositions, order_basis_depths
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
    (see ``best_error`` and ``best_error_mult``).  For the standard kind
    both routes depend on T only through the degree bound D = (T-1)//n, so
    an entry is decided once per D, at T = n*D + 1, and the other horizons
    with that D share it.  A kernel profile, standard or multiplicative with
    m = 1, reads every horizon below its cap off order bases
    (``order_basis_depths``, which works out its own floor from Y and
    theta), with no scan and no witness: a standard one reads D off one
    basis, B = -(K(D)+1)*m; a multiplicative one reads each degree shape
    (D_1..D_n), sum D_j = T-1, off the basis of its column shifts
    r_j = max D - D_j, one basis per r, and B is -(K+1) for the largest K
    over the shapes.  The route still decides every capped horizon, so
    censored entries and -inf are the scan's, and it decides the deepest
    horizon read off the bases again as a check.  Brute profiles and
    multiplicative ones with m >= 2 run the route per horizon.  A theta of
    length other than Y.m is refused before either route runs.
    Precision exhaustion in a single entry is recorded as a censored value
    rather than aborting the whole profile.  Raises AssertionError if the
    check disagrees or an exact entry exceeds an earlier exact one.

    A standard profile whose theta is not exactly zero also carries the
    homogeneous profile of Y as ``homogeneous``, equal to
    profile(Y, None, T_max, "standard", method): the kernel reads both off
    the same basis run, whose carried shift row never reduces a basis row.
    At each horizon the shifted profile sends to the route (its capped
    horizons and its check) one best_error(Y, theta, T) call decides both,
    the sibling's value being its ``homogeneous``: the kernel decides both
    off one depth scan.  A horizon only the sibling sends, or one where
    theta's side runs out of precision, goes to best_error(Y, None, T).  A
    route value at a horizon the bases also give must equal it, so each
    side is still checked at least at its own deepest read horizon.
    """
    if T_max < 1:
        raise ValueError("T_max must be >= 1")
    if kind not in ("standard", "multiplicative"):
        raise ValueError(f"unknown profile kind {kind!r}")
    if theta is not None and len(theta) != Y.m:
        raise ValueError("shift vector length must match row count")
    thetas = [theta]
    if kind == "standard" and theta is not None and not all(th.is_exact_zero() for th in theta):
        thetas.append(None)
    reads = [{}] * len(thetas)  # T -> B(T) of the horizons the order bases give
    if method == "kernel" and (kind == "standard" or Y.m == 1):
        reads = _basis_reads(Y, thetas, T_max, kind)
    # the horizons each side sends to the route: those its bases do not
    # give, and the deepest one they give, as its check
    checks = [max(read, default=None) for read in reads]
    sent = [{T for T in range(1, T_max + 1) if T not in read or T == check} for read, check in zip(reads, checks)]
    columns = [[] for _ in thetas]  # each side's entries
    for T in range(1, T_max + 1):
        if kind == "standard" and (T - 1) % Y.n:
            # same degree bound D = (T-1)//n as T-1: reuse its entry
            for entries in columns:
                entries.append(ProfileEntry(T, entries[-1].B))
            continue
        if T in sent[0]:  # theta's call, which decides the sibling too
            routed = _route(Y, thetas, T, kind, method)
        elif len(thetas) > 1 and T in sent[1]:  # the sibling's alone
            routed = [None, *_route(Y, [None], T, kind, method)]
        else:
            routed = [None] * len(thetas)
        for side, (read, value) in enumerate(zip(reads, routed)):
            if T in read:
                B = DegValue.exact(read[T])
                if value is not None and value != B:
                    raise AssertionError(f"order basis gives B({T}) = {B}, the scan {value}")
            else:
                B = value
            columns[side].append(ProfileEntry(T, B))
    prof, *sibling = [_checked(Y, T_max, kind, entries) for entries in columns]
    return prof.replace(homogeneous=sibling[0]) if sibling else prof


def _route(Y: SeriesMatrix, thetas, T: int, kind: str, method: str) -> list[DegValue]:
    """B(T) by the route per theta of thetas, [theta], [None] or
    [theta, None]: one call serves both of a pair, as best_error decides
    the homogeneous sibling beside theta.  An entry whose precision runs out
    gets the trivial bound deg <= -1 per row, censored, which survives any
    truncation.  Only theta's side runs out alone (a row of Y q with a floor
    above 0 keeps it in Y q + theta), and the sibling then takes a call of
    its own."""

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
