"""Finite-horizon profiles of best-approximation degrees and the rational
proxies they induce for the growth exponents.

A profile records (T, B(T)) for T = 1..T_max.  The estimate takes the tail
window [ceil(T_max/2), T_max] and reports max and min of -B(T)/T as exact
fractions; the max plays the role of the limsup exponent, the min of the
liminf one.  Censored entries never contribute to either proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .approx import BestError, best_error, best_error_mult, order_basis_depths
from .errors import FFDiophError, PrecisionExhaustedError
from .matrix import SeriesMatrix
from .poly import NEG_INF
from .series import DegValue


@dataclass(frozen=True)
class ProfileEntry:
    T: int
    B: DegValue

    @property
    def censored(self) -> bool:
        return self.B.censored


@dataclass(frozen=True)
class ExponentProfile:
    kind: str  # "standard" | "multiplicative"
    m: int
    n: int
    T_max: int
    entries: tuple[ProfileEntry, ...]

    def entry(self, T: int) -> ProfileEntry:
        return self.entries[T - 1]

    def window(self) -> tuple[int, int]:
        return (self.T_max + 1) // 2, self.T_max


class EstimateWindowError(FFDiophError):
    """Too few usable entries in the tail window to form an estimate."""


@dataclass(frozen=True)
class ExponentEstimate:
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
    (see ``best_error`` and ``best_error_mult``: the multiplicative kernel
    route covers m = 1 and enumerates for m >= 2).  For the standard kind
    both routes depend on T only through the degree bound D = (T-1)//n, so
    an entry is decided once per D, at T = n*D + 1, and the other horizons
    with that D share it.  A standard kernel profile reads every D below
    its cap off one order basis (``order_basis_depths``, which works out
    its own floor from Y and theta): B = -(K(D)+1)*m, with no scan and no
    witness.  ``best_error`` still decides every capped D, so censored
    entries are the scan's, and it decides the deepest uncapped D again as
    a check.  Brute and multiplicative profiles run ``best_error`` (or
    ``best_error_mult``) per D.  A theta of length other than Y.m is
    refused before either route runs.
    Precision exhaustion in a single entry is recorded as a censored value
    rather than aborting the whole profile.  Raises AssertionError if the
    check disagrees or an exact entry exceeds an earlier exact one.
    """
    if T_max < 1:
        raise ValueError("T_max must be >= 1")
    if kind not in ("standard", "multiplicative"):
        raise ValueError(f"unknown profile kind {kind!r}")
    if theta is not None and len(theta) != Y.m:
        raise ValueError("shift vector length must match row count")
    depths = []  # K(D) of the uncapped degree bounds, from the order basis
    if kind == "standard" and method == "kernel":
        depths = order_basis_depths(Y, theta, (T_max - 1) // Y.n)
    entries = []
    for T in range(1, T_max + 1):
        D = (T - 1) // Y.n
        if kind == "standard" and (T - 1) % Y.n:
            # same degree bound D as T-1: reuse its entry
            entries.append(ProfileEntry(T, entries[-1].B))
            continue
        if D < len(depths):
            B = DegValue.exact(-(depths[D] + 1) * Y.m)
            if D == len(depths) - 1:
                check = best_error(Y, theta, T, method=method).B
                if check != B:
                    raise AssertionError(
                        f"order basis gives B({T}) = {B}, the scan {check}"
                    )
            entries.append(ProfileEntry(T, B))
            continue
        try:
            if kind == "standard":
                be: BestError = best_error(Y, theta, T, method=method)
            elif method == "kernel":
                # the default stays implicit: the benchmark's call-counting
                # hook (bench/tracing.py) takes best_error_mult(Y, theta, T)
                be = best_error_mult(Y, theta, T)
            else:
                be = best_error_mult(Y, theta, T, method=method)
            entries.append(ProfileEntry(T, be.B))
        except PrecisionExhaustedError:
            # the trivial bound deg <= -1 per row survives any truncation
            entries.append(ProfileEntry(T, DegValue.censored_at(-Y.m)))
    # exact values never rise with T: a larger horizon admits more q
    exact = [e for e in entries if not e.censored]
    for prev, e in zip(exact, exact[1:]):
        if e.B.value > prev.B.value:
            raise AssertionError(
                f"profile rises at T={e.T}: B({e.T}) = {e.B.value} "
                f"exceeds B({prev.T}) = {prev.B.value}"
            )
    return ExponentProfile(kind, Y.m, Y.n, T_max, tuple(entries))


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
    ratios = [Fraction(-e.B.value, e.T) for e in usable]
    return ExponentEstimate(max(ratios), min(ratios), (lo, hi), False, censored)
