import itertools

import pytest

from ffdioph import (
    DegValue,
    DirichletTarget,
    Fq,
    LaurentSeries,
    NEG_INF,
    Poly,
    SeriesMatrix,
    best_error,
    best_error_mult,
    dirichlet_solve,
    parse_poly_literal,
    parse_series_literal,
    witness_error_degs,
)
from ffdioph.errors import PrecisionExhaustedError
from ffdioph.generators import cf_series, derive_rng, random_series
from ffdioph.matrix import matvec_affine, prod_plus_deg
from ffdioph.poly import iter_polys
from ffdioph.series import deg_max, deg_sum

F2 = Fq(2)
F3 = Fq(3)
F4 = Fq(2, 2)


def S(text, field=F2, floor=NEG_INF):
    return parse_series_literal(text, field, floor)


def single(entry) -> SeriesMatrix:
    return SeriesMatrix([[entry]])


# ---------------------------------------------------------------------------
# Dirichlet solver
# ---------------------------------------------------------------------------


def test_target_validation():
    with pytest.raises(ValueError):
        DirichletTarget(1, 1, (1, 2))  # unbalanced
    with pytest.raises(ValueError):
        DirichletTarget(1, 1, (-1, -1))
    DirichletTarget(2, 1, (1, 2, 3))


def test_dirichlet_relaxed_example():
    Y = single(S("X^-1"))
    res = dirichlet_solve(Y, DirichletTarget(1, 1, (1, 1)))
    assert res.witness.q[0] == parse_poly_literal("X", F2)
    assert res.witness.p[0] == Poly.one(F2)
    assert res.error_degs[0] == DegValue.exact(NEG_INF)
    assert res.strict_also is False


def test_dirichlet_strict_easy_instance():
    Y = single(S("X^-2 + X^-5"))
    res = dirichlet_solve(Y, DirichletTarget(1, 1, (1, 1)))
    assert res.strict_also is True
    assert res.witness.q[0].deg <= 1
    assert res.error_degs[0].value < -1 and not res.error_degs[0].censored


def test_dirichlet_random_reverify():
    for i in range(40):
        rng = derive_rng(77, "dirich", i)
        field = F2 if i % 2 else F3
        m, n = rng.randrange(1, 3), rng.randrange(1, 3)
        k = rng.randrange(0, 4)

        def split(total, parts):
            out = []
            rest = total
            for _ in range(parts - 1):
                v = rng.randrange(0, rest + 1)
                out.append(v)
                rest -= v
            out.append(rest)
            return out

        t = DirichletTarget(m, n, tuple(split(k, m) + split(k, n)))
        Y = SeriesMatrix(
            [
                [random_series(field, -40, derive_rng(77, "Y", i, r, c)) for c in range(n)]
                for r in range(m)
            ]
        )
        res = dirichlet_solve(Y, t)
        degs = witness_error_degs(Y, None, res.witness)
        assert all(d.value < -t.values[r] for r, d in enumerate(degs))
        assert all(
            q.deg == NEG_INF or q.deg <= t.values[m + j]
            for j, q in enumerate(res.witness.q)
        )


def test_dirichlet_strict_also_matches_enumeration():
    # strict_also says whether some q != 0 with deg q_j <= t_{m+j} - 1 leaves
    # every row's fractional part of Y q below degree -t_i; the oracle tries
    # every such q
    solvable = 0
    for i in range(60):
        rng = derive_rng(91, "strict", i)
        field = F2 if i % 2 else F3
        m, n = rng.randrange(1, 3), rng.randrange(1, 3)
        k = rng.randrange(0, 4)

        def split(total, parts):
            cuts = sorted(rng.randrange(0, total + 1) for _ in range(parts - 1))
            return [b - a for a, b in zip([0] + cuts, cuts + [total])]

        t = DirichletTarget(m, n, tuple(split(k, m) + split(k, n)))
        Y = SeriesMatrix(
            [
                [random_series(field, -40, derive_rng(91, "Y", i, r, c)) for c in range(n)]
                for r in range(m)
            ]
        )
        zero_p = [Poly.zero(field)] * m
        oracle = any(
            all(
                row.split_parts()[1].deg().value < -t.values[r]
                for r, row in enumerate(matvec_affine(Y, q, zero_p))
            )
            for q in itertools.product(*(iter_polys(field, b - 1) for b in t.col_part))
            if not all(qj.is_zero() for qj in q)
        )
        assert dirichlet_solve(Y, t).strict_also is oracle, (i, t)
        solvable += oracle
    assert 0 < solvable < 60


# ---------------------------------------------------------------------------
# best_error
# ---------------------------------------------------------------------------


def test_best_error_golden_cf():
    Y = single(cf_series(F2, [1], -40))
    for T in range(1, 7):
        for method in ("kernel", "brute"):
            assert best_error(Y, None, T, method).B == DegValue.exact(-T)


def test_best_error_shift_only():
    Y = single(LaurentSeries.zero(F2))
    theta = (S("X^-3"),)
    for T in (1, 3, 6):
        assert best_error(Y, theta, T, "kernel").B == DegValue.exact(-3)
        assert best_error(Y, theta, T, "brute").B == DegValue.exact(-3)


def test_best_error_exact_hit():
    Y = single(S("X^-1"))
    be = best_error(Y, None, 2, "kernel")
    assert be.B == DegValue.exact(NEG_INF)
    assert best_error(Y, None, 2, "brute").B == DegValue.exact(NEG_INF)


@pytest.mark.parametrize(
    "field, m, n, shifted, T_max, count",
    [
        pytest.param(F2, 1, 1, False, 7, 30, id="F2-1x1"),
        pytest.param(F3, 1, 2, False, 5, 6, id="F3-1x2"),
        pytest.param(F3, 1, 2, True, 5, 6, id="F3-1x2-shifted"),
        pytest.param(F4, 1, 1, False, 4, 6, id="F4-1x1"),
        pytest.param(F4, 1, 1, True, 4, 6, id="F4-1x1-shifted"),
        pytest.param(F2, 2, 1, False, 7, 6, id="F2-2x1"),
        pytest.param(F2, 2, 1, True, 7, 6, id="F2-2x1-shifted"),
    ],
)
def test_kernel_equals_brute_random(field, m, n, shifted, T_max, count):
    # generic fields and the shifted (solve_affine) path against the oracle
    for i in range(count):
        rng = derive_rng(5150, "oracle", i)
        Y = SeriesMatrix(
            [[random_series(field, -40, rng) for _ in range(n)] for _ in range(m)]
        )
        theta = (
            tuple(random_series(field, -40, rng) for _ in range(m)) if shifted else None
        )
        for T in range(1, T_max + 1):
            k = best_error(Y, theta, T, "kernel")
            b = best_error(Y, theta, T, "brute")
            assert k.B == b.B
            # witness error degrees agree as well
            dk = max(d.value for d in witness_error_degs(Y, theta, k.witness))
            db = max(d.value for d in witness_error_degs(Y, theta, b.witness))
            assert dk == db


def fresh_kernel_solve(Y, theta, bounds, k):
    """Oracle: the q vector (or None) for depth k from all k*m constraint
    rows, rebuilt and eliminated from scratch; the canonical q is the
    particular solution, or the first basis vector where that is zero.  The
    right-hand side of row (i, c) is -theta_i's digit at -c, read here with
    ``coeff``, not from the kernel's digit table."""
    from ffdioph.approx import _constraints
    from ffdioph.linalg import nullspace, solve_affine

    rows = _constraints(Y, bounds, [k] * Y.m)
    ncols = sum(d + 1 for d in bounds)
    if theta is None or all(th.is_exact_zero() for th in theta):
        basis = nullspace(Y.field, rows, ncols)
        return basis[0] if basis else None
    F = Y.field
    rhs = [F.neg(theta[i].coeff(-c)) for i in range(Y.m) for c in range(1, k + 1)]
    x, basis = solve_affine(F, rows, rhs, ncols)
    if x is not None and not any(x):
        x = basis[0] if basis else None
    return x


def fresh_kernel_q(Y, theta, bounds, k):
    from ffdioph.approx import _vector_to_q

    return tuple(_vector_to_q(Y.field, fresh_kernel_solve(Y, theta, bounds, k), bounds))


FIELDS = [F2, F3, F4, Fq(3, 2)]
FIELD_IDS = ["F2", "F3", "F4", "F9"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_kernel_depth_scan_matches_linear_probe(field):
    # the one-pass depth scan against a probe of every depth 0..cap
    from ffdioph.approx import _search_caps

    branches = set()
    for i in range(8):
        rng = derive_rng(2718, "scan", field.q, i)
        m, n = rng.randrange(1, 3), rng.randrange(1, 3)
        floor = rng.choice([-3, -5, -10])
        exact = i % 2 == 0

        def entry():
            s = random_series(field, floor, rng)
            return LaurentSeries(field, -1, list(s.coeffs), NEG_INF) if exact else s

        Y = SeriesMatrix([[entry() for _ in range(n)] for _ in range(m)])
        theta = tuple(entry() for _ in range(m)) if i % 4 >= 2 else None
        for T in range(1, 8):
            bounds = [(T - 1) // n] * n
            cap, exact_inputs = _search_caps(Y, theta, bounds)
            assert exact_inputs == exact
            feasible = [
                fresh_kernel_solve(Y, theta, bounds, k) is not None
                for k in range(cap + 1)
            ]
            K = feasible.index(False) - 1 if False in feasible else cap
            assert not any(feasible[K + 1 :])  # feasibility is monotone in depth
            B = best_error(Y, theta, T, "kernel").B
            if K < cap:
                assert B == DegValue.exact(-(K + 1) * m)
            elif exact:
                assert B == DegValue.exact(NEG_INF)
            else:
                assert B.censored
            branches.add((K == cap, exact, theta is not None))
    # K < cap and K == cap, each on exact and truncated, homogeneous and shifted
    assert branches == set(itertools.product((False, True), repeat=3))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_kernel_witness_matches_fresh_solve(field):
    # the witness read off the scan's depth-K rows is exactly the q a fresh
    # elimination of all K*m constraint rows gives, on both objectives
    from ffdioph.approx import _search_caps, compositions

    def deepest(Y, theta, bounds):
        cap, _ = _search_caps(Y, theta, bounds)
        feasible = [
            k for k in range(cap + 1) if fresh_kernel_solve(Y, theta, bounds, k) is not None
        ]
        return max(feasible), cap

    branches = set()
    for i in range(48):
        # every (exact, shift, m, n) at a deep floor, then at a shallow one,
        # where most horizons reach the cap
        rng = derive_rng(4242, "scan-witness", field.q, i)
        exact, shift = i % 2 == 0, ("none", "zero", "random")[i // 2 % 3]
        m, n = 1 + i // 6 % 2, 1 + i // 12 % 2
        floor = -16 if i < 24 else rng.choice([-2, -3])

        def entry():
            s = random_series(field, floor, rng)
            return LaurentSeries(field, -1, list(s.coeffs), NEG_INF) if exact else s

        Y = SeriesMatrix([[entry() for _ in range(n)] for _ in range(m)])
        theta = {
            "none": None,
            "zero": tuple(LaurentSeries.zero(field) for _ in range(m)),
            "random": tuple(entry() for _ in range(m)),
        }[shift]
        for T in range(1, 7):
            bounds = [(T - 1) // n] * n
            K, cap = deepest(Y, theta, bounds)
            be = best_error(Y, theta, T, "kernel")
            assert be.witness.q == fresh_kernel_q(Y, theta, bounds, K)
            branches.add(("standard", shift, K == cap, exact))
            # the homogeneous sibling's witness, off the same scan
            if theta is None or all(t.is_exact_zero() for t in theta):
                assert be.homogeneous is None
            else:
                K_h, cap_h = deepest(Y, None, bounds)
                assert be.homogeneous.witness.q == fresh_kernel_q(Y, None, bounds, K_h)
                branches.add(("sibling", K_h == cap_h, exact))
            if m > 1:
                continue
            shapes = list(compositions(T - 1, n))
            scans = [deepest(Y, theta, b) for b in shapes]
            bm = best_error_mult(Y, theta, T, "kernel")
            assert bm.method == "kernel"
            if any(k == c for k, c in scans):
                # a capped shape is decided by its box rule: the witness is
                # admissible and attains B (a censored B in value only, since
                # the witness's own residual may be known deeper)
                assert prod_plus_deg(bm.witness.q) <= T - 1
                got = deg_sum(witness_error_degs(Y, theta, bm.witness))
                assert got.value == bm.B.value
                assert bm.censored or got == bm.B
                branches.add(("mult-capped", exact))
                continue
            depths = [k for k, _ in scans]
            best = depths.index(max(depths))  # the first deepest shape
            assert bm.witness.q == fresh_kernel_q(Y, theta, shapes[best], depths[best])
            branches.add(("mult", shift, n > 1, exact))
    cases = set(itertools.product(("none", "zero", "random"), (False, True), (False, True)))
    assert {("standard",) + c for c in cases} <= branches
    assert {("sibling",) + c for c in itertools.product((False, True), repeat=2)} <= branches
    assert {("mult", shift, n2, False) for shift, n2, _ in cases} <= branches
    assert {("mult-capped", False), ("mult-capped", True)} <= branches


SIBLING_FIELDS = {"F2": F2, "F3": F3, "F4": F4, "F9": Fq(3, 2), "F131": Fq(131)}


def exact_series(F, rng, depth):
    """A random Laurent polynomial with digits -1..-depth, exact."""
    return LaurentSeries(F, -1, list(random_series(F, -depth, rng).coeffs), NEG_INF)


def sibling_inputs(F, *tags):
    """(Y, theta) for best_error's homogeneous sibling, m and n in {1, 2}:
    Y on floors -6 and -14 with theta on a floor above, at and below Y's,
    and exactly zero; an exact Y with a theta truncated at -12, whose sides'
    caps differ (the homogeneous one is Y's exact cap, where it meets an
    exact hit, -inf, while theta's runs on to its floor)."""
    rng = derive_rng(3434, "sibling", *tags)
    cases = {}
    for m, n in itertools.product((1, 2), repeat=2):
        for floor in (-6, -14):
            Y = SeriesMatrix([[random_series(F, floor, rng) for _ in range(n)] for _ in range(m)])
            for where, th_floor in (("above", floor + 3), ("at", floor), ("below", floor - 3)):
                cases[f"{m}x{n}{floor}-{where}"] = (Y, tuple(random_series(F, th_floor, rng) for _ in range(m)))
            cases[f"{m}x{n}{floor}-exact-zero"] = (Y, (LaurentSeries.zero(F),) * m)
        Y = SeriesMatrix([[exact_series(F, rng, 3) for _ in range(n)] for _ in range(m)])
        cases[f"{m}x{n}-exact-Y"] = (Y, tuple(random_series(F, -12, rng) for _ in range(m)))
    return cases


def _brute_small(F, n, T):
    """Whether brute enumerates at most 256 vectors at horizon T."""
    return F.q ** (n * ((T - 1) // n + 1)) <= 256


@pytest.mark.parametrize("name", list(SIBLING_FIELDS))
def test_best_error_carries_its_homogeneous_sibling(name):
    # best_error(Y, theta, T).homogeneous is exactly best_error(Y, None, T),
    # record for record, by kernel (one scan serving both sides) and by
    # brute; theta's own side is what a scan of theta alone decides; an
    # exactly zero theta carries no sibling
    from ffdioph.approx import _kernel_best

    F = SIBLING_FIELDS[name]
    branches = set()
    for case, (Y, theta) in sibling_inputs(F, name).items():
        shifted = not all(t.is_exact_zero() for t in theta)
        for T in range(1, 8 * Y.n + 2, Y.n):
            for method in ("kernel", "brute"):
                if method == "brute" and not _brute_small(F, Y.n, T):
                    continue
                got = best_error(Y, theta, T, method)
                if not shifted:
                    assert got.homogeneous is None, case
                    continue
                hom = best_error(Y, None, T, method)
                assert got.homogeneous == hom, (case, T, method)
                assert got.homogeneous.homogeneous is None
                if method == "kernel":
                    ((B, w),) = _kernel_best(Y, [theta], [[(T - 1) // Y.n] * Y.n])
                    assert (got.B, got.witness) == (B.scale(Y.m), w), (case, T)
                capped = [be.censored or be.B.value == NEG_INF for be in (got, hom)]
                branches.add((method, *capped))
                if hom.B.value == NEG_INF and got.B.value != NEG_INF:
                    branches.add((method, "sibling hit, theta runs on"))
    assert {("kernel", a, b) for a in (False, True) for b in (False, True)} <= branches
    assert ("kernel", "sibling hit, theta runs on") in branches
    assert ("brute", False, False) in branches
    if F.q <= 4:  # a capped brute entry needs a degree bound too wide to enumerate on F9, F131
        assert ("brute", True, True) in branches


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F5", "F9"])
def test_joint_scan_equals_one_scan_per_side(name):
    # one elimination serves theta's side and its homogeneous sibling: each
    # side's K, and the canonical solutions of its rows, equal those of a
    # scan of its own, whichever side's cap is the larger
    from ffdioph.approx import _deepest_feasible_depth, _search_caps
    from ffdioph.linalg import nullspace, solve_affine

    F = {"F2": F2, "F3": F3, "F4": F4, "F5": Fq(5), "F9": Fq(3, 2)}[name]
    orders, stops = set(), set()
    for i in range(120):
        rng = derive_rng(3535, "joint", F.q, i)
        m, n = 1 + i % 2, 1 + i // 2 % 2
        layout = ("theta-shallower", "theta-deeper", "exact-Y", "all-exact", "exact-theta")[i // 4 % 5]
        floor = -rng.randrange(4, 13)
        if layout in ("exact-Y", "all-exact"):
            Y = SeriesMatrix([[exact_series(F, rng, rng.randrange(2, 6)) for _ in range(n)] for _ in range(m)])
        else:
            Y = SeriesMatrix([[random_series(F, floor, rng) for _ in range(n)] for _ in range(m)])
        if layout in ("all-exact", "exact-theta"):
            theta = tuple(exact_series(F, rng, rng.randrange(2, 9)) for _ in range(m))
        else:
            th_floor = {"theta-shallower": floor + 3, "theta-deeper": floor - 3}.get(layout, -rng.randrange(2, 13))
            theta = tuple(random_series(F, min(th_floor, -1), rng) for _ in range(m))
        bounds = [rng.randrange(4) for _ in range(n)]
        ncols = sum(d + 1 for d in bounds)
        caps = [_search_caps(Y, theta, bounds)[0], _search_caps(Y, None, bounds)[0]]
        joint = _deepest_feasible_depth(Y, theta, bounds, caps)
        alone = _deepest_feasible_depth(Y, theta, bounds, caps[:1]) + _deepest_feasible_depth(Y, None, bounds, caps[1:])
        assert [K for K, _ in joint] == [K for K, _ in alone], (i, layout)
        (_, rows), (_, want) = joint[0], alone[0]
        assert solve_affine(F, rows, [0] * len(rows), ncols) == solve_affine(F, want, [0] * len(want), ncols)
        (_, rows), (_, want) = joint[1], alone[1]
        assert nullspace(F, rows, ncols) == nullspace(F, want, ncols)
        assert len(rows) == len(want)  # the rank of A: no row for theta's column
        orders.add((caps[0] > caps[1]) - (caps[0] < caps[1]))
        stops.add(tuple(K == cap for (K, _), cap in zip(joint, caps)))
    assert orders == {-1, 0, 1}
    assert stops == set(itertools.product((False, True), repeat=2))


def test_gf2_packed_rows_match_digit_definition():
    # the packed GF(2) rows against their definition: bit (j, s) of row
    # (i, c) is Y_ij's digit at -c-s, the rhs of row (i, c) is theta_i's
    # digit at -c (-x = x on GF(2)) and sits at bit ncols, and no bit sits
    # past it; every depth 1..cap, equal and unequal row depths
    from ffdioph.approx import _constraints, _digit_table, _search_caps, _table_row

    rng = derive_rng(4242, "packed-rows")
    exact = [
        LaurentSeries(F2, -1, [1, 0, 1], NEG_INF),  # shorter than a window
        LaurentSeries(F2, -4, [1, 0, 1, 1, 0, 1], NEG_INF),  # first digit at -4
        LaurentSeries.zero(F2),
    ]
    truncated = [
        random_series(F2, -16, rng),
        LaurentSeries(F2, -3, [1] + [rng.randrange(2) for _ in range(11)], -14),
    ]
    branches = set()
    # D = -1 is a strict Dirichlet column with no unknowns
    for bounds in ([0], [3], [0, 5], [5, 0], [2, 2], [-1, 2]):
        n = len(bounds)
        layout = [(j, s) for j, d in enumerate(bounds) for s in range(d + 1)]
        for m, pool in itertools.product((1, 2), (exact, truncated + exact)):
            for a in range(len(pool)):
                pick = [pool[(a + t) % len(pool)] for t in range(m * n + m)]
                Y = SeriesMatrix([pick[i * n : (i + 1) * n] for i in range(m)])
                theta = tuple(pick[m * n :])
                cap, exact_inputs = _search_caps(Y, theta, bounds)
                for k in range(1, cap + 1):
                    for depths in ([k] * m, [k, k // 2][:m]):
                        tab = _digit_table(Y, theta, bounds, depths)
                        rows = _constraints(Y, bounds, depths)
                        # the table carries each column's width: D_j + 1
                        # unknowns per column of Y, then the shift's one
                        for i in range(m):
                            assert [mask for _, mask, _ in tab[i]] == [
                                (1 << d + 1) - 1 for d in bounds
                            ] + [1]
                        keys = [(i, c) for i, d in enumerate(depths) for c in range(1, d + 1)]
                        assert len(rows) == len(keys)
                        for (i, c), hom in zip(keys, rows):
                            row = _table_row(tab, i, c)
                            assert isinstance(row, int) and row >> len(layout) + 1 == 0
                            assert hom == row & (1 << len(layout)) - 1
                            for col, (j, s) in enumerate(layout):
                                assert row >> col & 1 == Y.entry(i, j).coeff(-c - s)
                            assert row >> len(layout) == theta[i].coeff(-c)
                branches.add((n, m, exact_inputs))
    assert branches == set(itertools.product((1, 2), (1, 2), (False, True)))


@pytest.mark.parametrize("field", [F3, Fq(3, 2)], ids=["F3", "F9"])
@pytest.mark.parametrize("shifted", [False, True], ids=["homogeneous", "shifted"])
def test_digit_table_rows_match_definition(field, shifted):
    # element rows against their definition: entry (j, s) of row (i, c) is
    # Y_ij's digit at -c-s, and a shifted row ends in -theta_i's digit at -c
    from ffdioph.approx import _digit_table, _search_caps, _table_row

    checked = 0
    for a, bounds in enumerate(([0], [3], [0, 4], [2, 2], [-1, 2])):
        rng = derive_rng(777, "table", field.q, a)
        n = len(bounds)
        for m in (1, 2):
            Y = SeriesMatrix(
                [[random_series(field, -12, rng) for _ in range(n)] for _ in range(m)]
            )
            theta = tuple(random_series(field, -12, rng) for _ in range(m)) if shifted else None
            layout = [(j, s) for j, d in enumerate(bounds) for s in range(d + 1)]
            cap, _ = _search_caps(Y, theta, bounds)
            depths = [cap, cap // 2][:m]
            tab = _digit_table(Y, theta, bounds, depths)
            for i, k in enumerate(depths):
                for c in range(1, k + 1):
                    row = _table_row(tab, i, c)
                    assert len(row) == len(layout) + shifted
                    for col, (j, s) in enumerate(layout):
                        assert row[col] == Y.entry(i, j).coeff(-c - s)
                    if shifted:
                        assert row[-1] == field.neg(theta[i].coeff(-c))
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_exact_zero_theta_equals_homogeneous(field):
    # an all-exact-zero shift is the homogeneous problem, for both
    # objectives and both methods (brute at T <= 4, where it enumerates
    # quickly), on exact and truncated inputs and at and below the cap
    for i in range(16):
        rng = derive_rng(99, "zero-theta", field.q, i)
        m, n, exact = 1 + i % 2, 1 + i // 2 % 2, i // 4 % 2 == 1
        floor = -14 if i < 8 else -3

        def entry():
            s = random_series(field, floor, rng)
            return LaurentSeries(field, -1, list(s.coeffs), NEG_INF) if exact else s

        Y = SeriesMatrix([[entry() for _ in range(n)] for _ in range(m)])
        zero = tuple(LaurentSeries.zero(field) for _ in range(m))
        for T in range(1, 7):
            for method in ("kernel", "brute") if T <= 4 else ("kernel",):
                assert best_error(Y, zero, T, method) == best_error(Y, None, T, method)
                if m == 1:
                    got = best_error_mult(Y, zero, T, method)
                    assert got == best_error_mult(Y, None, T, method)


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_kernel_witness_attains_B_at_full_precision(field):
    # the kernel multiplies its witness out only to depth K+1; multiplied
    # again here to the inputs' floors, it must attain every reported B that
    # is neither censored nor an exact hit
    checked = set()
    for kind, m in (("standard", 1), ("standard", 2), ("mult", 1)):
        for exact in (False, True):
            for shifted in (False, True):
                rng = derive_rng(9090, "witness-depth", field.q, kind, m, exact, shifted)
                n = 2 if kind == "mult" else rng.randrange(1, 3)

                def entry():
                    s = random_series(field, -16, rng)
                    return LaurentSeries(field, -1, list(s.coeffs), NEG_INF) if exact else s

                Y = SeriesMatrix([[entry() for _ in range(n)] for _ in range(m)])
                theta = tuple(entry() for _ in range(m)) if shifted else None
                for T in range(1, 7):
                    if kind == "standard":
                        be = best_error(Y, theta, T, "kernel")
                        got = deg_max(witness_error_degs(Y, theta, be.witness)).scale(m)
                    else:
                        be = best_error_mult(Y, theta, T, "kernel")
                        got = deg_sum(witness_error_degs(Y, theta, be.witness))
                    if be.censored or be.B.value == NEG_INF:
                        continue
                    assert got == be.B, (kind, m, exact, shifted, T)
                    if be.method == "kernel":
                        checked.add((kind, m, exact, shifted))
    assert len(checked) == 12


def test_monotone_in_horizon():
    for i in range(10):
        Y = single(random_series(F3, -40, derive_rng(31, "mono", i)))
        prev = None
        for T in range(1, 10):
            b = best_error(Y, None, T, "kernel").B.value
            if prev is not None:
                assert b <= prev
            prev = b


def test_witness_reverifies_bit_exact():
    for i in range(10):
        Y = single(random_series(F2, -40, derive_rng(99, "rv", i)))
        be = best_error(Y, None, 6, "kernel")
        degs = witness_error_degs(Y, None, be.witness)
        assert max(d.value for d in degs) * Y.m == be.B.value
        assert not be.censored


def test_brute_lex_tiebreak_deterministic():
    Y = single(LaurentSeries.zero(F2))
    # every q has error degree -inf via p = 0, so the tie-break decides:
    # keys list coefficients by (degree, coordinate), compared left to
    # right, and X^3 has the smallest degree-0 coefficient pattern
    be = best_error(Y, None, 4, "brute")
    assert be.witness.q[0] == parse_poly_literal("X^3", F2)
    again = best_error(Y, None, 4, "brute")
    assert again.witness == be.witness


@pytest.mark.parametrize("objective", ["standard", "mult"])
def test_brute_witness_independent_of_offer_order(objective):
    # censored ties, like exact ones, go to the least lexicographic key, so
    # offering the same candidates in reverse gives the same (B, witness)
    from ffdioph.approx import Witness, _BruteBest, _iter_q, _optimal_p, _poly_tiebreak_key

    censored_ties = 0
    for i in range(12):
        rng = derive_rng(77, "offer-order", objective, i)
        field = (F2, F3)[i % 2]
        m, n = rng.randrange(1, 3), rng.randrange(1, 3)
        Y = SeriesMatrix(
            [[random_series(field, rng.choice([-4, -5]), rng) for _ in range(n)] for _ in range(m)]
        )
        theta = tuple(random_series(field, -5, rng) for _ in range(m)) if i % 3 else None
        T = 4
        if objective == "standard":
            D = (T - 1) // n
            caps, budget, key = [D] * n, n * D, lambda degs: deg_max(degs).scale(m)
        else:
            caps, budget, key = [T - 1] * n, T - 1, deg_sum
        offers = []
        for q, rows in _iter_q(Y, theta, caps, budget):
            ps, resid = _optimal_p(rows)
            offers.append((key(r.deg() for r in resid), q, ps))
        results = []
        shuffled = offers[:]
        rng.shuffle(shuffled)
        for order in (offers, offers[::-1], shuffled):
            best = _BruteBest(max(caps))
            for obj, q, ps in order:
                best.offer(obj, q, ps)
            results.append(best.result())
        assert results[0] == results[1] == results[2]
        B = results[0][0]
        if not any(obj.censored for obj, _, _ in offers):
            # eager oracle: the least (value, key) over every offer
            _, q, ps = min(offers, key=lambda o: (o[0].value, _poly_tiebreak_key(o[1], max(caps))))
            assert results[0][1] == Witness(tuple(ps), tuple(q))
        if B.censored and sum(obj == B for obj, _, _ in offers) > 1:
            censored_ties += 1
    assert censored_ties >= 3


def test_inhomogeneous_kernel_nonzero_q_required():
    # theta itself is tiny: q = 0 would "solve" every depth, but is banned
    Y = single(S("X^-1 + X^-6"))
    theta = (S("X^-40", floor=-40),)
    be_k = best_error(Y, theta, 3, "kernel")
    be_b = best_error(Y, theta, 3, "brute")
    assert be_k.B == be_b.B
    assert any(not q.is_zero() for q in be_k.witness.q)


def test_censored_when_floor_too_shallow():
    # rational-looking truncation: the exact hit is below what the floor shows
    Y = single(S("X^-1", floor=-6))
    be = best_error(Y, None, 2, "kernel")
    assert be.censored
    assert be.B.value <= -6


def exact_zero_matrix(which):
    # q = (X, 0) with p = -1 cancels X^-1 exactly and never reads the
    # truncated second column, so the true value is an exact -inf
    second = {
        "random": random_series(F2, -6, derive_rng(1, "x")),
        "zero": LaurentSeries.zero(F2, -3),
    }[which]
    return SeriesMatrix([[S("X^-1"), second]])


@pytest.mark.parametrize("method", ["kernel", "brute"])
@pytest.mark.parametrize("which", ["random", "zero"])
def test_exact_zero_is_never_censored(which, method):
    # a truncated column at its precision cap, or a censored brute candidate,
    # must not censor an exact -inf: nothing lies below it
    Y = exact_zero_matrix(which)
    results = [best_error(Y, None, 3, method)]
    results += [best_error_mult(Y, None, T, method) for T in (2, 3)]
    for be in results:
        assert be.B == DegValue(NEG_INF, False)
        degs = witness_error_degs(Y, None, be.witness)
        assert all(d == DegValue(NEG_INF, False) for d in degs)


def test_exact_zero_entries_count_as_infinite():
    # estimate skips censored entries; exact -inf ones make the proxy infinite
    from ffdioph import estimate, profile

    est = estimate(profile(exact_zero_matrix("random"), None, 8, "multiplicative"))
    assert est.infinite and not est.censored


def test_brute_best_exact_zero_wins_over_censored():
    from ffdioph.approx import _BruteBest

    zero = [Poly.zero(F2)]
    for order in (1, -1):
        best = _BruteBest(1)
        offers = [
            (DegValue.censored_at(-3), [Poly.one(F2)]),
            (DegValue(NEG_INF, False), [Poly.x_power(F2, 1)]),
        ]
        for obj, q in offers[::order]:
            best.offer(obj, q, zero)
        B, w = best.result()
        assert B == DegValue(NEG_INF, False)
        assert w.q == (Poly.x_power(F2, 1),)


def test_poly_tiebreak_key_matches_definition():
    # coefficients ordered by degree, then coordinate index, zero-padded
    from ffdioph.approx import _poly_tiebreak_key
    from ffdioph.generators import random_poly

    rng = derive_rng(9, "tiebreak-key")
    for field in (F2, F3):
        for n in (1, 2, 3):
            for _ in range(20):
                max_deg = rng.randrange(0, 6)
                q = [random_poly(field, rng.randrange(-1, max_deg + 1), rng) for _ in range(n)]
                want = tuple(q[j].coeff(s) for s in range(max_deg + 1) for j in range(n))
                assert _poly_tiebreak_key(q, max_deg) == want


def test_censored_values_bound_the_deep_truth():
    # whatever a shallow floor reports, censored or not, must be an upper
    # bound on (or equal to) the value computed with full precision
    for i in range(12):
        deep_series = random_series(F2, -60, derive_rng(71, "cb", i))
        deep = single(deep_series)
        shallow = single(deep_series.truncate(-12))
        for T in range(1, 12):
            bd = best_error(deep, None, T, "kernel").B
            bs = best_error(shallow, None, T, "kernel").B
            if bs.censored:
                assert bd.value <= bs.value
            else:
                assert bd == bs
    # the multiplicative kernel route, whose capped shapes are censored by
    # the same box rule, on 1xn rows, homogeneous and shifted
    branches = set()
    for n in (1, 2, 3):
        for i in range(6):
            rng = derive_rng(71, "cb-mult", n, i)
            deep_row = [random_series(F2, -60, rng) for _ in range(n)]
            deep_theta = (random_series(F2, -60, rng),) if i % 2 else None
            deep = SeriesMatrix([deep_row])
            shallow = SeriesMatrix([[s.truncate(-12) for s in deep_row]])
            shallow_theta = deep_theta and (deep_theta[0].truncate(-12),)
            for T in range(1, 12):
                bd = best_error_mult(deep, deep_theta, T, "kernel").B
                bs = best_error_mult(shallow, shallow_theta, T, "kernel").B
                assert not bd.censored
                if bs.censored:
                    assert bd.value <= bs.value
                else:
                    assert bd == bs
                branches.add((n, bs.censored))
    assert branches == set(itertools.product((1, 2, 3), (False, True)))
    # the enumeration at floor -4, shallower than its candidates' degrees:
    # a candidate with a row of floor > 0 is skipped and censors the value
    # instead of raising; brute on both objectives (1x1), and the default
    # multiplicative route on 2x1, which enumerates for m = 2
    cases = [
        (1, lambda Y, T: best_error(Y, None, T, "brute")),
        (1, lambda Y, T: best_error_mult(Y, None, T, "brute")),
        (2, lambda Y, T: best_error_mult(Y, None, T)),
    ]
    censored = [0] * len(cases)
    for i in range(4):
        rng = derive_rng(71, "cb-shallow", i)
        col = [random_series(F2, -60, rng) for _ in range(2)]
        for k, (m, solve) in enumerate(cases):
            deep = SeriesMatrix([[s] for s in col[:m]])
            shallow = SeriesMatrix([[s.truncate(-4)] for s in col[:m]])
            for T in range(1, 9):
                bd, bs = solve(deep, T).B, solve(shallow, T).B
                assert not bd.censored
                if bs.censored:
                    assert bd.value <= bs.value
                    censored[k] += 1
                else:
                    assert bd == bs
    assert min(censored) >= 8
    # every judged candidate is exact here (row 2 attains each maximum), and
    # only the skipped q = X^3 reaches the truth, so the skip alone censors
    deep = SeriesMatrix([[S("X^-1 + X^-2 + X^-6")], [S("X^-3")]])
    shallow = SeriesMatrix([[S("X^-1 + X^-2", floor=-2)], [S("X^-3")]])
    assert best_error(deep, None, 4, "brute").B == DegValue.exact(-6)
    assert best_error(shallow, None, 4, "brute").B == DegValue.censored_at(-4)
    # with no candidate judged (an input floor above 0) it still raises
    with pytest.raises(PrecisionExhaustedError):
        best_error(single(S("X^2 + X", floor=1)), None, 2, "brute")


# ---------------------------------------------------------------------------
# multiplicative variant
# ---------------------------------------------------------------------------


def test_mult_equals_standard_when_square_one():
    for i in range(8):
        Y = single(random_series(F2, -40, derive_rng(13, "mult", i)))
        for T in range(1, 7):
            assert (
                best_error_mult(Y, None, T, "brute").B
                == best_error(Y, None, T, "brute").B
            )


def test_mult_admissibility_wider():
    from ffdioph.approx import _iter_q

    # q = (X, 1) has plus-product degree 1: admissible at T = 2
    Y = SeriesMatrix([[S("X^-1"), S("X^-2")]])
    qs = [tuple(p.to_literal() for p in q) for q, _ in _iter_q(Y, None, [1, 1], 1)]
    assert ("X", "1") in qs
    # but the sup-based standard rule needs n*deg = 2 <= T-1, so T >= 3
    assert (2 - 1) // 2 == 0


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
@pytest.mark.parametrize(
    "caps, budget",
    [
        ([3], 3),  # box caps [D]*n, budget n*D
        ([1, 1], 2),
        ([1, 1, 1], 3),
        ([2, 2], 2),  # plus-product caps [b]*n, budget b
        ([3, 3], 3),
        ([2, 2, 2], 2),
        ([0, 3], 2),  # mixed caps
        ([2, 0, 1], 2),
        ([3, 1], 1),
    ],
)
def test_iter_q_matches_product_oracle(field, caps, budget):
    from ffdioph.approx import _iter_q

    rng = derive_rng(5, "iter-q", field.q, len(caps))
    Y = SeriesMatrix([[random_series(field, -6, rng) for _ in caps] for _ in range(2)])
    zeros = [Poly.zero(field)] * 2
    polys = [
        Poly(field, list(cs))
        for cs in itertools.product(range(field.q), repeat=max(caps) + 1)
    ]
    expected = {
        tuple(p.coeffs for p in q)
        for q in itertools.product(polys, repeat=len(caps))
        if any(not p.is_zero() for p in q)
        and all(p.deg <= c for p, c in zip(q, caps))
        and prod_plus_deg(q) <= budget
    }
    for theta in (None, tuple(random_series(field, -5, rng) for _ in range(2))):
        got = []
        for q, rows in _iter_q(Y, theta, caps, budget):
            # rows are summed down the recursion; the oracle multiplies out q
            assert tuple(rows) == matvec_affine(Y, q, zeros, theta)
            got.append(tuple(p.coeffs for p in q))
        assert len(got) == len(set(got))
        assert set(got) == expected


def test_compositions_lexicographic():
    from ffdioph.approx import compositions

    for parts in (1, 2, 3, 4):
        for total in range(6):
            expected = [
                c
                for c in itertools.product(range(total + 1), repeat=parts)
                if sum(c) == total
            ]
            assert list(compositions(total, parts)) == expected


def test_mult_example_1x2():
    Y = SeriesMatrix([[S("X^-1"), S("X^-3")]])
    be = best_error_mult(Y, None, 2)
    # q = (X, 0) clears the row exactly within plus-product budget 1
    assert be.B == DegValue.exact(NEG_INF)


@pytest.mark.parametrize("method", ["kernel", "brute"])
@pytest.mark.parametrize("length", [0, 2])
def test_mult_rejects_a_shift_of_the_wrong_length(monkeypatch, length, method):
    # refused up front with best_error's message: an empty shift used to be
    # read as homogeneous by the kernel and as zero by the enumeration, and
    # the enumeration ignored a second entry
    import ffdioph.approx as approx

    def unreached(*args, **kwargs):
        raise AssertionError("a route ran on a shift of the wrong length")

    for name in ("_kernel_best", "_brute"):
        monkeypatch.setattr(approx, name, unreached)
    rng = derive_rng(24, "mult-length")
    Y = SeriesMatrix([[random_series(F2, -20, rng) for _ in range(2)]])
    theta = tuple(random_series(F2, -20, rng) for _ in range(length))
    with pytest.raises(ValueError, match="shift vector length must match row count"):
        best_error_mult(Y, theta, 4, method)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", [F2, F3, F4], ids=["F2", "F3", "F4"])
def test_mult_kernel_equals_brute(field, n):
    # the shape-by-shape kernel route against the enumeration; the shallow
    # floors make some shape reach its cap, where the kernel censors by its
    # box rule and brute, judging each candidate by its own floor, may
    # certify a lower or an exact value
    T_max = {2: (8, 6, 5), 3: (6, 4, 3), 4: (4, 3, 2)}[field.q][n - 1]
    cases = []
    # floor -(T_max + 1) makes the widest shapes reach their caps on every
    # field, so the kernel's censored branch runs in every parametrization
    for floor in (-8, -12, -20, -40, -(T_max + 1)):
        for shifted in (False, True):
            rng = derive_rng(6021, "mult-oracle", field.q, n, floor, shifted)
            Y = SeriesMatrix([[random_series(field, floor, rng) for _ in range(n)]])
            theta = (random_series(field, floor, rng),) if shifted else None
            cases.append((Y, theta))
    # a different floor per column, so each column's cap has its own bound
    rng = derive_rng(6021, "mult-oracle-mixed", field.q, n)
    Y = SeriesMatrix([[random_series(field, f, rng) for f in (-8, -40, -12)[:n]]])
    cases.append((Y, (random_series(field, -40, rng),)))
    # exact inputs, as in test_mult_example_1x2: an exact hit at T = 2
    exact = ["X^-1", "X^-3", "X^-2 + X^-5"][:n]
    cases.append((SeriesMatrix([[S(text, field) for text in exact]]), None))
    branches = set()
    for Y, theta in cases:
        for T in range(1, T_max + 1):
            k = best_error_mult(Y, theta, T, "kernel")
            b = best_error_mult(Y, theta, T, "brute")
            assert k.method == "kernel"
            assert prod_plus_deg(k.witness.q) <= T - 1
            got = deg_sum(witness_error_degs(Y, theta, k.witness))
            if k.censored:
                assert b.B.value <= k.B.value
                assert got.value == k.B.value
            else:
                assert (k.B.value, k.censored) == (b.B.value, b.censored)
                assert got == k.B
            branches.add(k.censored)
    assert branches == {False, True}


def test_mult_kernel_equals_standard_kernel_1x1():
    # a 1x1 row has one shape, the standard box, so the two kernel routes
    # decide it alike at every floor; the first input's floor is shallower
    # than its degree bound at T = 6, where the kernel censors and brute raises
    cases = [(single(random_series(F2, -4, derive_rng(1, "pe", 0))), None, 6)]
    for field in (F2, F3):
        for floor in (-2, -4, -8, -40):
            for shifted in (False, True):
                rng = derive_rng(6022, "mult-1x1", field.q, floor, shifted)
                theta = (random_series(field, floor, rng),) if shifted else None
                cases.append((single(random_series(field, floor, rng)), theta, 8))
    cases.append((single(S("X^-1 + X^-3")), None, 4))  # exact input: a hit at T = 2
    branches = set()
    for Y, theta, T_max in cases:
        for T in range(1, T_max + 1):
            mult = best_error_mult(Y, theta, T, "kernel")
            # best_error also carries the homogeneous sibling, which mult does not
            assert mult == best_error(Y, theta, T, "kernel").replace(homogeneous=None)
            branches.add((mult.censored, mult.B.value == NEG_INF))
    assert branches == {(False, False), (True, False), (False, True)}


def test_mult_kernel_never_enumerates(monkeypatch):
    # two equal columns: q = (1, 1) cancels exactly, so every shape's scan
    # reaches its cap from T = 1 on; the kernel decides each shape itself,
    # with one scan per shape (465 shapes to T = 30) and no enumeration,
    # which would take more than 2^30 candidates at T = 30
    from ffdioph import approx
    from ffdioph.exponents import profile

    def no_brute(*args):
        raise AssertionError("the multiplicative kernel route enumerated")

    scan, calls = approx._deepest_feasible_depth, []

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(approx, "_brute", no_brute)
    monkeypatch.setattr(approx, "_deepest_feasible_depth", counted)
    s = random_series(F2, -60, derive_rng(5, "m13", 0))
    prof = profile(SeriesMatrix([[s, s]]), None, 30, "multiplicative")
    assert len(calls) <= 465
    assert all(e.B == DegValue.censored_at(-61) for e in prof.entries)


def test_mult_dominated_by_standard():
    for i in range(6):
        Y = SeriesMatrix(
            [[random_series(F2, -40, derive_rng(17, "dom", i, j)) for j in range(2)]]
        )
        for T in range(1, 7):
            bm = best_error_mult(Y, None, T, "brute").B.value
            bs = best_error(Y, None, T, "brute").B.value
            assert bm <= bs
