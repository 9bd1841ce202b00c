import itertools

import pytest

from ffdioph import Fq
from ffdioph.linalg import Echelon, nullspace, solve_affine


def matvec_mod(field, rows, x):
    """A x over F_q."""
    out = []
    for row in rows:
        acc = 0
        for c, xi in zip(row, x):
            if c and xi:
                acc = field.add(acc, field.mul(c, xi))
        out.append(acc)
    return out


def brute_nullspace(field, rows, ncols):
    sols = []
    for vec in itertools.product(field.elements(), repeat=ncols):
        if any(vec) and all(v == 0 for v in matvec_mod(field, rows, list(vec))):
            sols.append(list(vec))
    return sols


def reordered(rng, rows, rhs):
    """(rows, rhs) shuffled, and again with some equations repeated."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    repeats = order + [rng.randrange(len(rows)) for _ in range(len(rows))]
    return [
        ([rows[i] for i in idx], [rhs[i] for i in idx]) for idx in (order, repeats)
    ]


@pytest.mark.parametrize("field", [Fq(2), Fq(3), Fq(2, 2), Fq(3, 2)])
def test_nullspace_matches_enumeration(field):
    import random

    rng = random.Random(f"linalg:{field.q}")
    shuffler = random.Random(f"reorder:{field.q}")
    for _ in range(25):
        nrows = rng.randrange(0, 4)
        ncols = rng.randrange(1, 5)
        rows = [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(field, rows, ncols)
        # the reduced form of a row space is unique, so row order and
        # repeated rows do not change the canonical basis
        for rows2, _ in reordered(shuffler, rows, [0] * nrows):
            assert nullspace(field, rows2, ncols) == basis
        for vec in basis:
            assert any(vec)
            assert all(v == 0 for v in matvec_mod(field, rows, vec))
        # the basis spans: brute solutions count must be q^dim - 1 nonzero
        brute = brute_nullspace(field, rows, ncols)
        assert len(brute) == field.q ** len(basis) - 1


@pytest.mark.parametrize("field", [Fq(2), Fq(3), Fq(2, 2), Fq(3, 2)])
def test_solve_affine_matches_enumeration(field):
    import random

    rng = random.Random(f"affine:{field.q}")
    shuffler = random.Random(f"reorder:{field.q}")
    for _ in range(40):
        nrows = rng.randrange(1, 4)
        ncols = rng.randrange(1, 4)
        rows = [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(nrows)]
        rhs = [rng.randrange(field.q) for _ in range(nrows)]
        x, basis = solve_affine(field, rows, rhs, ncols)
        assert basis == nullspace(field, rows, ncols)
        for rows2, rhs2 in reordered(shuffler, rows, rhs):
            assert solve_affine(field, rows2, rhs2, ncols) == (x, basis)
        brute = [
            list(v)
            for v in itertools.product(field.elements(), repeat=ncols)
            if matvec_mod(field, rows, list(v)) == rhs
        ]
        if x is None:
            assert not brute
        else:
            assert matvec_mod(field, rows, x) == rhs
            assert len(brute) == field.q ** len(basis)


def test_nullspace_deterministic():
    F = Fq(2)
    rows = [[1, 1, 0], [0, 0, 0]]
    assert nullspace(F, rows, 3) == nullspace(F, rows, 3) == [[1, 1, 0], [0, 0, 1]]


def test_gf2_packed_rows_equal_list_rows():
    # GF(2) rows inserted as ints (bit j = column j) and as lists give the
    # same echelon form after every insert, and the same solution and basis
    import random

    F = Fq(2)
    rng = random.Random("gf2-packed-rows")
    seen = set()
    for _ in range(300):
        ncols = rng.randrange(1, 9)
        density = rng.choice([0.2, 0.5, 0.8])
        shifted = rng.random() < 0.5
        a, b = Echelon(F, ncols), Echelon(F, ncols)
        for _ in range(rng.randrange(0, 12)):
            row = [int(rng.random() < density) for _ in range(ncols)]
            rhs = rng.randrange(2) if shifted else 0
            a.insert(row, rhs)
            b.insert(sum(c << j for j, c in enumerate(row)), rhs)
            assert a.pivots == b.pivots
            assert a.has_nonzero_solution() == b.has_nonzero_solution()
            seen.add(("zero row", rhs) if not any(row) else ("row", rhs))
        assert a.solution() == b.solution()
        assert a.basis() == b.basis()
        seen.add("inconsistent" if a.solution() is None else "consistent")
    assert seen == {
        ("zero row", 0), ("zero row", 1), ("row", 0), ("row", 1),
        "inconsistent", "consistent",
    }


def test_gf2_reduced_rows_give_the_raw_rows_form():
    # inserting the pivot rows of a GF(2) echelon form into a fresh one (the
    # scan's pivot rows going to nullspace and solve_affine) skips every
    # back-substitution sweep, and gives the same form, solution and basis
    # as the raw rows, also in another order
    import random

    class Sweeps(dict):
        """A pivots dict that counts the sweeps over its rows."""

        count = 0

        def items(self):
            self.count += 1
            return super().items()

    F = Fq(2)
    rng = random.Random("gf2-reduced-rows")
    for _ in range(200):
        ncols = rng.randrange(1, 40)
        density = rng.choice([0.1, 0.5, 0.9])
        shifted = rng.random() < 0.5
        eqs = [
            (sum(int(rng.random() < density) << j for j in range(ncols)),
             rng.randrange(2) if shifted else 0)
            for _ in range(rng.randrange(0, ncols + 5))
        ]
        raw = Echelon(F, ncols)
        for row, b in eqs:
            raw.insert(row, b)
        shuffled = Echelon(F, ncols)
        for row, b in rng.sample(eqs, len(eqs)):
            shuffled.insert(row, b)
        reduced = Echelon(F, ncols)
        reduced.pivots = Sweeps()
        for r in raw.pivots.values():
            reduced.insert(r)
        assert reduced.pivots.count == 0
        for ech in (shuffled, reduced):
            assert ech.pivots == raw.pivots
            assert ech.basis() == raw.basis()
            assert ech.solution() == raw.solution()


def test_carried_rhs_adds_to_b():
    # b is added to a right-hand side the row already carries at column ncols
    assert solve_affine(Fq(3), [[1, 0, 0]], [1], 2)[0] == [1, 0]
    assert solve_affine(Fq(2), [0b101], [1], 2)[0] == [0, 0]  # 1 + 1 = 0


@pytest.mark.parametrize("field", [Fq(2), Fq(3), Fq(2, 2)], ids=["F2", "F3", "F4"])
def test_split_rhs_equals_whole_rhs(field):
    # each row's right-hand side c split as c1 at column ncols plus c2 = c - c1
    # in b gives the solution and basis of the whole c in either place; on
    # GF(2) also with the row packed into an int
    import random

    rng = random.Random(f"split-rhs:{field.q}")
    split_both = 0
    for _ in range(60):
        ncols = rng.randrange(1, 5)
        eqs = []
        for _ in range(rng.randrange(1, 6)):
            row = [rng.randrange(field.q) for _ in range(ncols)]
            c, c1 = rng.randrange(field.q), rng.randrange(field.q)
            eqs.append((row, c, c1, field.sub(c, c1)))
        variants = [
            [(row, c) for row, c, _, _ in eqs],
            [(row + [c], 0) for row, c, _, _ in eqs],
            [(row + [c1], c2) for row, _, c1, c2 in eqs],
        ]
        if field.is_gf2():
            variants.append(
                [(sum(v << j for j, v in enumerate(row + [c1])), c2) for row, _, c1, c2 in eqs]
            )
        results = []
        for variant in variants:
            ech = Echelon(field, ncols)
            for row, b in variant:
                ech.insert(row, b)
            results.append((ech.solution(), ech.basis()))
        assert all(r == results[0] for r in results)
        split_both += any(c1 and c2 for _, _, c1, c2 in eqs)
    assert split_both > 20


@pytest.mark.parametrize("field", [Fq(2), Fq(3), Fq(2, 2), Fq(3, 2)], ids=["F2", "F3", "F4", "F9"])
def test_pivot_snapshot_survives_later_inserts(field):
    # pivots.copy() taken between inserts is the reduced form of the rows so
    # far, untouched by later inserts (copy-on-write): its rows, fed to a
    # fresh Echelon split into (row, b) or whole, give the solution and basis
    # of the earlier rows alone
    import random

    rng = random.Random(f"snapshot:{field.q}")
    reduced_after_snapshot = 0
    for _ in range(60):
        ncols = rng.randrange(1, 7)
        shifted = rng.random() < 0.5
        eqs = [
            ([rng.randrange(field.q) for _ in range(ncols)],
             rng.randrange(field.q) if shifted else 0)
            for _ in range(rng.randrange(1, 10))
        ]
        cut = rng.randrange(len(eqs) + 1)
        ech = Echelon(field, ncols)
        for row, b in eqs[:cut]:
            ech.insert(row, b)
        snap = ech.pivots.copy()
        frozen = {pc: r if isinstance(r, int) else list(r) for pc, r in snap.items()}
        for row, b in eqs[cut:]:
            ech.insert(row, b)
        reduced_after_snapshot += any(ech.pivots.get(pc) != r for pc, r in frozen.items())

        earlier = Echelon(field, ncols)
        for row, b in eqs[:cut]:
            earlier.insert(row, b)
        again = Echelon(field, ncols)
        for r in snap.values():
            if isinstance(r, int):
                again.insert(r & (1 << ncols) - 1, r >> ncols)
            else:
                again.insert(r[:ncols], r[ncols])
        assert again.pivots == frozen
        assert again.solution() == earlier.solution()
        assert again.basis() == earlier.basis()
        # the same rows inserted whole, right-hand side at column ncols
        whole = Echelon(field, ncols)
        for r in snap.values():
            whole.insert(r)
        assert whole.pivots == frozen
    # later inserts did reduce rows the snapshot holds
    assert reduced_after_snapshot >= 10


def _mod_p_ops(p):
    return (lambda a, b: (a - b) % p, lambda a, b: a * b % p, lambda a: pow(a, p - 2, p))


def _gf2_poly_ops(modulus_bits, d):
    """F_2[X]/(modulus) on ints with bit i = coefficient of X^i."""

    def mul(a, b):
        prod = 0
        while b:
            if b & 1:
                prod ^= a
            b >>= 1
            a <<= 1
            if a >> d & 1:
                a ^= modulus_bits
        return prod

    def inv(a):
        result, e = 1, 2**d - 2
        while e:
            if e & 1:
                result = mul(result, a)
            a, e = mul(a, a), e >> 1
        return result

    return (lambda a, b: a ^ b, mul, inv)


def _rank(rows, ops):
    """Rank by plain Gauss-Jordan elimination with the given (sub, mul, inv)."""
    sub, mul, inv = ops
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        k = inv(rows[rank][col])
        rows[rank] = [mul(k, c) for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize(
    "field, ops",
    [
        (Fq(131), _mod_p_ops(131)),
        (Fq(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)), _gf2_poly_ops(0b100011011, 8)),
    ],
    ids=["F131", "F256"],
)
def test_elimination_above_table_limit(field, ops):
    # fields above TABLE_LIMIT run the row operations' digit loops; rows are
    # built as combinations of a few random ones, so most systems are rank
    # deficient, and half the right-hand sides are A x0 (consistent)
    import random

    from ffdioph.field import TABLE_LIMIT

    assert field.q > TABLE_LIMIT
    rng = random.Random(f"big-field:{field.q}")
    deficient = inconsistent = 0
    for _ in range(30):
        ncols = rng.randrange(1, 7)
        gens = [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(rng.randrange(1, 5))]
        rows = []
        for _ in range(rng.randrange(1, 7)):
            row = [0] * ncols
            for g in gens:
                k = rng.randrange(field.q)
                row = [field.add(a, field.mul(k, c)) for a, c in zip(row, g)]
            rows.append(row)
        if rng.random() < 0.5:
            x0 = [rng.randrange(field.q) for _ in range(ncols)]
            rhs = matvec_mod(field, rows, x0)
        else:
            rhs = [rng.randrange(field.q) for _ in rows]
        basis = nullspace(field, rows, ncols)
        x, affine_basis = solve_affine(field, rows, rhs, ncols)
        assert affine_basis == basis
        for vec in basis:
            assert any(vec) and matvec_mod(field, rows, vec) == [0] * len(rows)
        # the rank comes from an elimination written here, on the test's own
        # field arithmetic: mod 131, or bit polynomials mod X^8 + X^4 + X^3 + X + 1
        rank = _rank(rows, ops)
        assert len(basis) == ncols - rank
        augmented = _rank([row + [b] for row, b in zip(rows, rhs)], ops)
        assert (x is None) == (augmented > rank)
        deficient += rank < min(len(rows), ncols)
        if x is None:
            inconsistent += 1
        else:
            assert matvec_mod(field, rows, x) == rhs
    assert inconsistent > 0 and deficient > 0
