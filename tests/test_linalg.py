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
