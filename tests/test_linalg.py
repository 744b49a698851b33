from fractions import Fraction
from math import lcm
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polypoisson import linalg
from polypoisson.linalg import ZERO, det, rref, solve
from test_lattice_ops import nullspace
from test_multipoly import Dual, laplace_det

F = Fraction


def adjugate(a):
    """adj(a) = det(a) a^-1, or the signed (n-1)-minors when a is singular.

    Test-only wrapper around ``linalg._int_adjugate`` on the scaled int
    matrix m = d a, whose adjugate is d^(n-1) adj(a).
    """
    m, d = linalg._scaled(a)
    _, adj = linalg._int_adjugate(m)
    s = d ** (len(m) - 1) if m else 1
    return [[Fraction(x, s) for x in row] for row in adj]


def fraction_pairings(F_, A, G, den=1):
    """The chain-rule table [[f^T A g / den for g in G] for f in F_], one Fraction per entry.

    F_ and G hold int covectors (c, d) standing for c / d and A is a matrix
    of ints over den; each entry is acc / (df den dg), acc the int of
    ``linalg._int_pairings``.
    """
    rows = linalg._int_pairings(F_, A, G)
    return [[F(a, df * den * dg) for a, (_, dg) in zip(row, G)] for row, (_, df) in zip(rows, F_)]


def int_pairings(F_, A, G):
    """``fraction_pairings`` of Fraction covectors against a Fraction matrix.

    The covectors are scaled to ints over their own denominators and A to
    ints over one denominator, the shapes the package pairs in.
    """

    def scaled(f):
        d = lcm(*(c.denominator for c in f.values()))
        return {i: int(c * d) for i, c in f.items()}, d

    ints, den = linalg._scaled(A)
    return fraction_pairings([scaled(f) for f in F_], ints, [scaled(g) for g in G], den)


def reference_pairings(F_, A, G):
    """Test-only chain-rule table over Fractions or Duals, one covector f^T A per f."""
    cols = sorted({j for g in G for j in g})
    table = []
    for f in F_:
        u = dict.fromkeys(cols, ZERO)
        for i, ci in f.items():
            row = A[i]
            for j in cols:
                x = row[j]
                if x:
                    u[j] += ci * x
        table.append([sum((u[j] * c for j, c in g.items() if u[j]), ZERO) for g in G])
    return table


def dense_pairing(f: dict, A, g: dict):
    """Reference f^T A g = sum_ij f_i A_ij g_j over every index pair."""
    acc = F(0)
    for i in range(len(A)):
        for j in range(len(A[0])):
            acc = acc + f.get(i, F(0)) * A[i][j] * g.get(j, F(0))
    return acc


def random_covector(rng: Random, D: int, cols=None, dens=(1, 2, 3, 4)) -> dict:
    cols = list(range(D) if cols is None else cols)
    support = rng.sample(cols, rng.randint(1, min(3, len(cols))))
    return {j: F(rng.randint(-5, 5) or 1, rng.choice(dens)) for j in support}


def test_pairings_matches_dense_reference():
    rng = Random(31)
    D = 7
    frac = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0) for _ in range(D)] for _ in range(D)]
    dual = [
        [Dual(x, {v: F(rng.choice((-2, -1, 1, 2))) for v in rng.sample(range(4), 2) if rng.random() < 0.7}) for x in row]
        for row in frac
    ]
    # fraction_pairings takes int matrices only; the Dual case checks the
    # reference that reference_jacobi pairs Dual-valued Pi with
    for A, pair in ((frac, int_pairings), (dual, reference_pairings)):
        F_ = [random_covector(rng, D) for _ in range(4)] + [{}]
        cases = [
            [random_covector(rng, D) for _ in range(5)],
            [],
            [{}, random_covector(rng, D)],
            # supports that cover only columns 1 and 4
            [random_covector(rng, D, cols=(1, 4)) for _ in range(3)],
        ]
        for G in cases:
            table = pair(F_, A, G)
            assert len(table) == len(F_)
            for f, row in zip(F_, table):
                assert len(row) == len(G)
                for g, got in zip(G, row):
                    want = dense_pairing(f, A, g)
                    if isinstance(want, Dual):
                        got = Dual.const(0) + got
                        assert (got.val, got.grad) == (want.val, want.grad)
                    else:
                        assert got == want
    # an asymmetric matrix tells f^T A g from f^T A^T g
    A = [[0, 1], [0, 0]]
    assert fraction_pairings([({0: 1}, 1)], A, [({1: 1}, 1)]) == [[F(1)]]
    assert fraction_pairings([({1: 1}, 1)], A, [({0: 1}, 1)]) == [[F(0)]]
    # the int matrix's denominator and each covector's divide the entry once
    assert fraction_pairings([({0: 3}, 2)], A, [({1: 5}, 7)], 9) == [[F(15, 126)]]


def test_pairings_equals_reference_exactly():
    rng = Random(41)
    D = 8
    # denominators 4, 6, 9, 10, 35: none divides another, so each scaling
    # needs the lcm of its row's or covector's denominators
    dens = (4, 6, 9, 10, 35)
    A = [[F(rng.randint(-7, 7), rng.choice(dens)) if rng.random() < 0.7 else F(0) for _ in range(D)] for _ in range(D)]
    A[3] = [F(0)] * D  # an all-zero row
    for _ in range(20):
        F_ = [random_covector(rng, D, dens=dens) for _ in range(3)] + [{}, {3: F(5, 6)}]
        for G in ([random_covector(rng, D, dens=dens) for _ in range(4)], [], [{}], [{3: F(1, 9)}, {0: F(-2, 35), 7: F(3, 4)}]):
            got = int_pairings(F_, A, G)
            assert got == reference_pairings(F_, A, G)
            assert all(type(x) is Fraction for row in got for x in row)
    # the f over the zero row and the empty f give exact zeros
    got = int_pairings([{}, {3: F(5, 6)}], A, [{0: F(1, 4)}, {5: F(2, 9)}])
    assert got == [[0, 0], [0, 0]]
    assert int_pairings([], A, [{0: F(1)}]) == []


# int covectors (c, d) for c / d: empty ones and zero coefficients included
int_covectors = st.tuples(st.dictionaries(st.integers(0, 5), st.integers(-4, 4), max_size=3), st.integers(1, 6))


@given(
    A=st.lists(st.lists(st.integers(-9, 9), min_size=6, max_size=6), min_size=6, max_size=6),
    F_=st.lists(int_covectors, max_size=4),
    G=st.lists(int_covectors, max_size=4),
    den=st.integers(1, 9),
)
@example(A=[[1] * 6] * 6, F_=[({}, 1), ({2: 0}, 3)], G=[({0: 0, 1: 2}, 5)], den=2)
def test_int_pairings_matches_reference(A, F_, G, den):
    """Each int entry acc of _int_pairings stands for f^T (A / den) g = acc / (df den dg)."""
    got = linalg._int_pairings(F_, A, G)
    assert all(type(acc) is int for row in got for acc in row)
    frac = [[F(x, den) for x in row] for row in A]
    want = reference_pairings(
        [{i: F(c, d) for i, c in f.items()} for f, d in F_], frac, [{j: F(c, d) for j, c in g.items()} for g, d in G]
    )
    assert [[F(acc, df * den * dg) for acc, (_, dg) in zip(row, G)] for row, (_, df) in zip(got, F_)] == want
    assert fraction_pairings(F_, A, G, den) == want


def reference_det(a) -> Fraction:
    """Test-only determinant by Gaussian elimination over Fractions."""
    n = len(a)
    a = [row[:] for row in a]
    d = F(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return F(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        d *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return d


def reference_adjugate(a):
    """adj(a)_ij = (-1)^(i+j) det(a without row j and column i), by reference_det."""
    n = len(a)
    return [
        [(-1) ** (i + j) * reference_det([r[:i] + r[i + 1 :] for k, r in enumerate(a) if k != j]) for j in range(n)]
        for i in range(n)
    ]


def laplace_value(a):
    """det a by Laplace expansion (test_multipoly.laplace_det), 1 for n = 0."""
    return laplace_det([[Dual.const(x) for x in row] for row in a]).val if a else 1


def _assert_matches_reference(a):
    before = [row[:] for row in a]
    assert det(a) == reference_det(a) == laplace_value(a)
    adj = adjugate(a)
    assert adj == reference_adjugate(a)
    assert all(type(x) is Fraction for row in adj for x in row)
    assert a == before
    return adj


_entry = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(0, 6))
    a = [[draw(_entry) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # a row that is a combination of two others: rank <= n-1
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        s, t = draw(_entry), draw(_entry)
        a[i] = [s * x + t * y for x, y in zip(a[j], a[k])]
    return a


@given(rational_matrices())
def test_det_and_adjugate_match_fraction_elimination(a):
    _assert_matches_reference(a)


@st.composite
def int_square_matrices(draw):
    """Square int matrices, n 0-6: a zero at (0, 0) makes the first pivot a
    row swap, the last one or two rows replaced by combinations of the rows
    before them make the rank at most n - 1 or n - 2, and the rows may then
    be shuffled."""
    n = draw(st.integers(0, 6))
    m = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        m[0][0] = 0
    free = n - draw(st.integers(0, min(2, max(n - 1, 0))))
    for i in range(free, n):
        cs = [draw(st.integers(-3, 3)) for _ in range(free)]
        m[i] = [sum(c * row[j] for c, row in zip(cs, m)) for j in range(n)]
    if draw(st.booleans()):
        m = [m[i] for i in draw(st.permutations(range(n)))]
    return m


@given(int_square_matrices())
@example([[0, 1], [1, 0]])  # a row swap: det -1
@example([[0, 2, 1], [3, 1, 0], [1, 1, 1]])  # a swap at step 0, full rank
@example([[1, 2, 3], [4, 5, 6], [7, 8, 9]])  # rank n - 1
@example([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])  # rank n - 2
@example([])
def test_int_det_equals_laplace(m):
    assert linalg._int_det([row[:] for row in m]) == laplace_value(m)


Z = F(0)


@pytest.mark.parametrize(
    "a",
    [
        # zero pivot at step 0
        [[Z, F(2), F(1)], [F(3), F(1, 2), Z], [F(1), F(1), F(1, 3)]],
        # zero pivot mid-elimination: the leading 2x2 minor vanishes
        [[F(1), F(2), F(3), F(1)], [F(2), F(4), F(1), Z], [F(1, 2), F(1), F(5), F(2)], [F(3), F(1), Z, F(7, 3)]],
        # zero pivot at step n-2, invertible: rows 1 and 2 swap
        [[F(1), F(1), F(1)], [F(1), F(1), F(2)], [F(1), F(2), F(1)]],
        # zero pivot in the last column, singular of rank n-1
        [[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]],
        # a zero last column: singular of rank n-1
        [[F(1, 2), F(1), Z], [F(3), F(1, 3), Z], [F(2), F(5), Z]],
        # rank n-2: every (n-1)-minor vanishes
        [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(-1, 2), F(-1), F(-3, 2)]],
        [[Z]],
        [[F(-3, 7)]],
        [],
    ],
)
def test_det_and_adjugate_forced_zero_pivots(a):
    adj = _assert_matches_reference(a)
    n = len(a)
    d = det(a)
    if d:
        # a adj(a) = det(a) I
        assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*adj)] for row in a] == [
            [d if i == j else 0 for j in range(n)] for i in range(n)
        ]


def reference_rref(a):
    """Test-only reduced row echelon form by Gauss-Jordan over Fractions."""
    a = [row[:] for row in a]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


@st.composite
def shaped_systems(draw):
    """(a, x0, b): an r x c matrix, a vector x0 and a vector b, r and c in 1..7.

    Some matrices get a row that combines two others (rank-deficient) and
    some a zero column; wide, tall, square and 1 x n shapes all occur.
    """
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    a = [[draw(_entry) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        s, t = draw(_entry), draw(_entry)
        a[i] = [s * x + t * y for x, y in zip(a[j], a[k])]
    if draw(st.booleans()):
        z = draw(st.integers(0, cols - 1))
        for row in a:
            row[z] = F(0)
    x0 = [draw(_entry) for _ in range(cols)]
    b = [draw(_entry) for _ in range(rows)]
    return a, x0, b


def _mat_vec(a, x):
    return [sum((c * v for c, v in zip(row, x)), F(0)) for row in a]


def _check_solution(a, b, x, pivots):
    """x solves a x = b exactly and is zero in the free coordinates."""
    vector = not isinstance(b[0], list)
    xs = [x] if vector else [list(col) for col in zip(*x)]
    bs = [b] if vector else [list(col) for col in zip(*b)]
    for xc, bc in zip(xs, bs):
        assert _mat_vec(a, xc) == bc
        assert all(v == 0 for c, v in enumerate(xc) if c not in pivots)


@given(shaped_systems())
@example(([[F(0), F(0), F(0)]], [F(1), F(2), F(3)], [F(0)]))  # 1 x n, all zero
@example(([[F(1, 2), F(0), F(3, 4), F(-1, 6)]], [F(1), F(0), F(2), F(1)], [F(5)]))  # 1 x n
@example(([[F(0), F(1)], [F(0), F(2)], [F(0), F(3)]], [F(4), F(1)], [F(1), F(0), F(0)]))  # tall, zero column
def test_rref_solve_nullspace_match_fraction_elimination(system):
    a, x0, b = system
    rows, cols = len(a), len(a[0])
    before = [row[:] for row in a]
    red, pivots = rref(a)
    assert (red, pivots) == reference_rref(a)
    assert all(type(x) is Fraction for row in red for x in row)
    assert a == before

    # solve and nullspace over the Fraction elimination are the reference
    consistent = _mat_vec(a, x0)
    wide = [[u, v] for u, v in zip(b, consistent)]
    cases = (consistent, b, wide)
    got = [solve(a, rhs) for rhs in cases] + [nullspace(a)]
    with mock.patch.object(linalg, "rref", reference_rref):
        assert got == [solve(a, rhs) for rhs in cases] + [nullspace(a)]

    # a vector right-hand side a x0 is consistent: its solution is exact,
    # with zeros in the free coordinates
    _check_solution(a, consistent, got[0], pivots)
    # a random one returns None exactly when it is inconsistent
    _, aug_pivots = reference_rref([row + [v] for row, v in zip(a, b)])
    assert (got[1] is None) == (cols in aug_pivots)
    # a matrix right-hand side solves column by column
    assert (got[2] is None) == (got[1] is None)
    if got[2] is not None:
        _check_solution(a, wide, got[2], pivots)
    # the nullspace has dimension cols - rank and is annihilated by a
    assert len(got[3]) == cols - len(pivots)
    assert all(not any(_mat_vec(a, v)) for v in got[3])


def reference_int_rref(m):
    """Eager fraction-free Gauss-Jordan, in place: every other row is updated
    at every pivot step, a row with a zero in the pivot column by pk / prev."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    sign, prev, r = 1, 1, 0
    for c in range(cols):
        if r == rows:
            break
        if not m[r][c]:
            piv = next((i for i in range(r + 1, rows) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        pk, mr = m[r][c], m[r]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                if f:
                    m[i] = [(pk * x - f * y) // prev for x, y in zip(m[i], mr)]
                elif pk != prev:
                    m[i] = [pk * x // prev for x in m[i]]
        pivots.append(c)
        prev = pk
        r += 1
    return pivots, prev, sign


def assert_int_rref_is_eager(m):
    """The lazy elimination returns what the eager one does and leaves m as it does."""
    lazy, eager = [row[:] for row in m], [row[:] for row in m]
    assert linalg._int_rref(lazy) == reference_int_rref(eager)
    assert lazy == eager


def random_int_matrix(rng: Random) -> list:
    """Sparse or dense, rectangular, with zero rows and dependent rows mixed in."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice((0.15, 0.4, 1.0))
    m = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.4:
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        m[rng.randrange(rows)] = [s * x + t * y for x, y in zip(m[0], m[1])]
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [0] * cols
    return m


def test_lazy_int_rref_equals_the_eager_reference():
    rng = Random(97)
    deficient = set()
    for _ in range(1500):
        m = random_int_matrix(rng)
        assert_int_rref_is_eager(m)
        deficient.add(len(reference_int_rref([row[:] for row in m])[0]) < min(len(m), len(m[0])))
    assert deficient == {True, False}  # both full-rank and rank-deficient matrices were met
    for m in ([[0, 0], [0, 0]], [[0, 3, 1], [0, 6, 2], [5, 0, 0]], [[2, 4, 6]], [[1], [2], [3]]):
        assert_int_rref_is_eager(m)


def test_lazy_int_rref_on_the_circulant_systems(monkeypatch):
    # the circulant systems invert eliminates, full-rank and singular,
    # checked as they are built
    from polypoisson.lattice_ops import SingularOperator, invert, shift_kernel

    seen = []
    lazy = linalg._int_rref

    def checked(m):
        seen.append(len(m))
        eager = [row[:] for row in m]
        got = lazy(m)
        assert got == reference_int_rref(eager) and m == eager
        return got

    monkeypatch.setattr(linalg, "_int_rref", checked)
    invert.cache_clear()
    for N in (5, 7, 9, 11, 21):
        invert(shift_kernel({0: 1, 1: 1}, N))
        invert(shift_kernel({0: F(1, 2), 1: 1, 2: F(-1, 3)}, N))
        for j in (1, 2, 3):
            with pytest.raises(SingularOperator):
                invert(shift_kernel({0: 2, j: -1, -j: -1}, N))
    invert.cache_clear()
    # two inversions and three singular ones per N
    assert len(seen) == 5 * (2 + 3)
