"""Dense exact linear algebra over the rationals.

Matrices are plain lists of lists of ``fractions.Fraction``.  Everything here
is exact; there is no floating point and no pivot-size heuristics beyond
picking the first nonzero pivot.  One elimination, ``_int_rref``, runs in
scaled ints with Bareiss's fraction-free updates, in which every division is
exact: ``det`` scales the matrix once to ints over a common denominator and
reads its last pivot (``_int_det``), ``rref`` (under ``solve`` and
``inverse``) scales each row over its own, and ``_int_adjugate`` eliminates
[m | I], which gives ``det_grad``, the one determinant-with-gradient.
``_int_pairings`` contracts int gradients against an int matrix and builds no
Fraction; its callers cross-multiply the ints and build one Fraction per
residual.  The others build Fractions only for their results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints (not bools), strings like '-3/5', or Fractions to Fraction; a zero denominator is a ValueError."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, (int, str)) or isinstance(x, bool):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def rat_str(x: Fraction) -> str:
    """Canonical 'p/q' string (plain 'p' when q == 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def zeros(rows: int, cols: int) -> list[list[Fraction]]:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = rat(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k, "inner dimensions differ"
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for p in range(k):
            c = ai[p]
            if c:
                bp = b[p]
                for j in range(m):
                    if bp[j]:
                        oi[j] += c * bp[j]
    return out


def mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v) if c), ZERO) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def max_abs(a) -> Fraction:
    m = ZERO
    for row in a:
        for x in row:
            if x < 0:
                x = -x
            if x > m:
                m = x
    return m


def _scaled(a):
    """(m, d) with m a matrix of ints and a = m / d, d the lcm of a's denominators.

    A vector v is scaled as the one-row matrix: (ints,), d = _scaled([v]).
    """
    d = lcm(*{x.denominator for row in a for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def _int_rref(m):
    """Fraction-free Gauss-Jordan on an int matrix m, in place: (pivots, p, sign).

    Each step with pivot pk in column c replaces every other row with a
    nonzero f in column c by (pk * row - f * pivot_row) // last[i], last[i]
    the pivot it was last updated at; a row with f = 0 stays as stored, its
    eager form prev / last[i] times it (prev the previous pivot).  Every
    division is exact (Bareiss 1968: the eager entries are minors of m).  The
    pivot row catches up before use and every row at the end; then each pivot
    row holds the last pivot p in its pivot column and zeros in the others,
    so m / p is the reduced row echelon form; sign is that of the row swaps.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots, last = [], [1] * rows
    sign, prev, r = 1, 1, 0
    for c in range(cols):
        if r == rows:
            break
        if not m[r][c]:
            piv = next((i for i in range(r + 1, rows) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            last[r], last[piv] = last[piv], last[r]
            sign = -sign
        if last[r] != prev:
            m[r] = [prev * x // last[r] for x in m[r]]
        pk, mr = m[r][c], m[r]
        for i in range(rows):
            if i != r and (f := m[i][c]):
                d = last[i]
                m[i] = [(pk * x - f * y) // d for x, y in zip(m[i], mr)]
                last[i] = pk
        pivots.append(c)
        last[r] = prev = pk
        r += 1
    if last.count(prev) < rows:
        m[:] = [row if d == prev else [prev * x // d for x in row] for row, d in zip(m, last)]
    return pivots, prev, sign


def _int_det(m) -> int:
    """Determinant of a square int matrix m (overwritten): ``_int_rref`` ends with p = sign det m at full rank."""
    pivots, p, sign = _int_rref(m)
    return sign * p if len(pivots) == len(m) else 0


def _int_adjugate(m):
    """(det m, adj m) for a square int matrix m, fraction-free.

    For invertible m, ``_int_rref`` on [m | I] ends at [p I | p m^-1] with
    p = sign det m, so adj m = sign times the right block.  For singular m
    the adjugate is the signed (n-1)-minors, adj_ij = (-1)^(i+j) det(m
    without row j and column i), each by ``_int_det``; they all vanish when
    rank m <= n-2.
    """
    n = len(m)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    pivots, p, sign = _int_rref(aug)
    if pivots and pivots[-1] >= n:
        return 0, [
            [(-1) ** (i + j) * _int_det([r[:i] + r[i + 1 :] for t, r in enumerate(m) if t != j]) for j in range(n)]
            for i in range(n)
        ]
    return sign * p, [[sign * x for x in row[n:]] for row in aug]


def det(a) -> Fraction:
    """Determinant by ``_int_det`` over ints, after one scaling."""
    m, d = _scaled(a)
    return Fraction(_int_det(m), d ** len(m))


def det_grad(rows, solved=None):
    """(det, g, den) for a square matrix of entries (value, grad, den), grad a dict of ints.

    The values are scaled to an int matrix m = d A, and one fraction-free
    elimination gives det m and adj m (the signed (n-1)-minors when m is
    singular; all zero when rank m <= n-2); a caller that has run it already
    passes ``solved = (d, det m, adj m)``.  The gradient is Jacobi's formula
    d det A = sum_ij adj(A)_ji dA_ij, adj(A) = adj(m) / d^(n-1), summed in
    ints over the entries' gradients scaled to one denominator dg: d det A =
    g / den with den = d^(n-1) dg, g holding its nonzero ints only.
    """
    n = len(rows)
    if solved is None:
        m, d = _scaled([[x for x, _, _ in row] for row in rows])
        solved = (d, *_int_adjugate(m))
    d, value, adj = solved
    dg = lcm(*(den for row in rows for _, _, den in row))
    terms = ((adj[j][i] * (dg // den), grad) for i, row in enumerate(rows) for j, (_, grad, den) in enumerate(row))
    return Fraction(value, d**n), _sparse_sum(terms), d ** (n - 1) * dg


def _sparse_sum(terms) -> dict:
    """sum c g over the pairs (c, g) in terms, g a sparse {index: int}; zeros dropped."""
    acc = {}
    for c, g in terms:
        if c:
            for v, x in g.items():
                acc[v] = acc.get(v, 0) + c * x
    return {v: x for v, x in acc.items() if x}


def rref(a):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns).

    Each row is scaled to ints over the lcm of its own denominators, which
    leaves the rref unchanged; ``_int_rref`` eliminates fraction-free, and
    each entry is one Fraction over the last pivot.
    """
    m = []
    for row in a:
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    pivots, p, _ = _int_rref(m)
    return [[Fraction(x, p) if x else ZERO for x in row] for row in m], pivots


def solve(a, b):
    """Solve a x = b for one consistent solution, else return None.

    ``b`` may be a vector or a matrix of right-hand-side columns; the return
    mirrors its shape.  Under-determined systems return the solution with
    zeros in the free coordinates.
    """
    vector = not isinstance(b[0], list)
    bm = [[x] for x in b] if vector else b
    rows = len(a)
    cols = len(a[0])
    width = len(bm[0])
    aug = [a[i][:] + bm[i][:] for i in range(rows)]
    red, pivots = rref(aug)
    x = zeros(cols, width)
    for r, c in enumerate(pivots):
        if c >= cols:  # a pivot on the right-hand side: inconsistent
            return None
        for j in range(width):
            x[c][j] = red[r][cols + j]
    return [row[0] for row in x] if vector else x


def inverse(a):
    """Exact inverse, the exact solve of a x = I; None when a is singular, as that system is then inconsistent."""
    return solve(a, identity(len(a)))


def _int_pairings(F, A, G) -> list:
    """The chain-rule table of f^T (A / den) g for f in F, g in G: entry (f, g) is the int acc for acc / (df den dg).

    F and G hold int covectors (c, d), c a sparse {index: int} standing for
    c / d; A is a matrix of ints over den, as ``_PiTable.ints`` gives Pi.  The
    rows of A that F reads, cut to the columns that G reads, give one int
    covector f^T A per f.
    """
    cols = sorted({j for g, _ in G for j in g})
    pos = {j: p for p, j in enumerate(cols)}
    block = {i: [A[i][j] for j in cols] for i in {i for f, _ in F for i in f}}
    gs = [[(pos[j], c) for j, c in g.items() if c] for g, _ in G]
    table = []
    for f, _ in F:
        u = [0] * len(cols)
        for i, c in f.items():
            if c:
                u = [x + c * y for x, y in zip(u, block[i])]
        table.append([sum(u[p] * c for p, c in g) for g in gs])
    return table
