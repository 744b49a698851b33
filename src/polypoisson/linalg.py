"""Dense exact linear algebra over the rationals.

Matrices are plain lists of lists of ``fractions.Fraction``.  Everything here
is exact; there is no floating point and no pivot-size heuristics beyond
picking the first nonzero pivot.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings like '-3/5', or Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


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


def mat_copy(a):
    return [row[:] for row in a]


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


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def kron(a, b):
    """Kronecker product; index pair (i,k) -> i*len(b)+k."""
    nb = len(b)
    mb = len(b[0])
    out = zeros(len(a) * nb, len(a[0]) * mb)
    for i, row in enumerate(a):
        for j, c in enumerate(row):
            if not c:
                continue
            for k in range(nb):
                for l in range(mb):
                    if b[k][l]:
                        out[i * nb + k][j * mb + l] = c * b[k][l]
    return out


def max_abs(a) -> Fraction:
    m = ZERO
    for row in a:
        for x in row:
            if x < 0:
                x = -x
            if x > m:
                m = x
    return m


def det(a) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    n = len(a)
    a = mat_copy(a)
    sign = ONE
    d = ONE
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return ZERO
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        d *= a[k][k]
        inv = ONE / a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] * inv
            if f:
                for c in range(k, n):
                    a[r][c] -= f * a[k][c]
    return sign * d


def rref(a):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    a = mat_copy(a)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ONE / a[r][c]
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
    for row in red:
        if not any(row[:cols]) and any(row[cols:]):
            return None
    x = zeros(cols, width)
    for r, c in enumerate(pivots):
        if c >= cols:
            return None
        for j in range(width):
            x[c][j] = red[r][cols + j]
    return [row[0] for row in x] if vector else x


def nullspace(a):
    """Basis (list of vectors) of the right nullspace of a."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def inverse(a):
    """Exact inverse; returns None when singular."""
    n = len(a)
    sol = solve(a, identity(n))
    if sol is None:
        return None
    if max_abs(mat_sub(mat_mul(a, sol), identity(n))):
        return None
    return sol


def dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v) if x and y), ZERO)


def pairings(F, A, G):
    """The chain-rule table [[f^T A g for g in G] for f in F].

    F and G hold sparse covectors that map indices to coefficients, as
    gradients (``Dual.grad``) do; the entries of A may be Fractions or Duals,
    and zero entries are skipped.  One covector f^T A is built per f, over
    only the columns that some g reads.  An entry that meets no nonzero
    product is the Fraction 0.
    """
    cols = sorted({j for g in G for j in g})
    table = []
    for f in F:
        u = dict.fromkeys(cols, ZERO)
        for i, ci in f.items():
            row = A[i]
            for j in cols:
                x = row[j]
                if x:
                    u[j] += ci * x
        table.append([sum((u[j] * c for j, c in g.items() if u[j]), ZERO) for g in G])
    return table
