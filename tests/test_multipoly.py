from fractions import Fraction
from random import Random

from polypoisson.multipoly import Dual, dual_det

F = Fraction


def laplace_det(rows) -> Dual:
    """Reference determinant with gradient: Laplace expansion over Duals, O(n!)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = Dual.const(0)
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * laplace_det(minor)
        acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


def _nonzero(grad: dict) -> dict:
    return {v: c for v, c in grad.items() if c}


def _random_dual(rng: Random, val=None) -> Dual:
    if val is None:
        val = F(rng.randint(-5, 5), rng.randint(1, 3))
    support = rng.sample(range(8), rng.randint(0, 3))
    return Dual(val, {v: F(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for v in support})


def _assert_matches_laplace(rows) -> Dual:
    got, ref = dual_det(rows), laplace_det(rows)
    assert got.val == ref.val
    assert _nonzero(got.grad) == _nonzero(ref.grad)
    return got


def test_dual_det_matches_laplace_on_random_sparse_matrices():
    rng = Random(31)
    for n in range(1, 6):
        for _ in range(6):
            _assert_matches_laplace([[_random_dual(rng) for _ in range(n)] for _ in range(n)])


def test_dual_det_singular_rank_n_minus_1_has_gradient():
    # row 3 = row 0 + 2 row 1 in value: det = 0 but the adjugate has rank 1
    rng = Random(32)
    n = 4
    vals = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n - 1)]
    vals.append([x + 2 * y for x, y in zip(vals[0], vals[1])])
    rows = [[_random_dual(rng, x) for x in row] for row in vals]
    got = _assert_matches_laplace(rows)
    assert got.val == 0
    assert _nonzero(got.grad)


def test_dual_det_singular_rank_n_minus_2_has_zero_gradient():
    # rows 2 and 3 are multiples of row 0: every (n-1)-minor vanishes
    rng = Random(33)
    n = 4
    vals = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(2)]
    vals.append([3 * x for x in vals[0]])
    vals.append([F(-1, 2) * x for x in vals[0]])
    rows = [[_random_dual(rng, x) for x in row] for row in vals]
    got = _assert_matches_laplace(rows)
    assert got.val == 0
    assert not _nonzero(got.grad)


def test_dual_det_one_by_one():
    rng = Random(34)
    for val in (F(-3, 7), F(0)):
        got = _assert_matches_laplace([[_random_dual(rng, val)]])
        assert got.val == val


def _rank_deficient(rng: Random, n: int, rank: int):
    """An n x n matrix of Duals whose values have the given rank.

    The gradients' denominators 2..7 make the lcm over all entries matter.
    """
    basis = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(rank)]
    vals = basis[:]
    for _ in range(n - rank):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in basis]
        vals.append([sum((c * b[j] for c, b in zip(coeffs, basis)), F(0)) for j in range(n)])
    rng.shuffle(vals)
    return [
        [Dual(x, {v: F(rng.randint(-4, 4) or 1, rng.randint(2, 7)) for v in rng.sample(range(8), 2)}) for x in row]
        for row in vals
    ]


def test_dual_det_rank_deficient_sizes():
    rng = Random(35)
    for n in range(2, 6):
        got = _assert_matches_laplace(_rank_deficient(rng, n, n - 1))
        assert got.val == 0 and _nonzero(got.grad), n
        got = _assert_matches_laplace(_rank_deficient(rng, n, n - 2))
        assert got.val == 0 and not _nonzero(got.grad), n
