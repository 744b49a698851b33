"""The determinant of a matrix of Duals by ``linalg.det_grad``, against Laplace.

``Dual`` is a forward-mode oracle that lives in the tests only; the package
differentiates determinants, the per-site solve for the fields and the
chart quotients in ints (``linalg.det_grad`` and ``exchange_algebra._DualCtx``),
and ``test_exchange_algebra`` checks the polygon gradients against Duals as
well.  The monomial product ``_mono_mul`` is checked against a dict merge.
"""

from fractions import Fraction
from math import lcm
from random import Random

import pytest

from polypoisson.linalg import ONE, ZERO, det_grad, rat
from polypoisson.multipoly import _mono_mul

F = Fraction


class Dual:
    """Value plus sparse exact gradient, for forward-mode differentiation."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad=None):
        self.val = rat(val) if not isinstance(val, Fraction) else val
        self.grad = grad or {}

    @classmethod
    def var(cls, val, v: int) -> "Dual":
        return cls(val, {v: ONE})

    @classmethod
    def const(cls, val) -> "Dual":
        return cls(val, {})

    def __bool__(self):
        return bool(self.val) or bool(self.grad)

    def __add__(self, other):
        if not isinstance(other, Dual):
            return Dual(self.val + rat(other), dict(self.grad))
        g = dict(self.grad)
        for v, d in other.grad.items():
            s = g.get(v, ZERO) + d
            if s:
                g[v] = s
            else:
                g.pop(v, None)
        return Dual(self.val + other.val, g)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, {v: -d for v, d in self.grad.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else Dual.const(-rat(other)))

    def __rsub__(self, other):
        return (-self) + rat(other)

    def __mul__(self, other):
        if not isinstance(other, Dual):
            c = rat(other)
            if not c:
                return Dual.const(0)
            return Dual(self.val * c, {v: d * c for v, d in self.grad.items()})
        g = {}
        if other.val:
            for v, d in self.grad.items():
                g[v] = d * other.val
        if self.val:
            for v, d in other.grad.items():
                s = g.get(v, ZERO) + self.val * d
                if s:
                    g[v] = s
                else:
                    g.pop(v, None)
        return Dual(self.val * other.val, g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Dual):
            return self * (ONE / rat(other))
        return self * other.reciprocal()

    def reciprocal(self) -> "Dual":
        inv = ONE / self.val
        f = -inv * inv
        return Dual(inv, {v: f * d for v, d in self.grad.items()})


def laplace_det(rows) -> Dual:
    """Reference determinant with gradient: Laplace expansion over Duals.

    Expanded along the first row, then along the first row of each minor;
    a minor is fixed by the columns it keeps, so each is expanded once.
    """
    n = len(rows)
    memo = {}

    def minor(cols: tuple) -> Dual:
        row = rows[n - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        if cols not in memo:
            acc = Dual.const(0)
            for j, c in enumerate(cols):
                term = row[c] * minor(cols[:j] + cols[j + 1 :])
                acc = acc + (term if j % 2 == 0 else -term)
            memo[cols] = acc
        return memo[cols]

    return minor(tuple(range(n)))


def _nonzero(grad: dict) -> dict:
    return {v: c for v, c in grad.items() if c}


def _random_dual(rng: Random, val=None) -> Dual:
    if val is None:
        val = F(rng.randint(-5, 5), rng.randint(1, 3))
    support = rng.sample(range(8), rng.randint(0, 3))
    return Dual(val, {v: F(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for v in support})


def as_entry(x: Dual) -> tuple:
    """A Dual as a det_grad entry: (value, int gradient, its denominator)."""
    den = lcm(*(c.denominator for c in x.grad.values()))
    return x.val, {v: c.numerator * (den // c.denominator) for v, c in x.grad.items()}, den


def _assert_matches_laplace(rows) -> Dual:
    value, g, den = det_grad([[as_entry(x) for x in row] for row in rows])
    ref = laplace_det(rows)
    assert type(value) is Fraction and all(type(x) is int for x in g.values())
    assert value == ref.val
    assert {v: F(x, den) for v, x in g.items()} == _nonzero(ref.grad)
    assert all(g.values())
    return ref


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


def reference_mono_mul(m1, m2):
    """The product of two monomials by merging their exponents in a dict."""
    acc = dict(m1)
    for var, e in m2:
        acc[var] = acc.get(var, 0) + e
    return tuple(sorted(acc.items()))


@pytest.mark.parametrize(
    "m1, m2",
    [
        (((0, 1), (2, 3)), ((5, 1), (7, 2))),  # disjoint ranges, m1 first
        (((5, 1), (7, 2)), ((0, 1), (2, 3))),  # disjoint ranges, m2 first
        (((0, 1), (4, 1)), ((2, 1), (6, 2))),  # interleaved variables
        (((1, 2), (3, 1)), ((3, 2), (5, 1))),  # a shared variable: exponents add
        (((1, 1), (3, 1)), ((3, 1), (4, 1))),  # ranges touch at one variable
        (((3, 1),), ((3, 2),)),  # one shared variable only
        ((), ((2, 1),)),
        (((2, 1),), ()),
        ((), ()),
    ],
)
def test_mono_mul_equals_dict_merge(m1, m2):
    assert _mono_mul(m1, m2) == reference_mono_mul(m1, m2)
    assert _mono_mul(m2, m1) == reference_mono_mul(m1, m2)
