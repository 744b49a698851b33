from fractions import Fraction
from random import Random

from polypoisson.linalg import pairings
from polypoisson.multipoly import Dual

F = Fraction


def dense_pairing(f: dict, A, g: dict):
    """Reference f^T A g = sum_ij f_i A_ij g_j over every index pair."""
    acc = F(0)
    for i in range(len(A)):
        for j in range(len(A[0])):
            acc = acc + f.get(i, F(0)) * A[i][j] * g.get(j, F(0))
    return acc


def random_covector(rng: Random, D: int, cols=None) -> dict:
    cols = list(range(D) if cols is None else cols)
    support = rng.sample(cols, rng.randint(1, min(3, len(cols))))
    return {j: F(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for j in support}


def test_pairings_matches_dense_reference():
    rng = Random(31)
    D = 7
    frac = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0) for _ in range(D)] for _ in range(D)]
    dual = [
        [Dual(x, {v: F(rng.choice((-2, -1, 1, 2))) for v in rng.sample(range(4), 2) if rng.random() < 0.7}) for x in row]
        for row in frac
    ]
    for A in (frac, dual):
        F_ = [random_covector(rng, D) for _ in range(4)] + [{}]
        cases = [
            [random_covector(rng, D) for _ in range(5)],
            [],
            [{}, random_covector(rng, D)],
            # supports that cover only columns 1 and 4
            [random_covector(rng, D, cols=(1, 4)) for _ in range(3)],
        ]
        for G in cases:
            table = pairings(F_, A, G)
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
    A = [[F(0), F(1)], [F(0), F(0)]]
    assert pairings([{0: F(1)}], A, [{1: F(1)}]) == [[F(1)]]
    assert pairings([{1: F(1)}], A, [{0: F(1)}]) == [[F(0)]]
