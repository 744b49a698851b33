from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polypoisson import linalg
from polypoisson.lattice_ops import (
    Kernel,
    OddKernel,
    PerSeq,
    SingularOperator,
    compose,
    convolve_apply,
    invert,
    phi_special,
    random_odd_kernel,
    shift_kernel,
)

F = Fraction


def seq(*vals, N=None):
    vals = tuple(F(v) for v in vals)
    return PerSeq(N or len(vals), vals)


def delta(N):
    """The values of the kernel of the identity, delta at residue 0."""
    return (F(1),) + (F(0),) * (N - 1)


def dpoly_mul(p, q):
    """The product of two shift polynomials {r: c}: exponents add, coefficients multiply."""
    out = {}
    for r1, c1 in p.items():
        for r2, c2 in q.items():
            out[r1 + r2] = out.get(r1 + r2, 0) + c1 * c2
    return out


def test_kernel_of_shift():
    K = shift_kernel({1: 1}, 5)
    assert K.seq.values == (F(0), F(0), F(0), F(0), F(1))


def test_kernel_of_identity():
    K = shift_kernel({0: 1}, 4)
    assert K.seq.values == (F(1), F(0), F(0), F(0))


def test_shift_kernel_shares_zero_and_matches_the_dense_values():
    # one Fraction per nonzero residue: every zero value is linalg.ZERO, and
    # the values compare and hash equal to a dense Fraction per residue
    rng = Random(40)
    for N in (1, 2, 5, 21):
        for count in range(20):
            terms = {rng.randint(-2 * N, 2 * N): F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(count % 5)}
            dense = [F(0)] * N
            for r, c in terms.items():
                dense[-r % N] += c
            K = shift_kernel(terms, N)
            assert K.seq.values == tuple(dense) and hash(K.seq.values) == hash(tuple(dense))
            assert K == Kernel(PerSeq(N, tuple(dense))) and hash(K) == hash(Kernel(PerSeq(N, tuple(dense))))
            assert all(v is linalg.ZERO for v in K.seq.values if not v)
            assert all(type(v) is F for v in K.seq.values)


def test_kernel_of_d_minus_dinv():
    K = shift_kernel({1: 1, -1: -1}, 5)
    assert K[4] == 1 and K[1] == -1
    assert all(K[m] == 0 for m in (0, 2, 3))


def test_convolve_shift():
    K = shift_kernel({1: 1}, 5)
    f = seq(1, 2, 3, 4, 5)
    assert convolve_apply(K, f).values == (F(2), F(3), F(4), F(5), F(1))


def test_shift_composition_is_identity():
    Kp = shift_kernel({1: 1}, 5)
    Km = shift_kernel({-1: 1}, 5)
    assert compose(Kp, Km).seq.values == (F(1), F(0), F(0), F(0), F(0))


def test_convolve_with_delta_returns_kernel():
    phi = phi_special(2, 1, 5)
    out = convolve_apply(phi, seq(1, 0, 0, 0, 0))
    assert out.values == phi.seq.values


def test_period_mismatch():
    with pytest.raises(ValueError):
        convolve_apply(shift_kernel({0: 1}, 5), seq(1, 0, 0, 0))


def test_dpoly_ring_homomorphism():
    rng = Random(0)
    N = 7
    for _ in range(20):
        p = {rng.randint(-3, 3): F(rng.randint(-4, 4)) for _ in range(3)}
        q = {rng.randint(-3, 3): F(rng.randint(-4, 4)) for _ in range(3)}
        lhs = shift_kernel(dpoly_mul(p, q), N)
        rhs = compose(shift_kernel(p, N), shift_kernel(q, N))
        assert lhs.seq.values == rhs.seq.values


def test_apply_dpoly_matches_kernel_action():
    # p(D) f = sum_r c_r f_{m+r}: the kernel of p acts with (Df)_m = f_{m+1}
    N = 6
    p = {2: F(3), -1: F(-1, 2), 0: F(1)}
    f = seq(1, -2, 3, 0, 5, -1)
    shifted = tuple(sum(c * f[m + r] for r, c in p.items()) for m in range(N))
    assert shifted == convolve_apply(shift_kernel(p, N), f).values


def test_invert_one_plus_d_period_3():
    K = shift_kernel({0: 1, 1: 1}, 3)
    L = invert(K)
    assert L.seq.values == shift_kernel({0: F(1, 2), 1: F(-1, 2), 2: F(1, 2)}, 3).seq.values
    assert compose(K, L).seq.values == (F(1), F(0), F(0))
    assert compose(L, K).seq.values == (F(1), F(0), F(0))


def test_invert_singular_one_minus_d():
    with pytest.raises(SingularOperator) as info:
        invert(shift_kernel({0: 1, 1: -1}, 5))
    assert info.value.nullity == 1


def test_invert_singular_one_plus_d_even_period():
    with pytest.raises(SingularOperator):
        invert(shift_kernel({0: 1, 1: 1}, 4))


def test_two_sided_inverse_random():
    rng = Random(1)
    N = 5
    for _ in range(10):
        K = Kernel(PerSeq(N, tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(N))))
        try:
            L = invert(K)
        except SingularOperator:
            continue
        assert compose(K, L).seq.values == delta(N)
        assert compose(L, K).seq.values == delta(N)


# The step-1 kernel on period 5, frozen and re-verified residue by residue
# against its defining equation (2 - D - D^-1) phi = (D - D^-1) delta.


def test_solve_phi_step1_sawtooth():
    phi = phi_special(2, 1, 5)
    assert phi.seq.values == (F(0), F(-3, 5), F(-1, 5), F(1, 5), F(3, 5))
    for m in range(5):
        lhs = 2 * phi[m] - phi[m + 1] - phi[m - 1]
        rhs = (1 if (m + 1) % 5 == 0 else 0) - (1 if (m - 1) % 5 == 0 else 0)
        assert lhs == rhs


def test_phi_special_examples():
    assert phi_special(2, 1, 5).seq.values == (F(0), F(-3, 5), F(-1, 5), F(1, 5), F(3, 5))
    assert phi_special(2, 0, 5).seq.values == (F(0), F(1, 5), F(-3, 5), F(3, 5), F(-1, 5))
    assert phi_special(3, 1, 4).seq.values == (F(0), F(0), F(0), F(0))


def test_phi_special_defining_equation():
    # with no elimination: phi^(k) is odd, solves (2 - D^j - D^-j) phi =
    # (D^j - D^-j) delta, and is 0 off the multiples of g = gcd(j, N).  An odd
    # homogeneous solution is constant on each residue class mod g, so 0 on
    # the multiples of g: the two are orthogonal, and phi is the minimal-norm
    # solution
    for nu in range(2, 13):
        for k in range(nu):
            j = nu - k
            for N in range(3, 42):
                phi = phi_special(nu, k, N)
                assert isinstance(phi, OddKernel)
                assert all(phi[-m] == -phi[m] for m in range(N))
                A = shift_kernel({0: 2, j: -1, -j: -1}, N)
                b = shift_kernel({j: 1, -j: -1}, N)
                assert convolve_apply(A, phi.seq).values == b.seq.values, (nu, k, N)
                assert all(phi[m] == 0 for m in range(N) if m % gcd(j, N)), (nu, k, N)


def test_phi_special_guards():
    cases = {
        (1, 0, 5): "nu must be >= 2",
        (3, 3, 7): "k must lie in 0..nu-1",
        (3, -1, 7): "k must lie in 0..nu-1",
        (2, 1, 2): "period must be >= 3",
    }
    for args, msg in cases.items():
        with pytest.raises(ValueError, match=msg):
            phi_special(*args)


def test_phi_special_unique_when_coprime():
    # A(D) phi = 0 has no odd solution but 0: phi_m + phi_{-m} = 0 for every m
    for nu, k, N in ((2, 1, 5), (3, 0, 7), (4, 1, 7)):
        j = nu - k
        odd_rows = [[F(int(n == m % N) + int(n == -m % N)) for n in range(N)] for m in range(N // 2 + 1)]
        mat = shift_kernel({0: 2, j: -1, -j: -1}, N).matrix() + odd_rows
        assert len(nullspace(mat)) == 0


def test_oddness_invariants():
    rng = Random(2)
    for N in (5, 6, 9):
        phi = random_odd_kernel(N, rng)
        assert phi[0] == 0
        for m in range(N):
            assert phi[-m] == -phi[m]
        if N % 2 == 0:
            assert phi[N // 2] == 0
    with pytest.raises(ValueError):
        OddKernel(PerSeq(4, (F(0), F(1), F(0), F(2))))


_coeff = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def short_kernels(draw):
    """(p, N): a shift polynomial with 1-3 terms at shifts -2..2, and N in 3..13."""
    terms = draw(st.dictionaries(st.integers(-2, 2), _coeff, min_size=1, max_size=3))
    return terms, draw(st.integers(3, 13))


@given(short_kernels())
def test_invert_is_a_two_sided_inverse(case):
    p, N = case
    K = shift_kernel(p, N)
    try:
        L = invert(K)
    except SingularOperator as err:
        assert err.nullity == len(nullspace(K.matrix())) > 0
        return
    assert compose(K, L).seq.values == delta(N)
    assert compose(L, K).seq.values == delta(N)


def nullspace(a) -> list:
    """Basis of the right nullspace of a, read from linalg.rref: for each
    column f with no pivot, 1 at f and minus column f of the pivot rows."""
    red, pivots = linalg.rref(a)
    cols = len(a[0]) if a else 0
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def reference_invert(K: Kernel) -> Kernel:
    """invert by the dense route: solve K.matrix() f = delta, and on failure
    the nullity of K.matrix() by nullspace."""
    mat = K.matrix()
    col = linalg.solve(mat, [F(int(m == 0)) for m in range(K.N)])
    if col is None:
        raise SingularOperator("circulant operator is singular", len(nullspace(mat)))
    return Kernel(PerSeq(K.N, tuple(col)))


@st.composite
def dense_kernels(draw):
    """A kernel of period 1-12 with small rational values; zeros are common,
    so many are singular."""
    N = draw(st.integers(1, 12))
    vals = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, F(1, 2), F(-2, 3)]), min_size=N, max_size=N))
    return Kernel(PerSeq(N, tuple(F(v) for v in vals)))


@given(dense_kernels())
@example(Kernel(PerSeq.constant(1, 0)))
@example(Kernel(PerSeq.constant(6, 0)))
@example(Kernel(PerSeq(4, (F(1), F(1), F(1), F(1)))))
@settings(max_examples=400)
def test_invert_equals_the_dense_route(K):
    # one int elimination of [k | dk delta] gives the same kernel, or the
    # same SingularOperator message and nullity, as solve then nullspace
    try:
        want = reference_invert(K)
    except SingularOperator as err:
        with pytest.raises(SingularOperator) as info:
            invert(K)
        assert (str(info.value), info.value.nullity) == (str(err), err.nullity)
        return
    assert invert(K) == want


def test_invert_cached_result_equals_the_dense_route():
    invert.cache_clear()
    K = shift_kernel({0: 1, 1: 1, 2: -1}, 7)
    first = invert(K)
    assert invert(shift_kernel({0: 1, 1: 1, 2: -1}, 7)) is first
    assert first == reference_invert(K)
    assert invert.cache_info().hits == 1


def test_invert_singular_raises_on_every_call():
    # exceptions are not cached: the second call eliminates again and raises
    # the same SingularOperator
    invert.cache_clear()
    K = shift_kernel({0: 1, 1: 1}, 4)
    nullities = []
    for _ in range(2):
        with pytest.raises(SingularOperator) as info:
            invert(K)
        nullities.append(info.value.nullity)
    assert nullities == [1, 1]
    assert invert.cache_info().currsize == 0


@pytest.mark.parametrize(
    "terms, N, nullity",
    [
        ({0: 1, 1: 1}, 4, 1),  # 1 + D kills the alternating sequence
        ({0: 1, 1: 1, 2: 1}, 3, 2),  # 1 + D + D^2 kills both cube roots of unity
        ({0: 1, 1: 1, 2: 1}, 6, 2),
    ],
)
def test_singular_operator_nullity(terms, N, nullity):
    with pytest.raises(SingularOperator) as info:
        invert(shift_kernel(terms, N))
    assert info.value.nullity == nullity
    assert f"nullspace dimension {nullity}" in str(info.value)


def _odd_rows(N: int):
    return [[F(int(n == j % N) + int(n == -j % N)) for n in range(N)] for j in range(N // 2 + 1)]


def dot(u, v):
    return sum((x * y for x, y in zip(u, v)), F(0))


def reference_convolve(K, f):
    """The dense Fraction convolution over all N^2 index pairs."""
    N = K.N
    return PerSeq(N, tuple(sum((K[m - n] * f[n] for n in range(N)), F(0)) for m in range(N)))


def reference_solve_phi(A, b, N):
    """The minimal-norm odd solution of A(D) phi = b(D) delta by two Fraction
    eliminations: linalg.solve for a particular solution, nullspace for the
    odd homogeneous ones, then the Gram projection off them."""
    mat = shift_kernel(A, N).matrix() + _odd_rows(N)
    particular = linalg.solve(mat, list(shift_kernel(b, N).seq.values) + [F(0)] * (N // 2 + 1))
    assert particular is not None, "no odd periodic kernel satisfies the equation"
    hom = nullspace(mat)
    if hom:
        gram = [[dot(u, v) for v in hom] for u in hom]
        proj = linalg.solve(gram, [dot(u, particular) for u in hom])
        for coef, u in zip(proj, hom):
            particular = [x - coef * y for x, y in zip(particular, u)]
    return OddKernel(PerSeq(N, tuple(particular)))


@st.composite
def convolution_cases(draw):
    """(K, f): a zero, sparse (1-2 nonzeros) or dense kernel and a dense sequence, N in 1..12."""
    N = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["zero", "sparse", "dense"]))
    vals = [F(0)] * N
    if shape == "dense":
        vals = draw(st.lists(_coeff, min_size=N, max_size=N))
    elif shape == "sparse":
        for s in draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=2)):
            vals[s] = draw(_coeff)
    return Kernel(PerSeq(N, tuple(vals))), PerSeq(N, tuple(draw(st.lists(_coeff, min_size=N, max_size=N))))


@given(convolution_cases())
def test_convolve_apply_equals_dense_reference(case):
    K, f = case
    got = convolve_apply(K, f)
    assert got.values == reference_convolve(K, f).values
    assert all(type(x) is Fraction for x in got.values)
    L = Kernel(f)
    assert compose(K, L).seq.values == reference_convolve(K, f).values


@given(st.integers(2, 6), st.integers(5, 21))
@example(4, 12)  # even N with gcd(nu, N) = 4: several k have many odd solutions
@example(3, 9)
def test_solve_phi_equals_two_elimination_reference(nu, N):
    # the closed form is the minimal-norm odd solution for every k, also
    # where the odd solution is not unique (even N or gcd(nu - k, N) > 1)
    for k in range(nu):
        j = nu - k
        expect = reference_solve_phi({0: 2, j: -1, -j: -1}, {j: 1, -j: -1}, N).seq.values
        assert phi_special(nu, k, N).seq.values == expect, (nu, k, N)


def test_json_round_trip():
    # a kernel comes back as the CLI reads a `file:` phi
    phi = phi_special(2, 1, 5)
    assert OddKernel(PerSeq.from_json(phi.to_json())).seq.values == phi.seq.values
