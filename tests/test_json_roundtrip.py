"""JSON round trips: for every serializable type, to_json(from_json(to_json(x)))
equals to_json(x), on examples drawn under the shared hypothesis profile."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from polypoisson.coord_reduction import OpTensor, PolyTensor
from polypoisson.exchange_algebra import BracketSpec, Polygon
from polypoisson.lattice_ops import DPoly, Kernel, OddKernel, PerSeq
from polypoisson.multipoly import Poly

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
periods = st.integers(min_value=1, max_value=6)


def seqs(N):
    return st.lists(rationals, min_size=N, max_size=N).map(lambda v: PerSeq(N, tuple(v)))


def odd_kernels(N):
    def build(half):
        vals = [Fraction(0)] * N
        for m, x in enumerate(half, start=1):
            if 2 * m != N:
                vals[m], vals[N - m] = x, -x
        return OddKernel(PerSeq(N, tuple(vals)))

    return st.lists(rationals, min_size=N // 2, max_size=N // 2).map(build)


def square(n):
    """n x n matrices with a few nonzero entries, as R and C usually are."""

    def build(entries):
        return [[entries.get((i, j), 0) for j in range(n)] for i in range(n)]

    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.dictionaries(cells, rationals, max_size=6).map(build)


@st.composite
def polygons(draw):
    nu, N = draw(st.integers(1, 3)), draw(periods)
    V = draw(st.lists(st.lists(rationals, min_size=nu, max_size=nu), min_size=N, max_size=N))
    # unit upper triangular, so det M = 1
    M = [[Fraction(int(i == j)) if i >= j else draw(rationals) for j in range(nu)] for i in range(nu)]
    return Polygon(nu, N, V, M)


@st.composite
def bracket_specs(draw):
    nu, N = draw(st.integers(2, 3)), draw(periods)
    phi = draw(st.one_of(seqs(N).map(Kernel), odd_kernels(N)))
    return BracketSpec(nu, N, draw(square(nu * nu)), draw(square(nu * nu)), phi)


FIELD_NAMES = st.sampled_from([("u",), ("mu", "rho"), ("a", "b", "rho")])


@st.composite
def poly_tensors(draw):
    names, N = draw(FIELD_NAMES), draw(periods)
    T = PolyTensor(names, N, draw(rationals))
    D = len(names) * N
    monos = st.dictionaries(st.integers(0, D - 1), st.integers(1, 3), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    )
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, len(names) - 1)), draw(st.integers(0, len(names) - 1))
        m, n = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
        T.add_term(i, m, j, n, Poly(draw(st.dictionaries(monos, rationals, max_size=4))))
    return T


@st.composite
def op_tensors(draw):
    names, N = draw(FIELD_NAMES), draw(periods)
    T = OpTensor(names, N, draw(rationals))
    field = st.integers(0, len(names) - 1)
    factor = st.one_of(
        field.map(lambda i: ("f", i)),
        field.map(lambda i: ("finv", i)),
        seqs(N).map(lambda s: ("c", s)),
        seqs(N).map(lambda s: ("k", Kernel(s))),
    )
    for _ in range(draw(st.integers(0, 4))):
        T.add_word(draw(field), draw(field), *draw(st.lists(factor, min_size=1, max_size=4)))
    return T


def assert_round_trip(cls, x):
    doc = x.to_json()
    assert cls.from_json(doc).to_json() == doc


@given(periods.flatmap(seqs))
def test_perseq_round_trip(x):
    assert_round_trip(PerSeq, x)


@given(periods.flatmap(lambda N: st.one_of(seqs(N).map(Kernel), odd_kernels(N))))
def test_kernel_round_trip(x):
    assert_round_trip(Kernel, x)
    assert_round_trip(type(x), x)


@given(st.dictionaries(st.integers(-6, 6), rationals, max_size=5).map(DPoly))
def test_dpoly_round_trip(x):
    assert_round_trip(DPoly, x)


@given(polygons())
def test_polygon_round_trip(x):
    assert_round_trip(Polygon, x)


@given(bracket_specs())
def test_bracket_spec_round_trip(x):
    assert_round_trip(BracketSpec, x)


@given(poly_tensors())
def test_poly_tensor_round_trip(x):
    assert_round_trip(PolyTensor, x)


@given(op_tensors())
def test_op_tensor_round_trip(x):
    assert_round_trip(OpTensor, x)
