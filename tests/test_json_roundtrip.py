"""JSON round trips: for every type the CLI writes and reads back,
to_json(from_json(to_json(x))) equals to_json(x), on examples drawn under the
shared hypothesis profile."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from polypoisson.coord_reduction import OpTensor, PolyTensor
from polypoisson.lattice_ops import Kernel, OddKernel, PerSeq
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
    # a kernel is written as its sequence (`phi --out`) and read back as the
    # CLI reads a `file:` phi, by PerSeq.from_json
    doc = x.to_json()
    assert type(x)(PerSeq.from_json(doc)).to_json() == doc


@given(poly_tensors())
def test_poly_tensor_round_trip(x):
    assert_round_trip(PolyTensor, x)


@given(op_tensors())
def test_op_tensor_round_trip(x):
    assert_round_trip(OpTensor, x)
