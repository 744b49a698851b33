"""The one JSON reader, PerSeq.from_json (the `file:` source of `--phi` and
`--beta`): it returns what to_json wrote, for sequences and kernels drawn
under the shared hypothesis profile, and refuses any other document.  The
op-tensor strategy here also feeds tests/test_coord_reduction.py."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polypoisson.coord_reduction import OpTensor
from polypoisson.lattice_ops import Kernel, OddKernel, PerSeq

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


@given(periods.flatmap(seqs))
def test_perseq_round_trip(x):
    doc = x.to_json()
    assert PerSeq.from_json(doc).to_json() == doc


@given(periods.flatmap(lambda N: st.one_of(seqs(N).map(Kernel), odd_kernels(N))))
def test_kernel_round_trip(x):
    # a kernel is written as its sequence (`phi --out`) and read back as the
    # CLI reads a `file:` phi, by PerSeq.from_json
    doc = x.to_json()
    assert type(x)(PerSeq.from_json(doc)).to_json() == doc


@pytest.mark.parametrize(
    "doc",
    [
        {"N": 5.7, "values": ["1"] * 5},  # int() would truncate it to 5
        {"N": 5.0, "values": ["1"] * 5},
        {"N": "5", "values": ["1"] * 5},
        {"N": True, "values": ["1"]},  # Python counts a bool as an int
        {"N": 2, "values": ["1", True]},
        {"N": 2, "values": ["1", 0.5]},
        {"N": 5, "values": "11111"},  # a string is a sequence of 1-character values
    ],
)
def test_perseq_from_json_refuses_any_other_document(doc):
    with pytest.raises(ValueError, match="malformed sequence document"):
        PerSeq.from_json(doc)
