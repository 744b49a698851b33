"""Periodic sequences, shift-operator polynomials and circulant kernels.

A periodic sequence ``K`` of period ``N`` acts on another periodic sequence
``f`` by cyclic convolution, ``(K.f)_m = sum_n K_{m-n} f_n`` with the sum over
one period.  Under this convention the kernel of the shift ``D`` (which maps
``f_m`` to ``f_{m+1}``) is the delta sequence supported at ``-1 mod N``, and
composition of operators is convolution of kernels.  A shift polynomial
``sum_r c_r D^r`` is the dict ``{r: c_r}`` throughout.

A kernel is turned into ints once, by its cached view ``Kernel.ints``.
Convolution is one int circulant action over the kernel's nonzeros,
``_int_convolve``, which ``convolve_apply`` (one Fraction per entry) and the
closed forms ``_closed_ints`` share.  The one formula for the exchange
coefficient kernels E_jk of the reduced brackets, ``_exchange_kernels``, is
such a closed form; ``phi_special``, a sawtooth written down directly, solves
E_kk = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd

from . import linalg
from .linalg import ZERO, rat, rat_str


class SingularOperator(ValueError):
    """Raised when a circulant operator has no exact inverse."""

    def __init__(self, msg: str, nullity: int):
        super().__init__(f"{msg} (nullspace dimension {nullity})")
        self.nullity = nullity


def sign(k: int) -> int:
    return (k > 0) - (k < 0)


@dataclass(frozen=True)
class PerSeq:
    """A period-N sequence of rationals, indexed by residues mod N."""

    N: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("period must be >= 1")
        if len(self.values) != self.N:
            raise ValueError("need exactly N values")
        object.__setattr__(self, "values", tuple(rat(v) for v in self.values))

    @classmethod
    def constant(cls, N: int, c) -> "PerSeq":
        return cls(N, (rat(c),) * N)

    def __getitem__(self, m: int) -> Fraction:
        return self.values[m % self.N]

    def __neg__(self) -> "PerSeq":
        return PerSeq(self.N, tuple(-a for a in self.values))

    def scale(self, c) -> "PerSeq":
        c = rat(c)
        return PerSeq(self.N, tuple(c * a for a in self.values))

    def nonvanishing(self) -> bool:
        return all(self.values)

    def max_abs(self) -> Fraction:
        return max((abs(v) for v in self.values), default=ZERO)

    def to_json(self) -> dict:
        return {"N": self.N, "values": [rat_str(v) for v in self.values]}

    @classmethod
    def from_json(cls, doc: dict) -> "PerSeq":
        """Read ``to_json`` output; a period that is no JSON int, or a value no int or 'p/q' string, is a ValueError."""
        try:
            N, values = doc["N"], doc["values"]
            if type(N) is not int or type(values) is not list:
                raise TypeError("the period must be an integer and the values a list")
            return cls(N, tuple(rat(v) for v in values))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed sequence document: {exc}") from exc


@dataclass(frozen=True)
class Kernel:
    """A periodic sequence viewed as a cyclic-convolution operator."""

    seq: PerSeq

    @property
    def N(self) -> int:
        return self.seq.N

    def __getitem__(self, m: int) -> Fraction:
        return self.seq[m]

    @cached_property
    def ints(self) -> tuple:
        """(k, dk, nz): the kernel as ints k / dk and nz its nonzeros (d, k_d), built once per object."""
        (k,), dk = linalg._scaled([self.seq.values])
        return tuple(k), dk, tuple((d, x) for d, x in enumerate(k) if x)

    def __neg__(self) -> "Kernel":
        return Kernel(-self.seq)

    def scale(self, c) -> "Kernel":
        return Kernel(self.seq.scale(c))

    def matrix(self) -> list[list[Fraction]]:
        """Dense N x N matrix with entry (m, n) = K_{m-n}."""
        N = self.N
        return [[self.seq[m - n] for n in range(N)] for m in range(N)]

    def transpose(self) -> "Kernel":
        return Kernel(PerSeq(self.N, tuple(self.seq[-m] for m in range(self.N))))

    def to_json(self) -> dict:
        return self.seq.to_json()


def require_period(what: str, seq, N: int):
    """ValueError unless seq (a PerSeq or Kernel; None passes) has period N."""
    if seq is not None and seq.N != N:
        raise ValueError(f"{what} has period {seq.N}, not {N}")


class OddKernel(Kernel):
    """Kernel with K_{-m} = -K_m (hence K_0 = 0, and K_{N/2} = 0 for even N)."""

    def __init__(self, seq: PerSeq):
        for m in range(seq.N):
            if seq[-m] != -seq[m]:
                raise ValueError(f"kernel is not odd at residue {m}")
        super().__init__(seq)


def shift_kernel(terms: dict, N: int) -> Kernel:
    """Kernel of the shift polynomial sum_r c_r D^r, given as {r: c_r}, on
    period N: K_m = sum of c_r over r = -m mod N.  Zero residues share ZERO."""
    if N < 1:
        raise ValueError("period must be >= 1")
    return Kernel(PerSeq(N, tuple(rat(x) if x else ZERO for x in _kernel_values(terms, N))))


def _kernel_values(terms: dict, N: int) -> list:
    """The values of shift_kernel for {r: c_r}; ints stay ints."""
    vals = [0] * N
    for r, c in terms.items():
        vals[-r % N] += c
    return vals


def _int_convolve(k: list, f: list) -> list:
    """(k.f)_m = sum_s k_s f_{m-s} for int sequences of one period, over the nonzeros of k."""
    out = [0] * len(f)
    for s, c in enumerate(k):
        if c:
            out = [x + c * y for x, y in zip(out, f[-s:] + f[:-s])]
    return out


def _closed_ints(nu: int, s: int, p: tuple, L: int, *outers: dict) -> list:
    """[L outer(D) [(D^nu - D^s) phi + (D^nu + D^s) delta] for outer in outers], p = L phi.

    Each outer is a shift polynomial {r: int}; the one inner sequence is
    shared, and every product is the int circulant action ``_int_convolve``.
    """
    N = len(p)
    inner = _int_convolve(_kernel_values({nu: 1, s: -1}, N), p)
    inner = [x + L * y for x, y in zip(inner, _kernel_values({nu: 1, s: 1}, N))]
    return [_int_convolve(_kernel_values(outer, N), inner) for outer in outers]


def _exchange_kernels(nu: int, j: int, ks, phi: Kernel) -> list:
    """[E_jk for k in ks], E_jk = (D^-nu - D^-k)[(D^nu - D^j) phi + (D^nu + D^j) delta].

    E_jk is the kernel of the exchange term a^(j)_m E_jk(m - n) a^(k)_n of
    the order-nu reduced bracket {a^(j)_m, a^(k)_n}; one Fraction per entry.
    """
    p, L, _ = phi.ints
    outers = ({-nu: 1, -k: -1} for k in ks)
    return [Kernel(PerSeq(len(p), tuple(Fraction(x, L) for x in ints))) for ints in _closed_ints(nu, j, p, L, *outers)]


def convolve_apply(K: Kernel, f: PerSeq) -> PerSeq:
    """Exact cyclic convolution (K.f)_m = sum_n K_{m-n} f_n, in ints after one scaling of each."""
    if K.N != f.N:
        raise ValueError(f"period mismatch: {K.N} != {f.N}")
    k, dk, _ = K.ints
    (x,), dx = linalg._scaled([f.values])
    return PerSeq(K.N, tuple(Fraction(v, dk * dx) for v in _int_convolve(k, x)))


def compose(K: Kernel, L: Kernel) -> Kernel:
    """Operator composition K after L (= cyclic convolution of kernels)."""
    return Kernel(convolve_apply(K, L.seq))


@lru_cache
def invert(K: Kernel) -> Kernel:
    """Exact inverse kernel L with K * L = delta; SingularOperator if none.

    One fraction-free elimination of the int circulant [k_{m-n} | dk delta],
    K = k / dk: its right column over the last pivot is the inverse kernel
    (circulants commute), and the columns of k with no pivot give the nullity.
    Each distinct (frozen, hashable) K is eliminated once per process; a
    SingularOperator is not cached, so it is raised again on every call.
    """
    N = K.N
    k, dk, _ = K.ints
    m = [[k[r - n] for n in range(N)] + [dk * (r == 0)] for r in range(N)]
    pivots, p, _ = linalg._int_rref(m)
    if nullity := N - sum(c < N for c in pivots):
        raise SingularOperator("circulant operator is singular", nullity)
    return Kernel(PerSeq(N, tuple(Fraction(row[N], p) for row in m)))


def phi_special(nu: int, k: int, N: int) -> OddKernel:
    """The odd periodic kernel solving (2 - D^j - D^-j) phi = (D^j - D^-j) delta, j = nu - k.

    These are the distinguished deformation kernels: k = 0 makes the leading
    reduced field a Casimir, while 1 <= k <= nu-1 makes the reduced bracket
    linear in the k-th field.

    With g = gcd(j, N), n = N / g and u = (j / g)^-1 mod n, phi is the
    sawtooth phi_{g s} = (2 r - n) / n, r = s u mod n, on the multiples of g
    and 0 elsewhere (all 0 when n <= 2).  Proof, writing psi_r = phi_{g s}:
    - phi is odd, since r(n - s) = n - r(s).
    - it solves the equation: on the multiples of g, s -> r turns s +- j/g
      into r +- 1, so it reads 2 psi_r - psi_{r+1} - psi_{r-1} = [r = -1] -
      [r = 1] mod n, which the sawtooth solves; off them both sides vanish.
    - it is the minimal-norm odd solution: an odd homogeneous solution is
      g-periodic and odd, so 0 on the multiples of g and orthogonal to phi.
    """
    if nu < 2:
        raise ValueError("nu must be >= 2")
    if not 0 <= k <= nu - 1:
        raise ValueError("k must lie in 0..nu-1")
    if N < 3:
        raise ValueError("period must be >= 3")
    g = gcd(nu - k, N)
    n = N // g
    u = pow((nu - k) // g, -1, n)
    vals = [ZERO] * N
    vals[g::g] = [Fraction(2 * (s * u % n) - n, n) for s in range(1, n)]
    return OddKernel(PerSeq(N, tuple(vals)))


def random_odd_kernel(N: int, rng) -> OddKernel:
    """A random odd kernel with small-height rational entries."""
    vals = [ZERO] * N
    for j in range(1, (N + 1) // 2):
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        vals[j] = x
        vals[N - j] = -x
    return OddKernel(PerSeq(N, tuple(vals)))
