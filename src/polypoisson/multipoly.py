"""Sparse multivariate polynomials over Q.

Variables are integer ids; a monomial is a sorted tuple of (var, exponent)
pairs.  This is deliberately minimal plumbing: exact arithmetic and partial
derivatives; a point meets a Poly in ints, in ``coord_reduction._int_poly``.
Sums, products and derivatives keep int coefficients ints, so the symbolic
pencil sweep of ``coord_reduction`` runs on Polys scaled to ints.
Gradients of polygon observables, which are ratios of determinants, come
from ``linalg.det_grad`` and not from here.
"""

from __future__ import annotations

from .linalg import ZERO, rat


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = rat(c)
                if c:
                    self.terms[mono] = self.terms.get(mono, ZERO) + c
            self.terms = {m: c for m, c in self.terms.items() if c}

    @classmethod
    def const(cls, c) -> "Poly":
        c = rat(c)
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, v: int, c=1) -> "Poly":
        return cls({((v, 1),): rat(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = Poly()
        out.terms = dict(self.terms)
        for m, c in other.terms.items():
            s = out.terms.get(m, 0) + c
            if s:
                out.terms[m] = s
            else:
                out.terms.pop(m, None)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = rat(other)
            out = Poly()
            if c:
                out.terms = {m: c * v for m, v in self.terms.items()}
            return out
        out = Poly()
        acc = out.terms
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = acc.get(m, 0) + c1 * c2
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return out

    __rmul__ = __mul__

    def diff(self, v: int) -> "Poly":
        out = Poly()
        for mono, c in self.terms.items():
            for i, (var, e) in enumerate(mono):
                if var == v:
                    if e == 1:
                        newmono = mono[:i] + mono[i + 1 :]
                    else:
                        newmono = mono[:i] + ((var, e - 1),) + mono[i + 1 :]
                    s = out.terms.get(newmono, 0) + c * e
                    if s:
                        out.terms[newmono] = s
                    else:
                        out.terms.pop(newmono, None)
                    break
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            mono_s = "*".join(
                f"x{var}" if e == 1 else f"x{var}^{e}" for var, e in mono
            )
            bits.append(f"{c}" + (f"*{mono_s}" if mono_s else ""))
        return " + ".join(bits)


def _mono_mul(m1, m2):
    """m1 m2 for sorted (var, exponent) tuples: disjoint variable ranges (as in
    a path product x_J x_K) concatenate, and only overlapping ones merge."""
    if not m1:
        return m2
    if not m2:
        return m1
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    acc = dict(m1)
    for var, e in m2:
        acc[var] = acc.get(var, 0) + e
    return tuple(sorted(acc.items()))
