"""Sparse multivariate polynomials over Q and forward-mode duals.

Variables are integer ids; a monomial is a sorted tuple of (var, exponent)
pairs.  This is deliberately minimal plumbing: exact arithmetic, partial
derivatives and point evaluation are all the rest of the package needs.

``dual_det`` differentiates a determinant without expanding it over Duals:
the value and the adjugate come from one fraction-free elimination of the
entries' values, scaled to ints, and the gradient from Jacobi's formula
d det A = tr(adj(A) dA), summed in ints.  Its cost is O(n^3) int operations
plus one pass over the entries' gradients.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm, prod

from .linalg import ONE, ZERO, _int_adjugate, _scaled, rat


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
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        out = Poly()
        out.terms = dict(self.terms)
        for m, c in other.terms.items():
            s = out.terms.get(m, ZERO) + c
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
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
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
                s = acc.get(m, ZERO) + c1 * c2
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
                    s = out.terms.get(newmono, ZERO) + c * e
                    if s:
                        out.terms[newmono] = s
                    else:
                        out.terms.pop(newmono, None)
                    break
        return out

    def eval(self, point) -> Fraction:
        """Evaluate at point (a dict or indexable of var -> value)."""
        acc = ZERO
        for mono, c in self.terms.items():
            t = c
            for var, e in mono:
                t *= point[var] ** e
            acc += t
        return acc

    def eval_grad(self, point):
        """(value, {var: nonzero partial derivative}) at point."""
        val = ZERO
        grad = defaultdict(int)
        for mono, c in self.terms.items():
            powers = [point[var] ** e for var, e in mono]
            val += c * prod(powers)
            for k, (var, e) in enumerate(mono):
                grad[var] += c * e * point[var] ** (e - 1) * prod(powers[:k] + powers[k + 1 :])
        return val, {v: d for v, d in grad.items() if d}

    def degree_in(self, vars_of_interest) -> int:
        best = 0
        vs = set(vars_of_interest)
        for mono in self.terms:
            d = sum(e for var, e in mono if var in vs)
            best = max(best, d)
        return best

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
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for var, e in m2:
        acc[var] = acc.get(var, 0) + e
    return tuple(sorted(acc.items()))


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


def dual_det(rows) -> Dual:
    """Determinant of a square matrix of Duals, gradient by Jacobi's formula.

    The entries' values are scaled once to an int matrix m over a common
    denominator d, and one fraction-free elimination gives det m and adj m
    (the signed (n-1)-minors when m is singular; those vanish, and so does
    the gradient, when rank m <= n-2).  The gradient d det A = sum_ij
    adj(A)_ji dA_ij, with adj(A) = adj(m) / d^(n-1), is summed in ints over
    the entries' sparse gradients scaled to one denominator dg, and divided
    by d^(n-1) dg once per variable at the end.
    """
    n = len(rows)
    m, d = _scaled([[x.val for x in row] for row in rows])
    value, adj = _int_adjugate(m)
    dg = lcm(*(c.denominator for row in rows for x in row for c in x.grad.values()))
    acc = {}
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            c = adj[j][i]
            if c:
                for v, dx in x.grad.items():
                    acc[v] = acc.get(v, 0) + c * dx.numerator * (dg // dx.denominator)
    den = d ** (n - 1) * dg
    return Dual(Fraction(value, d**n), {v: Fraction(g, den) for v, g in acc.items() if g})
