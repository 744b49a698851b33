"""Coordinates on the quotient of polygon space and the named reduced tensors.

A nondegenerate polygon satisfies one linear recursion of order nu whose
coefficients a^(0), ..., a^(nu-1) are ratios of consecutive-vertex
determinants; they are invariant under the projective group action and serve
as coordinates on the quotient.  This module computes them, builds the named
closed-form Poisson tensors on those coordinates (the quadratic Toda bracket,
the lattice Virasoro bracket and its fixed-sequence generalisation, and the
three distinguished nu = 3 tensors), and carries the machinery that verifies
them: the chain-rule oracle, Dirac reduction at a constraint surface, the
u -> S pushforward identity, and one sweep of the pencil P + tQ, at a field
point or on the polynomials, behind Jacobiators and pencil certificates.

Tensors come in two forms on one field-space header: PolyTensor stores
entries as polynomials in the field variables and supports exact
differentiation; OpTensor stores field-dressed operator words, the shape the
closed formulas are written in.  Every named tensor is built and returned as
words; a caller that differentiates expands it once by ``to_poly``.
``quotient_tensor`` builds the quotient bracket of every order nu; murho and
abrho are its nu = 2, 3 cases, and toda, P1 and P2 those at a special phi.
All five append the phi-independent words of one formula, ``_linear_words``
(scaled by c = 2, or 1 under the factor 1/2), which has the shape of a
lattice second Gelfand-Dickey bracket (Belov and Chaltikian 1993;
Semenov-Tian-Shansky and Sevostyanov 1995): with a^(nu) = 1, q = j + k - p,

  R(j,m; k,n) = c sum_{p=max(0,j+k-nu)}^{min(j,k)-1}
                  ( a^(p)_n a^(q)_m [n = m+j-p] - a^(p)_m a^(q)_n [n = m-(k-p)] ).

``_exchange_word`` adds every off-diagonal exchange partner.  One int walk,
one pass per word over its paths with each distinct diagonal segment scaled
once, serves every reading of words: ``to_poly`` builds one Fraction per
distinct coefficient.  A field point meets either form only in
``int_matrix``: words by that walk (the only place a field inverse can be
formed), polynomials by ``_int_poly``, the pencil sweep's one evaluator.  ``eval_matrix``
builds one Fraction per entry, ``ham_vf``, ``oracle_match``,
``pushforward_check`` and ``toda_dirac_vs_ftv`` one per velocity or
residual, and ``dirac_reduce`` one per reduced entry, after eliminating in ints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm, prod
from operator import itemgetter
from random import Random

from . import linalg
from .exchange_algebra import (
    BracketSpec,
    Polygon,
    _DualCtx,
    _PiTable,
    _require_shape,
)
from .lattice_ops import (
    Kernel,
    OddKernel,
    PerSeq,
    _exchange_kernels,
    compose,
    invert,
    phi_special,
    require_period,
    shift_kernel,
)
from .linalg import ONE, ZERO, rat, rat_str
from .multipoly import Poly, _mono_mul


class NonUniqueGauge(ValueError):
    """Raised when the gauge normalisation is not unique (gcd(nu, N) > 1)."""


class GaugeInconsistent(ValueError):
    """Raised when no exact periodic gauge achieves the requested Wronskian ratio."""


class ConstraintNotSecondClass(ValueError):
    """Raised when the constrained block cannot be inverted against the couplings."""


_ALIASES = {2: ("rho", "mu"), 3: ("rho", "b", "a")}


def alias_index(nu: int, name: str) -> int:
    """The r of the field a^(r) a name stands for: a{r}, or a nu = 2, 3 alias."""
    if name.startswith("a") and name[1:].isdigit():
        return int(name[1:])
    names = _ALIASES.get(nu, ())
    if name in names:
        return names.index(name)
    raise KeyError(f"unknown field alias {name!r} for nu={nu}")


def coords(W: Polygon, ctx: _DualCtx = None) -> dict:
    """The recursion coefficients of a nondegenerate polygon, as a field point.

    a^(k)_m is the ratio of the (nu x nu) determinant on vertices
    m..m+nu omitting m+k to the Wronskian w_m, and a^(0)_m = w_{m+1}/w_m.
    The values come from the one solve per site of ``_DualCtx`` (ctx, when
    given), with no gradient built; it raises DegeneratePolygon at the first
    site with w_m = 0 and ValueError when N < nu.  The result maps a0 ..
    a{nu-1} to periodic sequences, invariant under the projective action; for
    nu = 2, 3 the aliases (rho, mu) and (rho, b, a) name the same objects.
    """
    ctx = ctx or _DualCtx(W)
    point = {f"a{k}": PerSeq(W.N, tuple(ctx.value(k, m) for m in range(W.N))) for k in range(W.nu)}
    for k, name in enumerate(_ALIASES.get(W.nu, ())):
        point[name] = point[f"a{k}"]
    return point


def field_gradients(W: Polygon, field_names, ctx: _DualCtx = None) -> list:
    """Vertex-space gradients of the named fields at W, field-major (_var order).

    Each is an int covector (grad, den) standing for grad / den, read from
    ctx when given.
    """
    ctx = ctx or _DualCtx(W)
    return [ctx.field(alias_index(W.nu, f), m)[1:] for f in field_names for m in range(W.N)]


def random_fields(field_names, N: int, rng: Random) -> dict:
    """Random nonvanishing small-height rational values for each named field."""
    out = {}
    for name in field_names:
        vals = []
        for _ in range(N):
            num = 0
            while num == 0:
                num = rng.randint(-5, 5)
            vals.append(Fraction(num, rng.randint(1, 3)))
        out[name] = PerSeq(N, tuple(vals))
    return out


# ---------------------------------------------------------------------------
# tensors on field coordinates
# ---------------------------------------------------------------------------


def _var(field_idx: int, site: int, N: int) -> int:
    return field_idx * N + site


class _FieldTensor:
    """The field space a reduced tensor lives on, shared by both forms.

    Entry ((i, m), (j, n)) is the bracket {x^i_m, x^j_n} scaled by
    ``bracket_scale`` relative to the raw reduced bracket of the polygon
    space (the named tensors carry the factor 1/2 their closed forms use).
    A point meets a tensor only in the subclass's ``int_matrix`` (L, rows),
    int rows over L; ``eval_matrix`` builds one Fraction per nonzero entry.
    """

    def __init__(self, field_names, N: int, bracket_scale=ONE):
        self.field_names = tuple(field_names)
        self.N = N
        self.bracket_scale = rat(bracket_scale)

    @property
    def d(self) -> int:
        return len(self.field_names)

    def n_vars(self) -> int:
        return self.d * self.N

    def point_values(self, point) -> list:
        """The field values at a point (a name -> PerSeq map), in _var order;
        a missing field, or one of a period other than the tensor's, is a ValueError."""
        for name in self.field_names:
            if name not in point:
                raise ValueError(f"the point has no field {name!r}")
            require_period(f"field {name!r}", point[name], self.N)
        return [x for name in self.field_names for x in point[name].values]

    def eval_matrix(self, point):
        """Dense (d N) x (d N) antisymmetric matrix at the point."""
        L, rows = self.int_matrix(point)
        return [[Fraction(v, L) if v else ZERO for v in row] for row in rows]

    def _header(self, form: str) -> dict:
        return {
            "form": form,
            "fields": list(self.field_names),
            "N": self.N,
            "bracket_scale": rat_str(self.bracket_scale),
        }


class PolyTensor(_FieldTensor):
    """Poisson tensor with entries polynomial in the field variables."""

    def __init__(self, field_names, N: int, bracket_scale=ONE):
        super().__init__(field_names, N, bracket_scale)
        self.entries: dict = {}

    def int_matrix(self, point):
        """(L, rows): the dense (d N) x (d N) matrix at the point as int rows over L, by ``_int_poly``."""
        X, pw, L, _ = _int_point(_int_scale(self.entries.values()), self.point_values(point))
        N, rows = self.N, [[0] * self.n_vars() for _ in range(self.n_vars())]
        for (i, m, j, n), poly in self.entries.items():
            rows[_var(i, m, N)][_var(j, n, N)] = _int_poly(poly, X, pw)[0]
        return L, rows

    def to_json(self) -> dict:
        ent = []
        for (i, m, j, n), poly in sorted(self.entries.items()):
            terms = [
                [[[var, e] for var, e in mono], rat_str(c)]
                for mono, c in sorted(poly.terms.items())
            ]
            ent.append({"i": i, "m": m, "j": j, "n": n, "terms": terms})
        return {**self._header("poly"), "entries": ent}


# operator words: factors are ("f", field_index), ("finv", field_index),
# ("c", PerSeq constant diagonal) or ("k", Kernel)


class OpTensor(_FieldTensor):
    """Poisson tensor whose entries are field-dressed circulant operator words."""

    def __init__(self, field_names, N: int, bracket_scale=ONE):
        super().__init__(field_names, N, bracket_scale)
        self.words: dict = {}

    def add_word(self, i: int, j: int, *factors):
        self.words.setdefault((i, j), []).append(tuple(factors))

    def _walk(self, seg_value):
        """(L, sums): sums[i, m, j, n, mono] is the int total, over L, of the
        products of the paths from site m to site n of the words of block (i, j).

        A word is split at its kernels into diagonal segments.  A path starts
        at site m on the first segment and steps, at each kernel K, from its
        site s to each s - d with K_d != 0; its product is that of those kernel
        entries (``Kernel.ints``) and of ``seg_value(segment, site) = (mono,
        num, den)``, ints standing for mono num / den, for each segment at the
        site it is on.  Each distinct segment is scaled at the N sites once per
        walk; paths meeting at one site and monomial merge, and the last step
        adds into sums.
        """
        N = self.N
        segs, words, L = {}, [], 1
        for (i, j), wlist in self.words.items():
            for word in wlist:
                parts, steps = [[]], []
                for factor in word:
                    if factor[0] == "k":
                        steps.append(factor[1].ints[1:])
                        parts.append([])
                    else:
                        parts[-1].append(factor)
                diag = []
                for seg in map(tuple, parts):
                    if seg not in segs:
                        vals = [seg_value(seg, site) for site in range(N)]
                        den = lcm(*(dn for _, _, dn in vals))
                        segs[seg] = den, [(mono, num * (den // dn)) for mono, num, dn in vals]
                    diag.append(segs[seg])
                den = prod(dn for dn, _ in steps + diag)
                L = lcm(L, den)
                words.append((i, j, den, diag[0][1], [(nz, dg) for (_, nz), (_, dg) in zip(steps, diag[1:])]))
        sums = defaultdict(int)
        for i, j, den, first, walk in words:
            c = L // den
            for m, (mono, g) in enumerate(first):
                if not g:
                    continue
                if not walk:
                    sums[i, m, j, m, mono] += c * g
                paths = {(i, m, j, m, mono): c * g}
                for t, (nz, dg) in enumerate(walk, 1 - len(walk)):  # t = 0 at the last step
                    nxt = defaultdict(int) if t else sums
                    for (_, _, _, s, mono), acc in paths.items():
                        for d, kv in nz:
                            n = (s - d) % N
                            seg_mono, v = dg[n]
                            if v:
                                nxt[i, m, j, n, _mono_mul(mono, seg_mono) if seg_mono else mono] += acc * kv * v
                    paths = nxt
        return L, sums

    def int_matrix(self, point):
        """(L, rows): the dense (d N) x (d N) matrix at the point as int rows over L.

        The point is scaled once to ints X over dx: a field is X / dx, its inverse dx / X."""
        (X,), dx = linalg._scaled([self.point_values(point)])
        N, D = self.N, self.n_vars()

        def at(seg, site):
            num = den = 1
            for kind, arg in seg:
                if kind == "c":
                    num, den = num * arg[site].numerator, den * arg[site].denominator
                elif kind == "f":
                    num, den = num * X[_var(arg, site, N)], den * dx
                elif X[_var(arg, site, N)]:
                    num, den = num * dx, den * X[_var(arg, site, N)]
                else:
                    raise ZeroDivisionError(f"field {self.field_names[arg]} vanishes at site {site}")
            return (), num, den

        L, sums = self._walk(at)
        rows = [[0] * D for _ in range(D)]
        for (i, m, j, n, _), v in sums.items():
            rows[_var(i, m, N)][_var(j, n, N)] = v
        return L, rows

    def to_poly(self) -> PolyTensor:
        """Expand the operator words into polynomial entries (no field inverses)."""
        N = self.N

        def at(seg, site):
            mono, num, den = (), 1, 1
            for kind, arg in seg:
                if kind == "finv":
                    raise ValueError("cannot expand a word with field inverses")
                if kind == "f":
                    mono = _mono_mul(mono, ((_var(arg, site, N), 1),))
                else:
                    num, den = num * arg[site].numerator, den * arg[site].denominator
            return mono, num, den

        L, sums = self._walk(at)
        out = PolyTensor(self.field_names, N, self.bracket_scale)
        frac = {}  # one Fraction per numerator, so ``_shift_invariant`` meets repeats by identity
        for (i, m, j, n, mono), c in sums.items():
            if c:
                f = frac.get(c) or frac.setdefault(c, Fraction(c, L))
                poly = out.entries.get((i, m, j, n)) or out.entries.setdefault((i, m, j, n), Poly())
                poly.terms[mono] = f
        return out

    def to_json(self) -> dict:
        """Op-form wire format: words as alternating field-symbol / dpoly factors.

        Kernels are written as shift polynomials over residue exponents (every
        period-N kernel is one), constant diagonals as sequence documents.
        """
        N = self.N

        def factor_doc(factor):
            if factor[0] == "f":
                return {"field": self.field_names[factor[1]]}
            if factor[0] == "finv":
                return {"fieldinv": self.field_names[factor[1]]}
            if factor[0] == "c":
                return {"const": factor[1].to_json()}
            K = factor[1]
            return {"terms": {str((N - j) % N): rat_str(K[j]) for j in range(N) if K[j]}}

        words = []
        for (i, j), wlist in sorted(self.words.items()):
            for word in wlist:
                words.append({"i": i, "j": j, "factors": [factor_doc(f) for f in word]})
        return {**self._header("op"), "words": words}


def as_poly_tensor(P) -> PolyTensor:
    return P if isinstance(P, PolyTensor) else P.to_poly()


# ---------------------------------------------------------------------------
# named tensors
# ---------------------------------------------------------------------------


def _exchange_word(T: OpTensor, i: int, j: int, K: Kernel):
    """Add the exchange word (f i)(k K)(f j) and, for i != j, its partner
    (f j)(k -K^T)(f i); for i == j the word alone, its kernel being odd."""
    T.add_word(i, j, ("f", i), ("k", K), ("f", j))
    if i != j:
        T.add_word(j, i, ("f", j), ("k", -K.transpose()), ("f", i))


def _linear_words(T: OpTensor, c: int) -> OpTensor:
    """Append the linear words R of T's quotient bracket (nu = T.d, fields read
    by ``alias_index``), scaled by c: for each p, block (a^(j), a^(k)) gets
    (f q)(k c D^(j-p))(f p) and (f p)(k -c D^(p-k))(f q), f q left out at q = nu."""
    nu, N = T.d, T.N
    r = [alias_index(nu, name) for name in T.field_names]
    field = {k: ("f", i) for i, k in enumerate(r)}
    for i, j in enumerate(r):
        for l, k in enumerate(r):
            for p in range(max(0, j + k - nu), min(j, k)):
                fq = (field[j + k - p],) if j + k - p < nu else ()
                T.add_word(i, l, *fq, ("k", shift_kernel({j - p: c}, N)), field[p])
                T.add_word(i, l, field[p], ("k", shift_kernel({p - k: -c}, N)), *fq)
    return T


def quotient_tensor(nu: int, phi: OddKernel, names=None) -> OpTensor:
    """The order-nu quotient bracket at phi on the fields a{nu-1}..a0, or on
    ``names``: the exchange words (f j)(k E_jk)(f k), j <= k, of
    ``_exchange_kernels`` with their partners, and ``_linear_words`` at c = 2."""
    names = names or tuple(f"a{k}" for k in reversed(range(nu)))
    T = OpTensor(names, phi.N)
    t = {alias_index(nu, name): i for i, name in enumerate(names)}
    for j in range(nu):
        for k, E in enumerate(_exchange_kernels(nu, j, range(j, nu), phi), j):
            _exchange_word(T, t[j], t[k], E)
    return _linear_words(T, 2)


def closed_tensor(name: str, N: int, phi: OddKernel = None, beta: PerSeq = None):
    """Construct one of the named reduced Poisson tensors on period N, as an OpTensor.

    murho(phi) and abrho(phi) are the full quotient brackets, quotient_tensor
    at nu = 2 and 3 on the fields (mu, rho) and (a, b, rho); toda,
    ftv_u(beta), ftv_S, P0, P1, P2 are the distinguished closed forms (stored
    with the factor-1/2 normalisation their operator displays use).  A phi or
    beta of a period other than N is a ValueError.
    """
    require_period("phi", phi, N)
    require_period("beta", beta, N)
    if name in ("murho", "abrho"):
        if phi is None:
            raise ValueError(f"{name} needs phi")
        nu = 2 if name == "murho" else 3
        return quotient_tensor(nu, phi, _ALIASES[nu][::-1])
    half = Fraction(1, 2)
    if name == "toda":
        T = OpTensor(("mu", "rho"), N, bracket_scale=half)
        MU, RHO = 0, 1
        _exchange_word(T, MU, RHO, shift_kernel({1: 1, 0: -1}, N))
        _exchange_word(T, RHO, RHO, shift_kernel({1: 1, -1: -1}, N))
        return _linear_words(T, 1)
    if name == "ftv_u":
        if beta is None:
            beta = PerSeq.constant(N, 1)
        T = OpTensor(("u",), N, bracket_scale=half)
        U = 0
        _exchange_word(T, U, U, compose(shift_kernel({1: 1, 0: -1}, N).scale(-1), invert(shift_kernel({0: 1, 1: 1}, N))))
        T.add_word(U, U, ("k", shift_kernel({1: 1}, N)), ("c", beta))
        T.add_word(U, U, ("c", beta), ("k", shift_kernel({-1: -1}, N)))
        return T
    if name == "ftv_S":
        T = OpTensor(("S",), N, bracket_scale=half)
        S = 0
        D1 = shift_kernel({1: 1}, N)
        Dm1 = shift_kernel({-1: 1}, N)
        T.add_word(S, S, ("k", D1), ("f", S))
        T.add_word(S, S, ("f", S), ("k", D1))
        T.add_word(S, S, ("k", Dm1.scale(-1)), ("f", S))
        T.add_word(S, S, ("f", S), ("k", Dm1.scale(-1)))
        T.add_word(S, S, ("f", S), ("k", Dm1), ("f", S))
        T.add_word(S, S, ("f", S), ("k", D1.scale(-1)), ("f", S))
        T.add_word(S, S, ("f", S), ("k", D1), ("finv", S), ("k", D1), ("f", S))
        T.add_word(S, S, ("f", S), ("k", Dm1.scale(-1)), ("finv", S), ("k", Dm1), ("f", S))
        return T
    if name == "P0":
        T = OpTensor(("a", "b"), N, bracket_scale=half)
        A, B = 0, 1
        geo = invert(shift_kernel({0: 1, 1: 1, 2: 1}, N))
        _exchange_word(T, A, A, compose(geo, shift_kernel({0: 1, 2: -1}, N)))
        _exchange_word(T, A, B, compose(geo, shift_kernel({1: 1, 2: -1}, N)))
        _exchange_word(T, B, B, compose(geo, shift_kernel({0: 1, 2: -1}, N)))
        T.add_word(A, A, ("k", shift_kernel({1: 1}, N)), ("f", B))
        T.add_word(A, A, ("f", B), ("k", shift_kernel({-1: -1}, N)))
        T.add_word(A, B, ("k", shift_kernel({2: 1, -1: -1}, N)))
        T.add_word(B, A, ("k", shift_kernel({1: 1, -2: -1}, N)))
        T.add_word(B, B, ("f", A), ("k", shift_kernel({1: 1}, N)))
        T.add_word(B, B, ("k", shift_kernel({-1: -1}, N)), ("f", A))
        return T
    if name == "P1":
        # The (a, rho) pair is a(D^2-1)rho / rho(1-D^-2)a: the sign the full
        # quotient bracket produces (the chain-rule oracle pins it).
        T = OpTensor(("a", "b", "rho"), N, bracket_scale=half)
        A, B, RHO = 0, 1, 2
        _exchange_word(T, A, B, shift_kernel({1: 1, 0: -1}, N))
        _exchange_word(T, A, RHO, shift_kernel({2: 1, 0: -1}, N))
        _exchange_word(T, B, B, shift_kernel({1: 1, -1: -1}, N))
        _exchange_word(T, B, RHO, shift_kernel({2: 1, 1: 1, 0: -1, -1: -1}, N))
        _exchange_word(T, RHO, RHO, shift_kernel({2: 1, 1: 1, -1: -1, -2: -1}, N))
        return _linear_words(T, 1)
    if name == "P2":
        T = OpTensor(("a", "b", "rho"), N, bracket_scale=half)
        A, B, RHO = 0, 1, 2
        inv = invert(shift_kernel({0: 1, 1: 1}, N))
        _exchange_word(T, A, A, compose(shift_kernel({0: 1, 1: -1}, N), inv))
        _exchange_word(T, A, RHO, compose(shift_kernel({2: 1, 1: -1}, N), inv))
        _exchange_word(T, B, RHO, shift_kernel({1: 1, 0: -1}, N))
        _exchange_word(T, RHO, RHO, compose(shift_kernel({2: 1, -1: -1}, N), inv))
        return _linear_words(T, 1)
    raise ValueError(f"unknown tensor {name!r}")


_TENSOR_PHI = {
    "toda": (2, 1),
    "P0": (3, 0),
    "P1": (3, 2),
    "P2": (3, 1),
}


def oracle_match(spec: BracketSpec, W: Polygon, name: str) -> Fraction:
    """Max-abs difference between chain-rule brackets and the named closed form.

    The comparison is literal: chain bracket x bracket_scale against the
    tensor entry, over every pair of field sites.  The named tensors require
    the bracket data to carry their distinguished phi; P0 lives on the
    constant Wronskian surface, so the polygon is gauge normalized first.
    The ints v / L of ``int_matrix`` and acc / (df den dg) of ``_int_pairings``
    are cross-multiplied; a Fraction is built only for a nonzero difference.
    """
    _require_shape(spec, W)
    N = spec.N
    if name == "P0":
        W = gauge_normalize(W, PerSeq.constant(N, 1))
    ctx = _DualCtx(W)
    fields = coords(W, ctx)
    if name in ("murho", "abrho"):
        T = closed_tensor(name, N, phi=spec.phi)
    elif name in _TENSOR_PHI:
        want = phi_special(*_TENSOR_PHI[name], N)
        if spec.phi.seq.values != want.seq.values:
            raise ValueError(f"spec.phi is not the distinguished kernel of {name!r}")
        T = closed_tensor(name, N)
    else:
        raise ValueError(f"no chain-rule oracle for tensor {name!r}")
    L, mat = T.int_matrix(fields)
    grads = field_gradients(W, T.field_names, ctx)
    table = _PiTable(spec, W.coordinates())
    sn, sd_den = T.bracket_scale.numerator, T.bracket_scale.denominator * table.L * table.den**2
    res = ZERO
    for (_, df), row, vals in zip(grads, linalg._int_pairings(grads, table.ints, grads), mat):
        for (_, dg), acc, v in zip(grads, row, vals):
            diff = acc * sn * L - v * df * dg * sd_den
            if diff:
                res = max(res, Fraction(abs(diff), df * dg * sd_den * L))
    return res


# ---------------------------------------------------------------------------
# gauge normalisation, Dirac reduction, pushforward
# ---------------------------------------------------------------------------


def gauge_normalize(W: Polygon, beta: PerSeq = None) -> Polygon:
    """Rescale vertices by a periodic gauge so the Wronskian ratio becomes beta.

    The gauge solves Gamma_{m+nu} = q_m Gamma_m with q_m = beta_m w_m /
    w_{m+1} = beta_m / a^(0)_m, a^(0) read from ``coords`` first, so a
    vanishing Wronskian raises DegeneratePolygon at its first site and
    N < nu a ValueError before beta is looked at.  The gauge is unique up to
    one overall scalar per step-orbit, removed by setting Gamma_0 = 1.
    gcd(nu, N) > 1 splits the sites into several orbits and makes the gauge
    non-unique (NonUniqueGauge); otherwise the one orbit covers every site,
    and a q-product other than 1 admits no exact periodic gauge at all
    (GaugeInconsistent).
    """
    a0 = coords(W)["a0"]
    nu, N = W.nu, W.N
    if beta is None:
        beta = PerSeq.constant(N, 1)
    require_period("beta", beta, N)
    if not beta.nonvanishing():
        raise ValueError("beta must be nonvanishing")
    g = gcd(nu, N)
    if g > 1:
        raise NonUniqueGauge(f"gcd(nu, N) = {g} > 1: gauge not unique")
    q = [beta[m] / a0[m] for m in range(N)]
    total = prod(q)
    if total != 1:
        raise GaugeInconsistent(f"orbit through 0: gauge recursion product {total} != 1")
    gamma = [ONE] * N
    m = 0
    for _ in range(N - 1):
        gamma[(m + nu) % N] = gamma[m] * q[m]
        m = (m + nu) % N
    V = tuple(tuple(gamma[m] * x for x in W.V[m]) for m in range(N))
    return Polygon(nu, N, V, W.M)


def dirac_reduce(P_eval, constrained) -> list:
    """Dirac reduction A + B C^-1 B^T of an evaluated bracket matrix.

    P_eval is the full antisymmetric matrix at a point on the constraint
    surface and ``constrained`` lists the constrained indices.  P_eval is
    scaled once to ints P / d, and one fraction-free elimination of [C | B^T]
    ends at p times its rref, p the last pivot: it gives p Z, Z the solution
    of C Z = B^T with zeros in the free coordinates, and p times each
    nullspace vector of C.  So a singular C is accepted as long as the
    couplings lie in its range and that nullspace does not couple to the free
    block, which makes the reduction well defined; otherwise
    ConstraintNotSecondClass is raised.  With A and B read from the ints of
    P, the reduced matrix A + B Z is (p A + B pZ) / (d p), one Fraction per
    entry.  An index outside 0..D-1 is a ValueError.
    """
    if any(not 0 <= i < len(P_eval) for i in constrained):
        raise ValueError(f"constrained indices must lie in 0..{len(P_eval) - 1}")
    dp, rows = _dirac_ints(*linalg._scaled(P_eval), constrained)
    return [[Fraction(x, dp) if x else ZERO for x in row] for row in rows]


def _dirac_ints(P, d: int, constrained) -> tuple:
    """dirac_reduce's int core on the ints P over d: (d p, rows), the reduced matrix as int rows over d p."""
    con = sorted(constrained)
    conset = set(con)
    free = [i for i in range(len(P)) if i not in conset]
    k = len(con)
    red = [[P[i][j] for j in con] + [P[j][i] for j in free] for i in con]
    pivots, p, _ = linalg._int_rref(red)
    if pivots and pivots[-1] >= k:
        raise ConstraintNotSecondClass("couplings do not lie in the range of the constraint block")
    B = [[P[i][j] for j in con] for i in free]
    for f in (c for c in range(k) if c not in pivots):
        # p times the nullspace vector with a 1 in the non-pivot column f
        if any(p * row[f] - sum(row[c] * red[r][f] for r, c in enumerate(pivots)) for row in B):
            raise ConstraintNotSecondClass("constraint block nullspace couples to the free block")
    pZ = [row[k:] for row in red[: len(pivots)]]
    out = []
    for i, brow in zip(free, B):
        acc = [p * P[i][j] for j in free]
        for c, z in zip(pivots, pZ):
            if brow[c]:
                acc = [x + brow[c] * y for x, y in zip(acc, z)]
        out.append(acc)
    return d * p, out


def toda_dirac_vs_ftv(N: int, u: PerSeq, beta: PerSeq) -> Fraction:
    """Residual between Dirac-reduced Toda at rho = beta and the closed form, cross-multiplied in ints."""
    return _toda_ftv_residual(closed_tensor("toda", N), closed_tensor("ftv_u", N, beta=beta), u, beta)


def _toda_ftv_residual(toda: OpTensor, ftv_u: OpTensor, u: PerSeq, beta: PerSeq) -> Fraction:
    """``toda_dirac_vs_ftv`` on the tensors toda and ftv_u(beta), which a caller builds once."""
    L, full = toda.int_matrix({"mu": u, "rho": beta})
    dp, red = _dirac_ints(full, L, [_var(1, m, u.N) for m in range(u.N)])
    L, ftv = ftv_u.int_matrix({"u": u})
    res = max(abs(a * L - b * dp) for ra, rb in zip(red, ftv) for a, b in zip(ra, rb))
    return Fraction(res, abs(dp) * L)


def pushforward_check(u: PerSeq) -> Fraction:
    """Exact residual of the u -> S = u u' change of variable on the reduced bracket.

    Conjugating the u-space tensor by the Jacobian of S = u u' must reproduce
    the S-space closed form; returns the max-abs difference of the two N x N
    matrices.
    """
    if u.N % 2 == 0:
        raise ValueError("N must be odd")
    return _pushforward_residual(closed_tensor("ftv_u", u.N), closed_tensor("ftv_S", u.N), u)


def _pushforward_residual(ftv_u: OpTensor, ftv_S: OpTensor, u: PerSeq) -> Fraction:
    """``pushforward_check`` on the tensors ftv_u and ftv_S at odd N, which a caller builds once."""
    N = u.N
    S = PerSeq(N, tuple(u[m] * u[m + 1] for m in range(N)))
    if not S.nonvanishing():
        raise ZeroDivisionError("S = u u' must be nonvanishing")
    Lu, P_u = ftv_u.int_matrix({"u": u})
    LS, rhs = ftv_S.int_matrix({"S": S})
    (U,), du = linalg._scaled([u.values])
    # the Jacobian of S = u u' is bidiagonal, dS_m = u_{m+1} du_m + u_m du_{m+1},
    # so J P J^T is formed by rows and then by columns, in ints over Lu du^2
    JP = [[U[(m + 1) % N] * a + U[m] * b for a, b in zip(P_u[m], P_u[(m + 1) % N])] for m in range(N)]
    lhs = [[row[n] * U[(n + 1) % N] + row[(n + 1) % N] * U[n] for n in range(N)] for row in JP]
    res = max(abs(a * LS - b * Lu * du * du) for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))
    return Fraction(res, LS * Lu * du * du)


# ---------------------------------------------------------------------------
# Jacobiator and compatibility
# ---------------------------------------------------------------------------


def jacobiator(P, point) -> Fraction:
    """Max-abs Jacobiator of a tensor at a point, exact.

    The maximum of |sum_s P_{I s} d_s P_{J K} + cyclic| over the triples I < J < K
    of field sites that ``_pencil_sweep`` sweeps, its t^0 coefficient with no Q:
    one per shift orbit if P passes the shift-invariance entry check, else all.
    P is assumed antisymmetric and not checked: {u_0, u_1} = u_0 u_1 alone reads 0.
    """
    if point is None:
        raise ValueError("jacobiator needs a point: pencil_certificate is the check with no point")
    L, (x, _, _) = next(_pencil_sweep(as_poly_tensor(P), None, [point]))
    return Fraction(x, L)


def _pencil_sweep(TP: PolyTensor, TQ, points):
    """The Jacobiator of the pencil P + tQ at each point, as polynomials at a None point, by its t-coefficients.

    Yields (L, (x, y, z)) per point: each triple's Jacobiator of P + tQ is
    (x' + t y' + t^2 z') / L, x' = J(P), y' the mixed term (P's values
    against Q's gradients and Q's against P's), z' = J(Q), and x, y, z are
    the max-abs of x', y', z' over the triples: ints at a point, int-coefficient
    polynomials in the fields (read by their largest coefficient) with no
    point.  All three vanish exactly when every member of the pencil
    satisfies Jacobi at the point, or at every point.  TQ = None gives y = z = 0.

    The shift check and ``_int_scale`` run once; ``_int_point`` scales each
    point for both tensors, and ``_int_tables`` evaluates each tensor once,
    values over Lv and gradient entries over Lg, so L = Lv Lg.  No dense
    matrix is built; ``_accumulate`` sums in ints, holding the triples of one
    smallest index a at a time.  It assumes P_JK = -P_KJ and checks nothing:
    only ``pencil_certificate`` adds ``_antisymmetry``.

    When every given tensor passes ``_shift_invariant``, only a = i N is swept,
    and ``_int_tables`` fills row, up and down there alone: each orbit of
    triples under the shift (i, m) -> (i, m + 1) has a member of smallest
    flat index i N.  As polynomials a shifted triple's Jacobiator is,
    up to sign, the triple's relabelled, so (L, xyz) is the full sweep's even
    where Jacobi fails; at a point a failing tensor may read a smaller maximum
    than the full sweep.  A tensor failing the check gets every a.
    """
    if TQ is not None and (TQ.field_names, TQ.N) != (TP.field_names, TP.N):
        raise ValueError("tensors live on different field spaces")
    given = [T for T in (TP, TQ) if T is not None]
    scale = _int_scale([poly for T in given for poly in T.entries.values()])
    step = TP.N if all(_shift_invariant(T) for T in given) else 1
    TQ, D = TQ or PolyTensor(TP.field_names, TP.N), TP.n_vars()
    for point in points:
        X, pw, Lv, Lg = _int_point(scale, None if point is None else TP.point_values(point))
        zero, height = (int, abs) if point is not None else (Poly, _height)
        (VP, GP), (VQ, GQ) = _int_tables(TP, X, pw, step), _int_tables(TQ, X, pw, step)
        xyz = (0, 0, 0)
        for a in range(0, D, step):
            A, B, C = defaultdict(zero), defaultdict(zero), defaultdict(zero)
            for acc, V, G in ((A, VP, GP), (B, VP, GQ), (B, VQ, GP), (C, VQ, GQ)):
                _accumulate(acc, a, D, V, G)
            xyz = tuple(max(m, max(map(height, acc.values()), default=0)) for m, acc in zip(xyz, (A, B, C)))
        yield Lv * Lg, xyz


def _shift_invariant(T: PolyTensor) -> bool:
    """Whether T commutes with the lattice shift, from its entries alone: each
    (i, m, j, n) -> p has the partner (i, m + 1, j, n + 1) (0 if missing) equal
    to p with every variable one site on, site N - 1 wrapping to 0 (re-sorted).
    The shift permutes the keys, so this makes T its own shift.  It reads each
    shifted term of p in the partner, by identity (``to_poly`` shares repeats)
    or ==, up to the first miss; no term count is compared, as containment
    all round an orbit of N shifts forces each partner to equal its shifted p."""
    N, E, zero, moved = T.N, T.entries, Poly(), {}  # moved[v, e] = (v one site on, e)
    for (i, m, j, n), p in E.items():
        q = E.get((i, (m + 1) % N, j, (n + 1) % N), zero).terms
        for mono, c in p.terms.items():
            shifted = []
            for ve in mono:
                if (to := moved.get(ve)) is None:
                    v, e = ve
                    to = moved[ve] = (v + 1 - N if v % N == N - 1 else v + 1, e)
                shifted.append(to)
            if (d := q.get(tuple(shifted)) or q.get(tuple(sorted(shifted)))) is not c and (d is None or d != c):
                return False
    return True


def _height(poly: Poly):
    """The largest absolute coefficient of a polynomial (0 for the zero one)."""
    return max(map(abs, poly.terms.values()), default=0)


def _int_scale(polys):
    """(Lc, K): the lcm of the coefficient denominators of the polys and
    their top degree, which fix the int scaling of every point."""
    Lc = lcm(*{c.denominator for poly in polys for c in poly.terms.values()})
    return Lc, max((sum(map(_second, mono)) for poly in polys for mono in poly.terms), default=0)


def _int_point(scale, x):
    """(X, pw, Lv, Lg): the point x as ints X over the lcm dx of its denominators,
    and the weights pw[k] = Lc dx^(K-k) of a degree-k term, (Lc, K) = scale, under
    which ``_int_poly`` gives values over Lv = Lc dx^K and gradient entries over
    Lg = Lc dx^(K-1) (Lc for K = 0); (None, [Lc], Lc, Lc) for x None."""
    Lc, top = scale
    if x is None:
        return None, [Lc], Lc, Lc
    (X,), dx = linalg._scaled([x])
    pw = [Lc * dx ** (top - k) for k in range(top + 1)]
    return X, pw, pw[0], pw[1] if top else Lc


def _int_poly(poly: Poly, X, pw):
    """(v, grad) of poly at the int point X under the weights pw of ``_int_point``,
    the one evaluator of a polynomial at a point: a term c x^mono of degree k adds
    pw[k] c t, t = X^mono, to the int v and c d_v t to grad[v], a {var: int} dict;
    d_v t = e t // X_v is exact, and only at X_v = 0 are the other powers multiplied out."""
    val, grad = 0, {}
    for mono, c in poly.terms.items():
        k, t = 0, 1
        for v, e in mono:
            k += e
            t *= X[v] ** e
        c = c.numerator * pw[k] // c.denominator
        val += c * t
        for v, e in mono:
            if x := X[v]:
                grad[v] = grad.get(v, 0) + c * e * (t // x)
            elif e == 1:
                grad[v] = grad.get(v, 0) + c * prod(X[u] ** f for u, f in mono if u != v)
    return val, grad


def _sym_poly(poly: Poly, Lc: int):
    """(v, grad) of poly as polynomials: v = Lc poly, with int coefficients,
    and grad[s] = d_s v by ``Poly.diff`` for each variable s of v."""
    v = Poly()
    v.terms = {mono: c.numerator * (Lc // c.denominator) for mono, c in poly.terms.items()}
    return v, {s: v.diff(s) for s in {s for mono in v.terms for s, _ in mono}}


def _int_tables(T: PolyTensor, X, pw, step: int):
    """Tables (V, G) of the nonzero values and gradient entries of T at the int
    point X (polynomials for X None), one ``_int_poly`` (``_sym_poly``) per entry,
    each table entry carrying the part of its accumulator key b * D + c.

    V = (row, col, colD) holds P: row[I] lists (s, P_Is), col[s] lists (I,
    P_Is) by ascending I and colD[s] is its twin (I * D, P_Is).  G = (by_s,
    up, down) holds dP: by_s[s] lists (J, J * D + K, d_s P_JK) with J < K by
    ascending J, up[J] lists (K, K * D, s, d_s P_JK) with K > J, down[K]
    lists (J, s, d_s P_JK) with J > K.  I, J, K, s are flat field-site indices.
    ``_accumulate`` reads row, up and down only at the swept indices, the
    multiples of step, so they stay empty elsewhere; col, colD and by_s are full.
    """
    N, D = T.N, T.n_vars()
    row, col, by_s, up, down = ([[] for _ in range(D)] for _ in range(5))
    for (i, m, j, n), poly in T.entries.items():
        J, K = i * N + m, j * N + n
        val, grad = _int_poly(poly, X, pw) if X is not None else _sym_poly(poly, pw[0])
        if val:
            col[K].append((J, val))
            if not J % step:
                row[J].append((K, val))
        if J < K:
            key, KD, ent = J * D + K, K * D, [] if J % step else up[J]
            for s, d in grad.items():
                if d:
                    by_s[s].append((J, key, d))
                    ent.append((K, KD, s, d))
        elif J > K and not K % step:
            down[K].extend((J, s, d) for s, d in grad.items() if d)
    for ent in col + by_s:
        ent.sort(key=_first)
    colD = [[(I * D, v) for I, v in ent] for ent in col]
    return (row, col, colD), (by_s, up, down)


_first, _second = itemgetter(0), itemgetter(1)


def _accumulate(acc, a: int, D: int, V, G):
    """Add to acc[b * D + c] the terms sum_s P_Is d_s Q_JK + cyclic of the
    triples a < b < c, P read from the value tables V and Q from the
    gradient tables G of ``_int_tables``.

    Only nonzero products are visited: each gradient entry d_s Q_JK meets
    the nonzero P_Is of column s, and the product is kept when (I, J, K) is
    a cyclic rotation of the ascending triple.  The tables carry b * D (or
    the whole key), so each product is one acc[key] += v * d.
    """
    row, col, colD = V
    by_s, up, down = G
    # P_{a s} d_s Q_{b c}
    for s, v in row[a]:
        ent = by_s[s]
        for _, key, d in ent[bisect_right(ent, a, key=_first) :]:
            acc[key] += v * d
    # P_{b s} d_s Q_{c a}
    for c, s, d in down[a]:
        ent = col[s]
        for bD, v in colD[s][bisect_right(ent, a, key=_first) : bisect_left(ent, c, key=_first)]:
            acc[bD + c] += v * d
    # P_{c s} d_s Q_{a b}
    for b, bD, s, d in up[a]:
        ent = col[s]
        for c, v in ent[bisect_right(ent, b, key=_first) :]:
            acc[bD + c] += v * d


def compatibility(P, Q, points) -> Fraction:
    """Max over the points of the largest t-coefficient of the Jacobiator of P + tQ.

    Tensor entries are polynomial, so at a fixed point the Jacobiator of the
    pencil is a polynomial of degree two in t; ``_pencil_sweep`` reads its
    three coefficients exactly at each point over the triples it sweeps (one
    per shift orbit when P and Q both pass the shift check, made once for all
    the points, else every triple).  Their vanishing certifies Jacobi for
    every member of the pencil on those triples at that point.  A zero at
    every sampled point is evidence of compatibility, not a proof of it
    (``pencil_certificate`` is the proof).  P and Q are assumed antisymmetric
    and not checked: {u_0, u_1} = u_0 u_1 alone reads 0.
    No point, a None point, or tensors on different field spaces: ValueError.
    """
    points = list(points)
    if not points or None in points:
        raise ValueError("at least one point is required, and no None: pencil_certificate is the check with no point")
    TP, TQ = as_poly_tensor(P), as_poly_tensor(Q)
    return max(Fraction(max(xyz), L) for L, xyz in _pencil_sweep(TP, TQ, points))


def pencil_certificate(P, Q=None) -> Fraction:
    """The symbolic certificate of P, or of the pencil P + tQ, at its period N.

    The largest absolute coefficient, as polynomials in the field variables,
    of every P_JK + P_KJ (and Q_JK + Q_KJ), the diagonal included, and of the
    three t-coefficients of every triple's Jacobiator (``_pencil_sweep`` at
    the None point).  Zero certifies that P, or every member of the pencil, is an
    antisymmetric tensor satisfying Jacobi at every field point of period N;
    no point is sampled.  Tensors on different field spaces: ValueError.
    """
    TP, TQ = as_poly_tensor(P), None if Q is None else as_poly_tensor(Q)
    L, xyz = next(_pencil_sweep(TP, TQ, [None]))
    return max(Fraction(max(xyz), L), *(_antisymmetry(T) for T in (TP, TQ) if T is not None))


def _antisymmetry(T: PolyTensor) -> Fraction:
    """The largest absolute coefficient of T_JK + T_KJ over the entries, 2 T_JJ on the diagonal."""
    E, zero = T.entries, Poly()
    return Fraction(max((_height(p + E.get((j, n, i, m), zero)) for (i, m, j, n), p in E.items()), default=0))


def shift_certificate(P, direction) -> Fraction:
    """Certify that P + lam LP is Poisson for every lam, LP the Lie derivative
    of P along the unit shift of one field x (``direction``, a name or an index).

    If P is at most linear in x, P(. + lam e_x) = P + lam LP, and a
    translation has the identity differential, so every P + lam LP is Poisson
    exactly when P is: the result is ``pencil_certificate(P)``.  A P of
    degree 2 or more in x gives 1.
    """
    TP = as_poly_tensor(P)
    if isinstance(direction, str) and direction not in TP.field_names:
        raise ValueError(f"direction {direction!r} is not one of the fields {TP.field_names}")
    fidx = direction if isinstance(direction, int) else TP.field_names.index(direction)
    if not 0 <= fidx < TP.d:
        raise ValueError(f"direction {direction} is not a field index in 0..{TP.d - 1}")
    fam = range(_var(fidx, 0, TP.N), _var(fidx + 1, 0, TP.N))
    if any(sum(e for v, e in mono if v in fam) >= 2 for poly in TP.entries.values() for mono in poly.terms):
        return ONE
    return pencil_certificate(TP)
