"""The quadratic exchange bracket on the space of twisted polygons.

A twisted polygon is a pair (V, M): row vectors V_0, ..., V_{N-1} in Q^nu
together with a monodromy M in SL_nu fixing the extension rule
V_{m+N} = V_m M.  The bracket is parametrised by a skew r-matrix R, the
Casimir element C and an odd periodic kernel phi:

    {V_m (x) V_n} = (V_m (x) V_n) [ R + sgn(m-n) Q + phi_{m-n} Id(x)Id ],

where Q := C + Id(x)Id acts as the coordinate swap on Q^nu (x) Q^nu.  The
V-M and M-M blocks are the unique quadratic completions for which the
extension rule is compatible with the bracket (the quasi-periodicity check
below verifies this exactly); writing A_pm = R +- Q they read

    {V_m^1, M^2}  = V_m^1 [ M^2 A_- - A_+ M^2 ],
    {M^1,  M^2}   = (M(x)M) A_-  + A_+ (M(x)M) - M^1 A_+ M^2 - M^2 A_- M^1.

All values are exact rationals.  Sign and leg conventions are pinned jointly
by the antisymmetry, Jacobi, momentum and quasi-periodicity suites.

All three blocks are quadratic in the coordinates; a V-V block depends on
(m, n) only through sgn(m-n) and phi_{m-n}, the others not at all.  So the
coordinate bracket matrix Pi is assembled in one place, ``_pi_cells``: int
cells of triples (u, v, c), each an entry sum g c U_u W_v / L over two
slices of the coordinates, read from the nonzeros of R +- Q and A_pm over
their gcd g: one immutable set per (R, C), built once per process for all
its specs, O(nu^4) of them whatever N, phi and L.  ``_PiTable``
evaluates them block by block in ints at the polygon's scaled coordinates:
the antisymmetry check reads the ints directly, the quasi-periodicity check
the ints and the table's own sign-+1 V-V cells, and ``jacobi_residual`` the
int gradients of the entries it needs from the same cells.  The
observables of a polygon, ``_DualCtx.wronskian``, ``field`` and ``proj``,
are triples (value, grad, den), grad a sparse {var: int} covector over the
coordinates standing for grad / den: fields come from one int solve per
site, Wronskians from ``linalg.det_grad`` on the same elimination, and
affine-chart coordinates from the quotient rule in ints.  Every chain-rule
bracket pairs such int gradients against the ints of Pi with
``linalg._int_pairings`` and sums or compares in ints, with no Fraction per
entry; the momentum check contracts each dw_m with the ints of Pi itself,
one Fraction per site.  The projective closed form is one contraction of
the nonzeros of R with the chart points (v, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from random import Random

from . import linalg
from .lattice_ops import Kernel, PerSeq, require_period, sign
from .linalg import ONE, ZERO, det_grad, rat


class DegeneratePolygon(ValueError):
    """Raised when a polygon has a vanishing discrete Wronskian."""


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polygon:
    """A twisted polygon: N row vectors in Q^nu plus a monodromy in SL_nu."""

    nu: int
    N: int
    V: tuple
    M: tuple

    def __post_init__(self):
        V = tuple(tuple(rat(x) for x in row) for row in self.V)
        M = tuple(tuple(rat(x) for x in row) for row in self.M)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "M", M)
        if len(V) != self.N or any(len(row) != self.nu for row in V):
            raise ValueError("V must hold N rows of length nu")
        if len(M) != self.nu or any(len(row) != self.nu for row in M):
            raise ValueError("M must be nu x nu")
        if linalg.det([list(r) for r in M]) != 1:
            raise ValueError("monodromy must have determinant 1")

    def n_vars(self) -> int:
        return self.N * self.nu + self.nu * self.nu

    def var_v(self, m: int, a: int) -> int:
        return (m % self.N) * self.nu + a

    def var_m(self, i: int, j: int) -> int:
        return self.N * self.nu + i * self.nu + j

    def coordinates(self) -> list:
        out = [x for row in self.V for x in row]
        out.extend(x for row in self.M for x in row)
        return out


def group_act(p: PerSeq, g, W: Polygon) -> Polygon:
    """The commuting scaling/projective actions: (p, g) . (V, M) = (pVg^-1, gMg^-1).

    With g = G / d over ints, g^-1 = d adj(G) / det G by ``linalg._int_adjugate``.
    """
    if not p.nonvanishing():
        raise ValueError("scaling sequence must be nonvanishing")
    g = [[rat(x) for x in row] for row in g]
    G, d = linalg._scaled(g)
    det_g, adj = linalg._int_adjugate(G)
    if not det_g:
        raise ValueError("group element must be invertible")
    ginv = [[Fraction(d * x, det_g) for x in row] for row in adj]
    V = linalg.mat_mul([list(r) for r in W.V], ginv)
    M = linalg.mat_mul(linalg.mat_mul(g, [list(r) for r in W.M]), ginv)
    return Polygon(W.nu, W.N, tuple(tuple(p[m] * x for x in V[m]) for m in range(W.N)), tuple(map(tuple, M)))


def random_polygon(nu: int, N: int, rng: Random) -> Polygon:
    """A random nondegenerate polygon with small-height rational entries.

    The monodromy is obtained by solving the extension rule against nu extra
    sampled rows and scaling its last row to normalize the determinant to 1.
    Each entry n / d has d in 1..3, so 6 times the rows are ints: eliminating
    [A | B] gives M = A^-1 B and det A (its signed last pivot), and
    ``linalg._int_det`` tests det B and every site's Wronskian.
    """
    if N < nu:
        raise ValueError("need N >= nu to pose the extension rule on sampled rows")
    for _ in range(500):
        drawn = [[(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nu)] for _ in range(N + nu)]
        v = [[x * (6 // d) for x, d in row] for row in drawn]
        aug = [a + b for a, b in zip(v, v[N:])]
        pivots, p, sign = linalg._int_rref(aug)
        det_b = linalg._int_det([r[:] for r in v[N:]])
        if pivots != list(range(nu)) or not det_b:  # det A = 0 or det B = 0
            continue
        # M = A^-1 B with its last row divided by det M = det_b / det A, det A = sign p, as ints over p det_b
        M = [[x * (sign * p if c == nu - 1 else det_b) for x in row[nu:]] for c, row in enumerate(aug)]
        ext = v[:N] + [[sum(x * mc[a] for x, mc in zip(row, M)) for a in range(nu)] for row in v[: nu - 1]]
        if all(linalg._int_det([r[:] for r in ext[m : m + nu]]) for m in range(N)):
            V = tuple(tuple(Fraction(x, d) for x, d in row) for row in drawn[:N])
            return Polygon(nu, N, V, tuple(tuple(Fraction(x, p * det_b) for x in row) for row in M))
    raise RuntimeError("failed to sample a nondegenerate polygon")


# ---------------------------------------------------------------------------
# r-matrix data
# ---------------------------------------------------------------------------


def _pair(nu: int, a: int, b: int) -> int:
    return a * nu + b


def _nonzeros(X, nu: int) -> list:
    """The nonzero entries of a nu^2 x nu^2 matrix as (p, q, r, s, x): row (p, q), column (r, s)."""
    return [
        (i // nu, i % nu, j // nu, j % nu, x)
        for i, row in enumerate(X)
        for j, x in enumerate(row)
        if x
    ]


def default_rc(nu: int):
    """The standard skew r-matrix and the Casimir element for sl_nu.

    R = sum_{i<j} (E_ij (x) E_ji - E_ji (x) E_ij) and C is normalized so that
    C + Id(x)Id is the coordinate swap; this is the normalization under which
    (xi (x) eta)(C + Id(x)Id) = eta (x) xi, which the vertex bracket and the
    momentum identities require.  The pair satisfies the modified Yang-Baxter
    equation (verify_ybe returns 0).
    """
    if nu < 2:
        raise ValueError("nu must be >= 2")
    R, C = linalg.zeros(nu * nu, nu * nu), linalg.zeros(nu * nu, nu * nu)
    for i, j in permutations(range(nu), 2):
        # E_ij (x) E_ji as an endomorphism: (a,b) -> (c,d) entry
        # (E_ij)_{ac} (E_ji)_{bd} = [a=i][c=j][b=j][d=i]
        ij, ji = _pair(nu, i, j), _pair(nu, j, i)
        R[ij][ji] = ONE if i < j else -ONE
        # the swap minus the identity, which cancel at (i,i),(i,i)
        C[ij][ji], C[ij][ij] = ONE, -ONE
    return R, C


def _leg(terms: list, nu: int, p: int, q: int) -> dict:
    """X, given by its nonzeros, on the legs p < q of (Q^nu)^(x)3, as sparse rows {row: [(col, x)]}."""
    out = {}
    for a, b, c, d, x in terms:
        for e in range(nu):
            row, col = [e] * 3, [e] * 3
            row[p], row[q], col[p], col[q] = a, b, c, d
            out.setdefault((row[0] * nu + row[1]) * nu + row[2], []).append(((col[0] * nu + col[1]) * nu + col[2], x))
    return out


def verify_ybe(R, C) -> Fraction:
    """Max-abs entry of [R12,R13] + [R12,R23] + [R13,R23] + [C12,C13], by sparse products."""
    n2 = len(R)
    nu = isqrt(n2)
    if nu * nu != n2 or len(C) != n2 or any(len(row) != n2 for row in (*R, *C)):
        raise ValueError("R and C must be nu^2 x nu^2 on the same nu")
    R, C = _nonzeros(R, nu), _nonzeros(C, nu)
    r12, r13, r23 = (_leg(R, nu, p, q) for p, q in ((0, 1), (0, 2), (1, 2)))
    c12, c13 = (_leg(C, nu, 0, q) for q in (1, 2))
    acc = {}
    for X, Y in ((r12, r13), (r12, r23), (r13, r23), (c12, c13)):
        for A, B, s in ((X, Y, 1), (Y, X, -1)):
            for i, row in A.items():
                for k, x in row:
                    for j, y in B.get(k, ()):
                        acc[i, j] = acc.get((i, j), ZERO) + s * x * y
    return max((abs(x) for x in acc.values()), default=ZERO)


@dataclass(frozen=True)
class BracketSpec:
    """The data (nu, N, R, C, phi) defining the bracket.

    R and C are the dense nu^2 x nu^2 matrices a caller gives, read once
    per spec as their nonzeros.  _cells, from _pi_template alone, is read
    once per spec; its cells are shared by every spec on the same (R, C).
    """

    nu: int
    N: int
    R: tuple
    C: tuple
    phi: Kernel

    def __post_init__(self):
        R = tuple(tuple(rat(x) for x in row) for row in self.R)
        C = tuple(tuple(rat(x) for x in row) for row in self.C)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "C", C)
        n2 = self.nu * self.nu
        if len(R) != n2 or len(C) != n2 or any(len(row) != n2 for row in (*R, *C)):
            raise ValueError("R and C must be nu^2 x nu^2")
        require_period("phi", self.phi, self.N)

    @classmethod
    def standard(cls, nu: int, N: int, phi: Kernel) -> "BracketSpec":
        R, C = default_rc(nu)
        return cls(nu, N, tuple(tuple(r) for r in R), tuple(tuple(r) for r in C), phi)

    @cached_property
    def _pi_template(self) -> tuple:
        """The sparse data _pi_cells builds Pi's cells from, over one denominator L.

        (L, vv, phi, a_minus, a_plus): vv[s] lists the nonzeros of R + s Q
        for s in (0, 1, -1), Q = C + Id(x)Id summed over the nonzeros of C,
        in row-major order, each as (p, q, r, s, int): row (p, q), column
        (r, s), times L.  phi[k] is phi_k L for k in [0, N).  a_minus and
        a_plus, the factors A_pm = R +- Q of the V-M and M-M blocks, are
        vv[-1] and vv[1]; a probe of those blocks may replace them alone.
        Sums are ints over Lr = lcm of R's and C's denominators (R +- Q's too).
        """
        nu = self.nu
        R, C = (_nonzeros(X, nu) for X in (self.R, self.C))
        Lr = lcm(*(x.denominator for *_, x in R + C))
        R, Q = ({t[:4]: t[4].numerator * (Lr // t[4].denominator) for t in X} for X in (R, C))
        Q.update({(a, b, a, b): Q.get((a, b, a, b), 0) + Lr for a in range(nu) for b in range(nu)})
        phi = [self.phi[k] for k in range(self.N)]
        L = lcm(Lr, *(x.denominator for x in phi))
        keys, up = sorted(R.keys() | Q.keys()), L // Lr
        vv = [[(*k, x * up) for k in keys if (x := R.get(k, 0) + s * Q.get(k, 0))] for s in (0, 1, -1)]
        return L, vv, [x.numerator * (L // x.denominator) for x in phi], vv[-1], vv[1]

    _cells = cached_property(lambda self: _pi_cells(self))


class _DualCtx:
    """Vertices, Wronskians and fields of a polygon with exact int gradients over all coordinates.

    A vertex entry is (value, grad, den), grad a dict of ints over den, one
    den per vertex: the unit gradient for V_m with m < N, and for V_m =
    V_{m-N} M with N <= m < 2N the partials M_ca in V_{m-N}^c and V_{m-N}^c
    in M_ca, the value read from the same int product.  Fields at sites
    0..N-1 need no later vertex unless N < nu, which raises ValueError.
    ``wronskian``, ``field`` and ``proj`` return observables in the same
    shape (value, grad, den).  One adjugate of B_m, the rows V_m..V_{m+nu-1},
    in ints per site and context gives w_m = det B_m by ``linalg.det_grad``
    and solves c^T B_m = V_{m+nu}: ``value`` reads a^(k)_m = (-1)^(nu-1-k) c_k
    alone, ``factor`` holds dc^T = (dV_{m+nu} - c^T dB_m) B_m^-1 as nu sparse
    covectors and a nu x nu mix, and ``field`` mixes one gradient from it.
    ``proj`` is the one reader of the affine chart v_m = V_m / (V_m)_{nu-1},
    for the chain-rule tables and the projective closed form alike.
    """

    def __init__(self, W: Polygon):
        self.W = W
        self.nu = W.nu
        self.N = W.N
        self._vertices: dict[int, list] = {}
        self._sites: dict[int, tuple] = {}
        self._factors: dict[int, tuple] = {}
        self._m, self._dm = linalg._scaled(W.M)

    def vertex(self, m: int) -> list:
        if not 0 <= m < 2 * self.N:
            raise ValueError(f"vertex {m} is beyond V_0..V_{2 * self.N - 1}: fields need N >= nu")
        row = self._vertices.get(m)
        if row is None:
            W, nu, mi, dm = self.W, self.nu, self._m, self._dm
            if m < self.N:
                row = [(x, {W.var_v(m, a): 1}, 1) for a, x in enumerate(W.V[m])]
            else:
                (v,), dv = linalg._scaled([W.V[m - self.N]])
                row = []
                for a in range(nu):
                    grad = {W.var_v(m, c): mi[c][a] * dv for c in range(nu)}
                    grad.update((W.var_m(c, a), v[c] * dm) for c in range(nu))
                    row.append((Fraction(sum(x * mi[c][a] for c, x in enumerate(v)), dv * dm), grad, dv * dm))
            self._vertices[m] = row
        return row

    def _site(self, m: int) -> tuple:
        """(rows V_m..V_{m+nu}, (d, det, adj) of d B_m in ints, c, cd), once per site."""
        site = self._sites.get(m)
        if site is None:
            nu = self.nu
            rows = [self.vertex(m + r) for r in range(nu + 1)]
            B, d = linalg._scaled([[x for x, _, _ in row] for row in rows[:nu]])
            delta, adj = linalg._int_adjugate(B)
            if not delta:
                raise DegeneratePolygon(f"Wronskian vanishes at site {m}: V_{m}..V_{m + nu - 1} are dependent")
            (v,), dv = linalg._scaled([[x for x, _, _ in rows[nu]]])
            # c^T B_m = V_{m+nu} as c_k = c[k] / cd, since B^-1 = d adj / delta; c[nu] = -cd
            cd = delta * dv
            c = [d * sum(x * adj[a][j] for a, x in enumerate(v)) for j in range(nu)] + [-cd]
            site = self._sites[m] = (rows, (d, delta, adj), c, cd)
        return site

    def wronskian(self, m: int) -> tuple:
        rows, solved, _, _ = self._site(m)
        return det_grad(rows[:-1], solved)

    def value(self, k: int, m: int) -> Fraction:
        """a^(k)_m alone, from the solve at site m, with no gradient built."""
        _, _, c, cd = self._site(m)
        return Fraction((-1) ** (self.nu - 1 - k) * c[k], cd)

    def factor(self, m: int) -> tuple:
        """(H, K, den) in ints at site m: grad a^(k)_m = sum_a K[a][k] H[a] / den, H[a] about nu + 1 entries."""
        if m not in self._factors:
            nu, (rows, (d, delta, adj), c, cd) = self.nu, self._site(m)
            dg = lcm(*(den for row in rows for _, _, den in row))
            # H[a] = (dV_{m+nu} - c^T dB_m)_a cd dg and K[a][k] = (-1)^(nu-1-k) d adj[a][k]
            H = [linalg._sparse_sum((-x * (dg // row[a][2]), row[a][1]) for x, row in zip(c, rows)) for a in range(nu)]
            K = [[(-1) ** (nu - 1 - k) * d * adj[a][k] for k in range(nu)] for a in range(nu)]
            self._factors[m] = (H, K, cd * dg * delta)
        return self._factors[m]

    def field(self, k: int, m: int) -> tuple:
        """a^(k)_m = alpha^(k)/w for k >= 1 and w'/w for k = 0, its gradient mixed from ``factor``."""
        H, K, den = self.factor(m)
        grad = linalg._sparse_sum((row[k], h) for row, h in zip(K, H))
        g = gcd(den, *grad.values())  # smaller ints make every pairing cheaper
        return self.value(k, m), {v: x // g for v, x in grad.items()}, den // g

    def proj(self, m: int, comp: int) -> tuple:
        """Affine-chart coordinate v_m^comp = (V_m)_comp / (V_m)_{nu-1}, by the quotient rule in ints.

        A vanishing (V_m)_{nu-1} is a chart violation, a ValueError.  For
        a = an / ad, b = bn / bd with gradients ga, gb over D:
        d(a / b) = (bn ad bd ga - an bd^2 gb) / (ad D bn^2).
        """
        (a, ga, D), (b, gb, _) = self.vertex(m)[comp], self.vertex(m)[self.nu - 1]
        if not b:
            raise ValueError(f"chart violation: last component of V_{m} vanishes")
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        return a / b, linalg._sparse_sum(((bn * ad * bd, ga), (-an * bd * bd, gb))), ad * D * bn * bn


# ---------------------------------------------------------------------------
# the coordinate bracket matrix: one integer cell template for values and gradients
# ---------------------------------------------------------------------------


def _pi_cells(spec: BracketSpec) -> tuple:
    """Pi's cell template (L, phi, g, vv, vm, mm), from spec._pi_template alone.

    A cell lists int triples (u, v, x) for sum g x U_u W_v / L over two
    slices U, W of the coordinates.  Pi at (V_m^a, V_n^b) is cell
    vv[sgn(m-n)][a][b] on (V_m, V_n) plus phi_{m-n} V_m^a V_n^b / L; at
    (V_m^a, M_ij) it is vm[a][i nu + j] on (V_m, M), at (M_ij, V_m^a) minus
    that, and at (M_P, M_Q) mm[P][Q] on (M, M).  No cell depends on m, n,
    N or phi: ``_cell_set`` builds them from the r-matrix ints over their gcd
    g once per process, so every spec on one (R, C) shares them.
    """
    L, vv, phi, a_minus, a_plus = spec._pi_template
    g = gcd(*(x for terms in (*vv, a_minus, a_plus) for *_, x in terms)) or 1
    return L, phi, g, *_cell_set(spec.nu, *(tuple((*t[:4], t[4] // g) for t in ts) for ts in (a_minus, a_plus, *vv)))


@lru_cache
def _cell_set(nu: int, a_minus: tuple, a_plus: tuple, *vv: tuple) -> tuple:
    """(vv, vm, mm) as nested tuples, which a shared set needs, from the nonzeros of A_pm and R + s Q."""
    n2 = nu * nu
    vv_cells = [[[[] for _ in range(nu)] for _ in range(nu)] for _ in vv]
    vm, mm = [[[] for _ in range(n2)] for _ in range(nu)], [[[] for _ in range(n2)] for _ in range(n2)]
    # V-V: {V_m (x) V_n} = (V_m (x) V_n) [R + sgn(m-n) Q + phi_{m-n} Id(x)Id]
    for cells, terms in zip(vv_cells, vv):
        for c, d, a, b, x in terms:
            cells[a][b].append((c, d, x))
    # V-M: {V_m^a, M_ij} = sum_c V_m^c [(1(x)M) A_- - A_+ (1(x)M)]_{(c,i),(a,j)}
    #      = sum_c V_m^c [sum_s M_is A_-[(c,s),(a,j)] - sum_q A_+[(c,i),(a,q)] M_qj].
    for c, s, a, j, x in a_minus:
        for i in range(nu):
            vm[a][i * nu + j].append((c, i * nu + s, x))
    for c, i, a, q, x in a_plus:
        for j in range(nu):
            vm[a][i * nu + j].append((c, q * nu + j, -x))
    # M-M: {M_i1j1, M_i2j2} is the ((i1,i2),(j1,j2)) entry of
    # (M(x)M) A_- + A_+ (M(x)M) - M^1 A_+ M^2 - M^2 A_- M^1.  Each nonzero of
    # A_pm fixes four of the eight indices; u and v run over the two left free.
    for u in range(nu):
        for v in range(nu):
            # M_{i1 r} M_{i2 s} A_-[(r,s),(j1,j2)] with i1 = u, i2 = v
            for r, s, j1, j2, x in a_minus:
                mm[u * nu + j1][v * nu + j2].append((u * nu + r, v * nu + s, x))
            # A_+[(i1,i2),(r,s)] M_{r j1} M_{s j2} with j1 = u, j2 = v
            for i1, i2, r, s, x in a_plus:
                mm[i1 * nu + u][i2 * nu + v].append((r * nu + u, s * nu + v, x))
            # -M_{i1 r} A_+[(r,i2),(j1,s)] M_{s j2} with i1 = u, j2 = v
            for r, i2, j1, s, x in a_plus:
                mm[u * nu + j1][i2 * nu + v].append((u * nu + r, s * nu + v, -x))
            # -M_{i2 s} A_-[(i1,s),(r,j2)] M_{r j1} with j1 = u, i2 = v
            for i1, s, r, j2, x in a_minus:
                mm[i1 * nu + u][v * nu + j2].append((v * nu + s, r * nu + u, -x))
    *vv_cells, vm, mm = (tuple(tuple(map(tuple, row)) for row in block) for block in (*vv_cells, vm, mm))
    return tuple(vv_cells), vm, mm


class _PiTable:
    """Pi at one coordinate point, block by block from the spec's cell template.

    The coordinates are scaled to ints X over their common denominator den,
    so each value of Pi is an int over L den^2 and each gradient entry an int
    over L den; the coordinates need not form a Polygon.  Values and
    gradients read the cells of _pi_cells, shared by every spec on one
    (R, C); each reader multiplies one slice by their gcd g, not an entry.
    """

    def __init__(self, spec: BracketSpec, coords):
        self.nu, self.N = spec.nu, spec.N
        self.L, self.phi, self.g, *self.cells = spec._cells
        (self.X,), self.den = linalg._scaled([coords])

    @cached_property
    def ints(self) -> list:
        """L den^2 Pi at the point: a D x D matrix of ints, built once, site pair by site pair."""
        (vv, vm, mm), phi, nu, N, g = self.cells, self.phi, self.nu, self.N, self.g
        base = N * nu
        V, M = [self.X[m * nu : m * nu + nu] for m in range(N)], self.X[base:]
        gM, rows = [g * x for x in M], []
        for m, U in enumerate(V):
            gU, block = [g * x for x in U], [[] for _ in range(nu)]
            for n, W in enumerate(V):
                cells, p = vv[sign(m - n)], phi[(m - n) % N]
                for a, row in enumerate(block):
                    pu = p * U[a]
                    for b, cell in enumerate(cells[a]):
                        acc = pu * W[b]
                        for c, d, x in cell:
                            acc += x * gU[c] * W[d]
                        row.append(acc)
            for a, row in enumerate(block):
                row.extend(sum(x * gU[c] * M[k] for c, k, x in cell) for cell in vm[a])
            rows += block
        mrows = [[sum(x * gM[k] * M[l] for k, l, x in cell) for cell in cells] for cells in mm]
        rows += [[-row[base + P] for row in rows] + mrow for P, mrow in enumerate(mrows)]
        return rows

    def gradient(self, i: int, j: int) -> dict:
        """L den d Pi_ij at the point, as a sparse int covector {s: L den d_s Pi_ij}, from the cell of (i, j)."""
        nu, base = self.nu, self.N * self.nu
        if i >= base > j:
            return {s: -x for s, x in self.gradient(j, i).items()}
        vv, vm, mm = self.cells
        (oi, u), (oj, v) = ((k - k % nu, k % nu) if k < base else (base, k - base) for k in (i, j))
        X, k, out = self.X, (oi - oj) // nu, {}
        # the cell of (i, j), its sum times g, then phi_{m-n} at (a, b) for a V-V entry
        for a, b, x in vv[sign(k)][u][v] if j < base else (mm if i >= base else vm)[u][v]:
            out[oi + a] = out.get(oi + a, 0) + x * X[oj + b]
            out[oj + b] = out.get(oj + b, 0) + x * X[oi + a]
        out = {s: self.g * x for s, x in out.items()}
        if j < base and (p := self.phi[k % self.N]):
            out[oi + u] = out.get(oi + u, 0) + p * X[oj + v]
            out[oj + v] = out.get(oj + v, 0) + p * X[oi + u]
        return {s: x for s, x in out.items() if x}


# ---------------------------------------------------------------------------
# chain-rule bracket and structure checks
# ---------------------------------------------------------------------------


def momentum_formula_coeff(spec: BracketSpec, m: int, n: int) -> Fraction:
    """The scalar multiplying w_m V_n in {w_m, V_n}.

    sgn(m-n) + sum_{r=0}^{nu-1} phi_{m+r-n} + sum_{r=1}^{nu-1} [m+r=n mod N].
    """
    nu, N = spec.nu, spec.N
    c = Fraction(sign(m - n))
    for r in range(nu):
        c += spec.phi[m + r - n]
    for r in range(1, nu):
        if (m + r - n) % N == 0:
            c += 1
    return c


def momentum_residual(spec: BracketSpec, W: Polygon) -> Fraction:
    """Max-abs residual of the scaling-action momentum identity over all (m, n).

    The coefficient of {w_m, V_n} = c w_m V_n depends on m - n only, so the
    2N - 1 values c_d = momentum_formula_coeff(spec, d, 0) are scaled to ints
    cs over one dc.  Per site m, dw_m = g / dg against the vertex columns of
    Pi is one int row u over dg L den^2, compared with cs w_m X by
    cross-multiplication; one Fraction per site.
    """
    nu, N = W.nu, W.N
    ctx = _DualCtx(W)
    table = _PiTable(spec, W.coordinates())
    P, X, scale = table.ints, table.X, table.L * table.den
    (cs,), dc = linalg._scaled([[momentum_formula_coeff(spec, d, 0) for d in range(1 - N, N)]])
    res = ZERO
    for m in range(N):
        w, g, dg = ctx.wronskian(m)
        u = [0] * (N * nu)
        for i, c in g.items():
            u = [x + c * y for x, y in zip(u, P[i])]
        lhs, rhs = dc * w.denominator, w.numerator * dg * scale
        top = max(abs(x * lhs - cs[m - k // nu + N - 1] * rhs * X[k]) for k, x in enumerate(u))
        res = max(res, Fraction(top, dg * scale * table.den * lhs))
    return res


def quasiperiodicity_residual(spec: BracketSpec, W: Polygon) -> Fraction:
    """Consistency of the extension rule with the bracket.

    For m < n the difference m+N-n stays inside the sign window, so
    {V_{m+N}, V_n} may be computed both directly from the bracket formula
    (sign +1, phi periodic) and by the product rule through V_m M; the two
    must agree exactly.  Both sides are ints over L den^3 from one _PiTable:
    the direct side reads its sign-+1 V-V cells and phi at (V_m M, V_n), the
    product-rule side its ints.
    """
    nu, N = spec.nu, spec.N
    table = _PiTable(spec, W.coordinates())
    P, X, phi, cells = table.ints, table.X, table.phi, table.cells[0][1]
    base = N * nu
    M = [X[base + c * nu : base + c * nu + nu] for c in range(nu)]
    res = 0
    for m in range(N):
        vm = X[m * nu : m * nu + nu]
        ext = [sum(vm[c] * M[c][a] for c in range(nu)) for a in range(nu)]  # V_m M, over den^2
        gext = [table.g * x for x in ext]
        for n in range(m + 1, N):
            vn, p = X[n * nu : n * nu + nu], phi[(m - n) % N]
            for a, cell_row in enumerate(cells):
                pe = p * ext[a]
                for b, cell in enumerate(cell_row):
                    # {V_m^c M_ca, V_n^b} = M_ca {V_m^c, V_n^b} + V_m^c {M_ca, V_n^b}
                    j = n * nu + b
                    acc = pe * vn[b]
                    for c, d, x in cell:
                        acc += x * gext[c] * vn[d]
                    for c in range(nu):
                        acc -= M[c][a] * P[m * nu + c][j] - vm[c] * P[j][base + c * nu + a]
                    res = max(res, abs(acc))
    return Fraction(res, table.L * table.den**3)


def antisymmetry_residual(spec: BracketSpec, W: Polygon) -> Fraction:
    """Max |Pi_ij + Pi_ji|, over L den^2 from the ints of the table."""
    table = _PiTable(spec, W.coordinates())
    P = table.ints
    D = len(P)
    res = max(abs(P[i][j] + P[j][i]) for i in range(D) for j in range(i, D))
    return Fraction(res, table.L * table.den**2)


def _random_sparse_linear(W: Polygon, rng: Random) -> tuple:
    """An int covector (f, 6) on 1-3 coordinates: f_v / 6 = a / b, a in -4..4 but not 0, b in 1..3."""
    D = W.n_vars()
    support = rng.sample(range(D), rng.randint(1, 3))
    return {v: (rng.randint(-4, 4) or 1) * 6 // rng.randint(1, 3) for v in support}, 6


def jacobi_residual(spec: BracketSpec, W: Polygon, trials: int, seed: int) -> Fraction:
    """Max Jacobiator over random triples of sparse linear observables.

    For linear f, g, h the Jacobiator term {f, {g, h}} pairs f against Pi and
    the gradient d{g, h} = sum_ij g_i h_j d Pi_ij, which is read from the
    table at the few entries (i, j) that g and h select.  In ints each term
    f^T Pi d{g, h} is over df dg dh L^2 den^3, so a trial sums its three.
    """
    rng = Random(seed)
    table = _PiTable(spec, W.coordinates())
    res = ZERO
    for _ in range(trials):
        trio = [_random_sparse_linear(W, rng) for _ in range(3)]
        jac = 0
        for (f, _), (g, _), (h, _) in zip(trio, trio[1:] + trio[:1], trio[2:] + trio[:2]):
            dgh = linalg._sparse_sum((gi * hj, table.gradient(i, j)) for i, gi in g.items() for j, hj in h.items())
            jac += sum(fi * table.ints[i][s] * x for i, fi in f.items() for s, x in dgh.items())
        res = max(res, Fraction(abs(jac), prod(d for _, d in trio) * table.L**2 * table.den**3))
    return res


def _require_shape(spec: BracketSpec, W: Polygon):
    """A polygon of another (nu, N) than its spec's is a ValueError; (2, 7) and (3, 3) both have 18 coordinates."""
    if (W.nu, W.N) != (spec.nu, spec.N):
        raise ValueError(f"polygon has (nu, N) = ({W.nu}, {W.N}) but its spec has ({spec.nu}, {spec.N})")


def verify_structure(spec: BracketSpec, W: Polygon, check: str, trials: int = 20, seed: int = 0) -> Fraction:
    """Exact residual of one of the structural identities of the bracket.

    check is one of 'jacobi', 'momentum', 'quasiperiodicity', 'antisymmetry';
    'jacobi' needs trials >= 1, since no trial would read as a vacuous 0.
    """
    _require_shape(spec, W)
    if check == "jacobi":
        if trials < 1:
            raise ValueError(f"jacobi needs trials >= 1, got {trials}")
        return jacobi_residual(spec, W, trials, seed)
    if check == "momentum":
        return momentum_residual(spec, W)
    if check == "quasiperiodicity":
        return quasiperiodicity_residual(spec, W)
    if check == "antisymmetry":
        return antisymmetry_residual(spec, W)
    raise ValueError(f"unknown check {check!r}")


# ---------------------------------------------------------------------------
# the projective (scaling-reduced) bracket
# ---------------------------------------------------------------------------


def _require_r_shape(R, W: Polygon):
    """An R that is not nu^2 x nu^2 for W's nu is a ValueError, before any chart is read."""
    n2 = W.nu * W.nu
    if len(R) != n2 or any(len(row) != n2 for row in R):
        raise ValueError("R must be nu^2 x nu^2")


def _projective_ints(R, v, pairs) -> tuple:
    """(den, {(m, n): den times {v_m (x) v_n}}) in ints, for (m, n) in pairs.

    v lists the chart rows v_0..v_{N-1}, read from ``_DualCtx.proj``.  They
    are scaled to ints u / e over one e and the nonzeros of R to ints over
    dR, so den = dR e^4; (u, e) is the point (v, 1) over e.
    """
    nu, k = len(v[0]) + 1, len(v[0])
    U, e = linalg._scaled(v)
    terms = _nonzeros(R, nu)
    dR = lcm(*(x.denominator for *_, x in terms))
    terms = [(*t, x.numerator * (dR // x.denominator)) for *t, x in terms]
    tables = {}
    for m, n in pairs:
        um, un = (*U[m], e), (*U[n], e)
        S = [[0] * nu for _ in range(nu)]
        for a, b, c, d, x in terms:
            S[c][d] += x * um[a] * un[b]
        s = sign(m - n) * dR * e * e
        diff = [x - y for x, y in zip(um, un)]
        tables[m, n] = [
            [
                (S[al][be] * e - S[k][be] * um[al] - S[al][k] * un[be]) * e
                + S[k][k] * um[al] * un[be]
                - s * diff[al] * diff[be]
                for be in range(k)
            ]
            for al in range(k)
        ]
    return dR * e**4, tables


def projective_bracket(R, W: Polygon, m: int, n: int):
    """{v_m (x) v_n} = (v_m (x) v_n).R - sgn(m-n) (v_m - v_n) (x) (v_m - v_n).

    v_m is the affine-chart point of V_m (``_DualCtx.proj``).  With
    v' = (v, 1) and k = nu - 1, the unit matrix E_ac acts on the chart as
    E_ac.v = v'_a (e_c if c < k else -v), so the R term is one contraction
    S = (v'_m (x) v'_n) R whose row and column k fold back onto -v_m and
    -v_n; it is summed in ints by ``_projective_ints``.  An R that is not
    nu^2 x nu^2, or sites outside 0..N-1: ValueError.
    """
    _require_r_shape(R, W)
    if not (0 <= m < W.N and 0 <= n < W.N):
        raise ValueError(f"sites m, n must lie in 0..{W.N - 1}")
    ctx = _DualCtx(W)
    v = [[ctx.proj(i, c)[0] for c in range(W.nu - 1)] for i in range(W.N)]
    den, tables = _projective_ints(R, v, [(m, n)])
    return [[Fraction(x, den) for x in row] for row in tables[m, n]]


def _projective_residual(R, specs, W: Polygon) -> Fraction:
    """Max gap of the chart tables of specs from each other and from projective_bracket(R, ...).

    One read of the chart, the triples ``_DualCtx.proj(m, c)``, gives both
    sides: its int gradients in the order (m, c) are paired against each
    spec's ints of Pi, and its values give the closed form, summed in ints
    over one chart denominator.  The first table is compared with the
    others and with the closed form by cross-multiplication; a Fraction is
    built only for a nonzero gap.
    """
    for spec in specs:
        _require_shape(spec, W)
    _require_r_shape(R, W)
    k, N, coords, ctx = W.nu - 1, W.N, W.coordinates(), _DualCtx(W)
    chart = [[ctx.proj(m, c) for c in range(k)] for m in range(N)]
    grads = [p[1:] for row in chart for p in row]
    pis = [_PiTable(spec, coords) for spec in specs]
    tables = [(linalg._int_pairings(grads, pi.ints, grads), pi.L * pi.den**2) for pi in pis]
    v = [[x for x, _, _ in row] for row in chart]
    dc, closed = _projective_ints(R, v, [(m, n) for m in range(N) for n in range(N)])
    res = ZERO
    for i, (_, df) in enumerate(grads):
        for j, (_, dg) in enumerate(grads):
            (x, dx), *rest = [(t[i][j], df * d * dg) for t, d in tables] + [(closed[i // k, j // k][i % k][j % k], dc)]
            for y, dy in rest:
                if gap := x * dy - y * dx:
                    res = max(res, Fraction(abs(gap), dx * dy))
    return res
