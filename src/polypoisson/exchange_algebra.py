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

The three blocks are assembled into the coordinate bracket matrix Pi in one
place, ``_assemble``: ``bracket_matrix`` runs it on the polygon's rational
coordinates, and ``jacobi_residual`` runs it on Dual coordinates, so that
every entry of Pi carries its gradient.  The T-matrices, Q and A_pm are built
once per BracketSpec.  An observable of the polygon is a function from a
``_DualCtx`` to a Dual, whose gradient is a sparse covector over the
coordinates; every chain-rule bracket pairs such gradients against Pi with
``linalg.pairings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from random import Random

from . import linalg
from .lattice_ops import Kernel, PerSeq, SignWindow, sign
from .linalg import ONE, ZERO, pairings, rat
from .multipoly import Dual, dual_det


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

    def vertex(self, m: int) -> list:
        """V_m for any integer m, via the extension rule."""
        q, r = divmod(m, self.N)
        row = list(self.V[r])
        if q > 0:
            mat = [list(x) for x in self.M]
            for _ in range(q):
                row = [sum(row[c] * mat[c][a] for c in range(self.nu)) for a in range(self.nu)]
        elif q < 0:
            inv = linalg.inverse([list(x) for x in self.M])
            for _ in range(-q):
                row = [sum(row[c] * inv[c][a] for c in range(self.nu)) for a in range(self.nu)]
        return row

    def wronskian_at(self, m: int) -> Fraction:
        rows = [self.vertex(m + r) for r in range(self.nu)]
        return linalg.det(rows)

    def is_nondegenerate(self) -> bool:
        return all(self.wronskian_at(m) != 0 for m in range(self.N))

    def require_nondegenerate(self):
        for m in range(self.N):
            if self.wronskian_at(m) == 0:
                raise DegeneratePolygon(f"Wronskian vanishes at site {m}")

    def to_json(self) -> dict:
        from .linalg import rat_str

        return {
            "nu": self.nu,
            "N": self.N,
            "V": [[rat_str(x) for x in row] for row in self.V],
            "M": [[rat_str(x) for x in row] for row in self.M],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Polygon":
        return cls(
            int(doc["nu"]),
            int(doc["N"]),
            tuple(tuple(rat(x) for x in row) for row in doc["V"]),
            tuple(tuple(rat(x) for x in row) for row in doc["M"]),
        )


def wronskian(W: Polygon) -> PerSeq:
    """The discrete Wronskian w_m = det[V_m ... V_{m+nu-1}], periodic."""
    return PerSeq(W.N, tuple(W.wronskian_at(m) for m in range(W.N)))


def group_act(p: PerSeq, g, W: Polygon) -> Polygon:
    """The commuting scaling/projective actions: (p, g) . (V, M) = (pVg^-1, gMg^-1)."""
    if not p.nonvanishing():
        raise ValueError("scaling sequence must be nonvanishing")
    g = [[rat(x) for x in row] for row in g]
    if linalg.det(g) == 0:
        raise ValueError("group element must be invertible")
    ginv = linalg.inverse(g)
    V = tuple(
        tuple(p[m] * x for x in linalg.mat_vec(linalg.transpose(ginv), list(W.V[m])))
        for m in range(W.N)
    )
    M = linalg.mat_mul(linalg.mat_mul(g, [list(r) for r in W.M]), ginv)
    return Polygon(W.nu, W.N, V, tuple(tuple(row) for row in M))


def random_polygon(nu: int, N: int, rng: Random, height: int = 5) -> Polygon:
    """A random nondegenerate polygon with small-height rational entries.

    The monodromy is obtained by solving the extension rule against nu extra
    sampled rows and scaling its last row to normalize the determinant to 1.
    """
    if N < nu:
        raise ValueError("need N >= nu to pose the extension rule on sampled rows")
    for _ in range(500):
        rows = [
            [Fraction(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(nu)]
            for _ in range(N + nu)
        ]
        A = [rows[m] for m in range(nu)]
        B = [rows[N + m] for m in range(nu)]
        if linalg.det(A) == 0 or linalg.det(B) == 0:
            continue
        M = linalg.solve(A, B)
        d = linalg.det(M)
        if d == 0:
            continue
        M[-1] = [x / d for x in M[-1]]
        try:
            W = Polygon(nu, N, tuple(tuple(r) for r in rows[:N]), tuple(tuple(r) for r in M))
        except ValueError:
            continue
        if W.is_nondegenerate():
            return W
    raise RuntimeError("failed to sample a nondegenerate polygon")


# ---------------------------------------------------------------------------
# r-matrix data
# ---------------------------------------------------------------------------


def _pair(nu: int, a: int, b: int) -> int:
    return a * nu + b


def flip_matrix(nu: int):
    """The coordinate swap P on Q^nu (x) Q^nu: (x(x)y)P = y(x)x."""
    n2 = nu * nu
    P = linalg.zeros(n2, n2)
    for a in range(nu):
        for b in range(nu):
            P[_pair(nu, a, b)][_pair(nu, b, a)] = ONE
    return P


def identity2(nu: int):
    return linalg.identity(nu * nu)


def _frozen(X) -> tuple:
    return tuple(tuple(row) for row in X)


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
    n2 = nu * nu
    R = linalg.zeros(n2, n2)
    for i in range(nu):
        for j in range(i + 1, nu):
            # E_ij (x) E_ji as an endomorphism: (a,b) -> (c,d) entry
            # (E_ij)_{ac} (E_ji)_{bd} = [a=i][c=j][b=j][d=i]
            R[_pair(nu, i, j)][_pair(nu, j, i)] += ONE
            R[_pair(nu, j, i)][_pair(nu, i, j)] -= ONE
    C = linalg.mat_sub(flip_matrix(nu), identity2(nu))
    return R, C


def _leg12(X, nu: int):
    return linalg.kron(X, linalg.identity(nu))


def _leg23(X, nu: int):
    return linalg.kron(linalg.identity(nu), X)


def _leg13(X, nu: int):
    n3 = nu**3
    out = linalg.zeros(n3, n3)
    for a in range(nu):
        for b in range(nu):
            for c in range(nu):
                row = (a * nu + b) * nu + c
                for d in range(nu):
                    for f in range(nu):
                        x = X[_pair(nu, a, c)][_pair(nu, d, f)]
                        if x:
                            out[row][(d * nu + b) * nu + f] += x
    return out


def verify_ybe(R, C) -> Fraction:
    """Max-abs entry of [R12,R13] + [R12,R23] + [R13,R23] + [C12,C13]."""
    n2 = len(R)
    nu = round(n2**0.5)
    if nu * nu != n2 or len(C) != n2:
        raise ValueError("R and C must be nu^2 x nu^2 on the same nu")
    r12, r13, r23 = _leg12(R, nu), _leg13(R, nu), _leg23(R, nu)
    c12, c13 = _leg12(C, nu), _leg13(C, nu)
    acc = linalg.commutator(r12, r13)
    acc = linalg.mat_add(acc, linalg.commutator(r12, r23))
    acc = linalg.mat_add(acc, linalg.commutator(r13, r23))
    acc = linalg.mat_add(acc, linalg.commutator(c12, c13))
    return linalg.max_abs(acc)


@dataclass(frozen=True)
class BracketSpec:
    """The data (nu, N, R, C, phi) defining the bracket.

    The derived matrices (Q, A_+-, the T-matrices) are built once per spec.
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
        if self.phi.N != self.N:
            raise ValueError("phi period must match N")

    @classmethod
    def standard(cls, nu: int, N: int, phi: Kernel) -> "BracketSpec":
        R, C = default_rc(nu)
        return cls(nu, N, tuple(tuple(r) for r in R), tuple(tuple(r) for r in C), phi)

    @cached_property
    def Q(self):
        """C + Id(x)Id, the swap-normalized Casimir block."""
        return _frozen(linalg.mat_add(self.C, identity2(self.nu)))

    @cached_property
    def a_plus(self):
        """A_+ = R + Q, a factor of the V-M and M-M blocks."""
        return _frozen(linalg.mat_add(self.R, self.Q))

    @cached_property
    def a_minus(self):
        """A_- = R - Q, a factor of the V-M and M-M blocks."""
        return _frozen(linalg.mat_sub(self.R, self.Q))

    @cached_property
    def _t_matrices(self) -> dict:
        # T_k is R, R + Q or R - Q by the sign of k, with phi_k added on the
        # diagonal, since Id(x)Id is the nu^2 identity.  R +- Q is summed here,
        # not read from a_plus/a_minus, so that replacing those caches to probe
        # the V-M and M-M blocks leaves the V-V block as it is.  Equal entries
        # share one Fraction: a spec lives as long as its caller holds it, and
        # most of the 2N-1 matrices' entries are 0 or +-1.
        shared = {}
        out = {}
        base = (self.R, linalg.mat_add(self.R, self.Q), linalg.mat_sub(self.R, self.Q))
        for k in range(1 - self.N, self.N):
            T = [list(row) for row in base[sign(k)]]
            for r, row in enumerate(T):
                row[r] += self.phi[k]
            out[k] = tuple(tuple(shared.setdefault(x, x) for x in row) for row in T)
        return out

    def t_matrix(self, k: int):
        """R + sgn(k) Q + phi_k Id(x)Id for a window difference k.

        The 2N-1 matrices are built once per spec and shared, hence read-only.
        """
        SignWindow(self.N)[k]  # range check
        return self._t_matrices[k]

    def to_json(self) -> dict:
        from .linalg import rat_str

        return {
            "nu": self.nu,
            "N": self.N,
            "R": [[rat_str(x) for x in row] for row in self.R],
            "C": [[rat_str(x) for x in row] for row in self.C],
            "phi": self.phi.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BracketSpec":
        return cls(
            int(doc["nu"]),
            int(doc["N"]),
            tuple(tuple(rat(x) for x in row) for row in doc["R"]),
            tuple(tuple(rat(x) for x in row) for row in doc["C"]),
            Kernel.from_json(doc["phi"]),
        )


class _DualCtx:
    """Caches dual-number vertices and Wronskians of a polygon (gradients over all coordinates)."""

    def __init__(self, W: Polygon):
        self.W = W
        self.nu = W.nu
        self.N = W.N
        self._vertices: dict[int, list[Dual]] = {}
        self._wronskians: dict[int, Dual] = {}
        self._mdual = [
            [Dual.var(W.M[i][j], W.var_m(i, j)) for j in range(W.nu)] for i in range(W.nu)
        ]

    def monodromy(self):
        return self._mdual

    def vertex(self, m: int) -> list:
        if m < 0:
            raise IndexError("dual vertices only extend forward")
        if m not in self._vertices:
            if m < self.N:
                row = [
                    Dual.var(self.W.V[m][a], self.W.var_v(m, a)) for a in range(self.nu)
                ]
            else:
                prev = self.vertex(m - self.N)
                row = [
                    sum((prev[c] * self._mdual[c][a] for c in range(self.nu)), Dual.const(0))
                    for a in range(self.nu)
                ]
            self._vertices[m] = row
        return self._vertices[m]

    def wronskian(self, m: int) -> Dual:
        if m not in self._wronskians:
            self._wronskians[m] = dual_det([self.vertex(m + r) for r in range(self.nu)])
        return self._wronskians[m]

    def alpha(self, k: int, m: int) -> Dual:
        rows = [self.vertex(m + r) for r in range(self.nu + 1) if r != k]
        return dual_det(rows)

    def field(self, k: int, m: int) -> Dual:
        """a^(k)_m: alpha^(k)/w for k >= 1 and w'/w for k = 0."""
        w = self.wronskian(m)
        if k == 0:
            return self.wronskian(m + 1) / w
        return self.alpha(k, m) / w

    def proj(self, m: int, comp: int) -> Dual:
        """Affine-chart coordinate v_m^comp = (V_m)_comp / (V_m)_{nu-1}."""
        row = self.vertex(m)
        return row[comp] / row[self.nu - 1]


# ---------------------------------------------------------------------------
# the coordinate bracket matrix: one assembly for values and gradients
# ---------------------------------------------------------------------------


def _assemble(spec: BracketSpec, V, M):
    """The bracket matrix Pi over the coordinates (V_0, ..., V_{N-1}, M).

    V holds the N fundamental-domain vertices and M the monodromy, with
    entries that are Fractions (Pi at the point) or Duals (each entry of Pi
    carries its gradient in every coordinate).  Coordinates are ordered as in
    Polygon.var_v / Polygon.var_m.
    """
    nu, N = spec.nu, spec.N
    base = N * nu
    Pi = linalg.zeros(base + nu * nu, base + nu * nu)
    # V-V: {V_m (x) V_n} = (V_m (x) V_n) T_{m-n}
    for m in range(N):
        for n in range(N):
            vv = linalg.mat_mul(linalg.kron([V[m]], [V[n]]), spec.t_matrix(m - n))[0]
            for a in range(nu):
                Pi[m * nu + a][n * nu : n * nu + nu] = vv[a * nu : a * nu + nu]
    # V-M: {V_m^1, M^2} = V_m^1 [(1(x)M) A_- - A_+ (1(x)M)]
    one_m = linalg.kron(linalg.identity(nu), M)
    m_one = linalg.kron(M, linalg.identity(nu))
    vm = linalg.mat_sub(linalg.mat_mul(one_m, spec.a_minus), linalg.mat_mul(spec.a_plus, one_m))
    for i in range(nu):
        block = linalg.mat_mul(V, [vm[c * nu + i] for c in range(nu)])
        for m in range(N):
            for a in range(nu):
                for j in range(nu):
                    x = block[m][a * nu + j]
                    Pi[m * nu + a][base + i * nu + j] = x
                    Pi[base + i * nu + j][m * nu + a] = -x
    # M-M: (M(x)M) A_- + A_+ (M(x)M) - M^1 A_+ M^2 - M^2 A_- M^1
    mm = linalg.kron(M, M)
    mm = linalg.mat_add(linalg.mat_mul(mm, spec.a_minus), linalg.mat_mul(spec.a_plus, mm))
    mm = linalg.mat_sub(mm, linalg.mat_mul(linalg.mat_mul(m_one, spec.a_plus), one_m))
    mm = linalg.mat_sub(mm, linalg.mat_mul(linalg.mat_mul(one_m, spec.a_minus), m_one))
    for i1 in range(nu):
        for j1 in range(nu):
            for i2 in range(nu):
                for j2 in range(nu):
                    Pi[base + i1 * nu + j1][base + i2 * nu + j2] = mm[_pair(nu, i1, i2)][_pair(nu, j1, j2)]
    return Pi


def bracket_matrix(spec: BracketSpec, W: Polygon):
    """The full coordinate bracket matrix Pi at the point W (exact, antisym)."""
    return _assemble(spec, W.V, W.M)


# ---------------------------------------------------------------------------
# chain-rule bracket and structure checks
# ---------------------------------------------------------------------------


def chain_bracket(spec: BracketSpec, W: Polygon, f, g) -> Fraction:
    """{f, g} at W for observables f, g (functions from a _DualCtx to a Dual).

    The gradients are paired against the bracket matrix.
    """
    ctx = _DualCtx(W)
    return pairings([f(ctx).grad], bracket_matrix(spec, W), [g(ctx).grad])[0][0]


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
    """Max-abs residual of the scaling-action momentum identity over all (m, n)."""
    ctx = _DualCtx(W)
    coords = W.coordinates()
    w = [ctx.wronskian(m) for m in range(W.N)]
    units = [{vid: ONE} for vid in range(W.N * W.nu)]
    table = pairings([wm.grad for wm in w], bracket_matrix(spec, W), units)
    res = ZERO
    for m, row in enumerate(table):
        for n in range(W.N):
            coeff = momentum_formula_coeff(spec, m, n)
            for a in range(W.nu):
                vid = W.var_v(n, a)
                res = max(res, abs(row[vid] - coeff * w[m].val * coords[vid]))
    return res


def quasiperiodicity_residual(spec: BracketSpec, W: Polygon) -> Fraction:
    """Consistency of the extension rule with the bracket.

    For m < n the difference m+N-n stays inside the sign window, so
    {V_{m+N}, V_n} may be computed both directly from the bracket formula
    (sign +1, phi periodic) and by the product rule through V_m M; the two
    must agree exactly.
    """
    nu, N = spec.nu, spec.N
    Pi = bracket_matrix(spec, W)
    res = ZERO
    for m in range(N):
        for n in range(m + 1, N):
            vmn = linalg.kron([W.vertex(m + N)], [W.V[n]])
            direct = linalg.mat_mul(vmn, spec.t_matrix(m + N - n))[0]
            for a in range(nu):
                for b in range(nu):
                    acc = ZERO
                    for c in range(nu):
                        acc += W.M[c][a] * Pi[W.var_v(m, c)][W.var_v(n, b)]
                        acc -= W.V[m][c] * Pi[W.var_v(n, b)][W.var_m(c, a)]
                    res = max(res, abs(direct[_pair(nu, a, b)] - acc))
    return res


def antisymmetry_residual(spec: BracketSpec, W: Polygon) -> Fraction:
    Pi = bracket_matrix(spec, W)
    D = W.n_vars()
    res = ZERO
    for i in range(D):
        for j in range(i, D):
            res = max(res, abs(Pi[i][j] + Pi[j][i]))
    return res


def _random_sparse_linear(W: Polygon, rng: Random) -> dict:
    D = W.n_vars()
    support = rng.sample(range(D), rng.randint(1, 3))
    return {v: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for v in support}


def jacobi_residual(spec: BracketSpec, W: Polygon, trials: int, seed: int) -> Fraction:
    """Max Jacobiator over random triples of sparse linear observables."""
    rng = Random(seed)
    ctx = _DualCtx(W)
    Pi = _assemble(spec, [ctx.vertex(m) for m in range(W.N)], ctx.monodromy())

    def pb(f: dict, g: dict) -> Dual:
        # pairings gives a plain Fraction 0 when every entry it meets is zero
        return Dual.const(0) + pairings([f], Pi, [g])[0][0]

    res = ZERO
    for _ in range(trials):
        f = _random_sparse_linear(W, rng)
        g = _random_sparse_linear(W, rng)
        h = _random_sparse_linear(W, rng)
        jac = pb(f, pb(g, h).grad) + pb(g, pb(h, f).grad) + pb(h, pb(f, g).grad)
        res = max(res, abs(jac.val))
    return res


def verify_structure(spec: BracketSpec, W: Polygon, check: str, trials: int = 20, seed: int = 0) -> Fraction:
    """Exact residual of one of the structural identities of the bracket.

    check is one of 'jacobi', 'momentum', 'quasiperiodicity', 'antisymmetry'.
    """
    if check == "jacobi":
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


@dataclass(frozen=True)
class ProjPolygon:
    """Affine-chart image of a polygon: v_m in Q^(nu-1) with (v_m, 1) ~ V_m."""

    nu: int
    v: tuple
    M: tuple

    @classmethod
    def from_polygon(cls, W: Polygon) -> "ProjPolygon":
        rows = []
        for m in range(W.N):
            last = W.V[m][W.nu - 1]
            if not last:
                raise ValueError(f"chart violation: last component of V_{m} vanishes")
            rows.append(tuple(x / last for x in W.V[m][: W.nu - 1]))
        return cls(W.nu, tuple(rows), W.M)


def projective_action(X, v):
    """Infinitesimal projective action X.v = vA + c - dv - (v b^T) v.

    X is an nu x nu matrix written in blocks [[A, b^T], [c, d]] with A of size
    (nu-1) x (nu-1) and b, c row vectors; v is a row vector in Q^(nu-1).
    """
    nu = len(X)
    k = nu - 1
    A = [row[:k] for row in X[:k]]
    bT = [X[i][k] for i in range(k)]
    c = X[k][:k]
    d = X[k][k]
    vA = [sum(v[i] * A[i][j] for i in range(k)) for j in range(k)]
    vb = sum(v[i] * bT[i] for i in range(k))
    return [vA[j] + c[j] - d * v[j] - vb * v[j] for j in range(k)]


def _r_tensor_terms(R, nu: int):
    """Decompose the matrix of R in E_ac (x) E_bd coordinates."""
    terms = []
    for a in range(nu):
        for b in range(nu):
            for c in range(nu):
                for d in range(nu):
                    x = R[_pair(nu, a, b)][_pair(nu, c, d)]
                    if x:
                        terms.append((a, c, b, d, x))
    return terms


def projective_bracket(R, P: ProjPolygon, m: int, n: int):
    """{v_m (x) v_n} = (v_m (x) v_n).R - sgn(m-n) (v_m - v_n) (x) (v_m - v_n)."""
    nu = P.nu
    k = nu - 1
    vm, vn = P.v[m % len(P.v)], P.v[n % len(P.v)]
    table = [[ZERO] * k for _ in range(k)]
    for a, c, b, d, x in _r_tensor_terms(R, nu):
        X = [[ONE if (i, j) == (a, c) else ZERO for j in range(nu)] for i in range(nu)]
        Y = [[ONE if (i, j) == (b, d) else ZERO for j in range(nu)] for i in range(nu)]
        Xv = projective_action(X, vm)
        Yv = projective_action(Y, vn)
        for al in range(k):
            for be in range(k):
                table[al][be] += x * Xv[al] * Yv[be]
    s = sign(m - n)
    if s:
        diff = [vm[i] - vn[i] for i in range(k)]
        for al in range(k):
            for be in range(k):
                table[al][be] -= s * diff[al] * diff[be]
    return table


def projective_chain_table(spec: BracketSpec, W: Polygon):
    """{v_m (x) v_n} through the full bracket in the affine chart, for every site pair.

    Returns tables with tables[m][n] the (nu-1) x (nu-1) table of (m, n).
    """
    k = spec.nu - 1
    ctx = _DualCtx(W)
    grads = [ctx.proj(m, c).grad for m in range(W.N) for c in range(k)]
    flat = pairings(grads, bracket_matrix(spec, W), grads)
    return [
        [[flat[m * k + a][n * k : n * k + k] for a in range(k)] for n in range(W.N)]
        for m in range(W.N)
    ]
