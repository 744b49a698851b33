import hashlib
import json
from collections import defaultdict
from fractions import Fraction
from math import lcm, prod
from random import Random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from test_exchange_algebra import pi_pairings, reference_vertex, reference_wronskian
from test_json_roundtrip import op_tensors, rationals
from test_linalg import (
    identity,
    mat_add,
    mat_scale,
    mat_sub,
    mat_vec,
    max_abs,
    reference_det,
    reference_rref,
    transpose,
)

from polypoisson import acceptance, coord_reduction, linalg
from polypoisson.coord_reduction import (
    ConstraintNotSecondClass,
    alias_index,
    GaugeInconsistent,
    NonUniqueGauge,
    OpTensor,
    PolyTensor,
    _pencil_sweep,
    _var,
    as_poly_tensor,
    closed_tensor,
    compatibility,
    coords,
    dirac_reduce,
    field_gradients,
    gauge_normalize,
    jacobiator,
    oracle_match,
    pencil_certificate,
    pushforward_check,
    quotient_tensor,
    random_fields,
    shift_certificate,
    toda_dirac_vs_ftv,
)
from polypoisson.gen_nu import casimir_coeffs, quad_coeff
from polypoisson.exchange_algebra import (
    BracketSpec,
    DegeneratePolygon,
    Polygon,
    _PiTable,
    group_act,
    random_polygon,
)
from polypoisson.lattice_ops import (
    Kernel,
    PerSeq,
    compose,
    invert,
    phi_special,
    random_odd_kernel,
    shift_kernel,
)
from polypoisson.multipoly import Poly, _mono_mul

F = Fraction


def add_term(T: PolyTensor, i, m, j, n, poly: Poly):
    """Add poly to the entry ((i, m), (j, n)) of T, sites mod N; an entry summing to 0 is dropped."""
    if poly.is_zero():
        return
    key = (i, m % T.N, j, n % T.N)
    new = T.entries[key] + poly if key in T.entries else poly
    if new.is_zero():
        T.entries.pop(key)
    else:
        T.entries[key] = new


def mu_rho_one_polygon():
    # the recursion V'' = V' - V with a period-5 fundamental domain
    V = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1))
    M = ((1, -1), (1, 0))
    return Polygon(2, 5, V, M)


def test_coords_mu_rho_one():
    f = coords(mu_rho_one_polygon())
    assert f["mu"].values == (F(1),) * 5
    assert f["rho"].values == (F(1),) * 5


def test_coords_order3_cycle():
    V = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0))
    M = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    f = coords(Polygon(3, 4, V, M))
    assert f["a"].values == (F(0),) * 4
    assert f["b"].values == (F(0),) * 4
    assert f["rho"].values == (F(1),) * 4


def reference_coords(W):
    """The fields by determinants, as the point {a0: a^(0), ..., a{nu-1}: a^(nu-1)}:
    a^(0)_m = w_{m+1} / w_m and a^(k)_m the det of V_m..V_{m+nu} without
    V_{m+k}, over w_m, each re-extended by M; DegeneratePolygon at the
    first site with w_m = 0."""
    nu, N = W.nu, W.N
    w = [reference_wronskian(W, m) for m in range(N + 1)]
    if 0 in w:
        raise DegeneratePolygon(f"Wronskian vanishes at site {w.index(0)}")
    seqs = [PerSeq(N, tuple(w[m + 1] / w[m] for m in range(N)))]
    for k in range(1, nu):
        vals = [reference_det([reference_vertex(W, m + r) for r in range(nu + 1) if r != k]) / w[m] for m in range(N)]
        seqs.append(PerSeq(N, tuple(vals)))
    return {f"a{k}": seq for k, seq in enumerate(seqs)}


def test_coords_match_determinant_reference():
    rng = Random(26)
    for nu in (2, 3, 4, 5):
        for N in sorted({nu, nu + 1, 2 * nu + 1, 11}):
            W = random_polygon(nu, N, rng)
            f = coords(W)
            assert {f"a{k}": f[f"a{k}"] for k in range(nu)} == reference_coords(W), (nu, N)


def test_coords_is_the_field_point_with_its_aliases():
    # a0 .. a{nu-1} and, for nu = 2, 3, each alias bound to its a{k} itself
    rng = Random(28)
    for nu, aliases in ((2, ("rho", "mu")), (3, ("rho", "b", "a")), (4, ())):
        point = coords(random_polygon(nu, 5, rng))
        assert type(point) is dict
        assert sorted(point) == sorted([f"a{k}" for k in range(nu)] + list(aliases)), nu
        for k, name in enumerate(aliases):
            assert point[name] is point[f"a{k}"], (nu, name)


def test_coords_on_a_degenerate_polygon_name_the_site():
    # V_3 = V_2 makes w_1 and w_2 vanish; w_0 does not
    W = random_polygon(3, 7, Random(0))
    V = list(W.V)
    V[3] = V[2]
    W = Polygon(3, 7, tuple(V), W.M)
    with pytest.raises(DegeneratePolygon, match="site 1:"):
        coords(W)
    with pytest.raises(DegeneratePolygon, match="site 1"):
        reference_coords(W)
    with pytest.raises(DegeneratePolygon, match="site 1:"):
        gauge_normalize(W)


def test_oracle_match_reads_one_context(monkeypatch):
    # the field values and their gradients come from one _DualCtx, whose
    # per-site solves leave no determinant to take
    made, dets = [], []
    real_ctx, real_det = coord_reduction._DualCtx, linalg._int_det

    def counting(W):
        made.append(W)
        return real_ctx(W)

    monkeypatch.setattr(coord_reduction, "_DualCtx", counting)
    monkeypatch.setattr(linalg, "_int_det", lambda m: dets.append(m) or real_det(m))
    rng = Random(27)
    for nu, name in ((2, "murho"), (3, "abrho")):
        W = random_polygon(nu, 5, rng)
        spec = BracketSpec.standard(nu, 5, random_odd_kernel(5, rng))
        made.clear()
        dets.clear()
        assert oracle_match(spec, W, name) == 0
        assert made == [W] and dets == [], name


def test_coords_projective_invariance():
    rng = Random(0)
    for nu in (2, 3):
        W = random_polygon(nu, 5, rng)
        g = None
        while g is None or linalg.det(g) != 1:
            g = [[F(rng.randint(-3, 3)) for _ in range(nu)] for _ in range(nu)]
            d = linalg.det(g)
            if d == 0:
                g = None
                continue
            g[-1] = [x / d for x in g[-1]]
        W2 = group_act(PerSeq.constant(5, 1), g, W)
        f1, f2 = coords(W), coords(W2)
        for k in range(nu):
            assert f1[f"a{k}"].values == f2[f"a{k}"].values


def test_toda_tensor_tables():
    N = 5
    toda = closed_tensor("toda", N)
    pt = random_fields(("mu", "rho"), N, Random(1))
    mu, rho = pt["mu"], pt["rho"]
    mat = toda.eval_matrix(pt)
    for m in range(N):
        for n in range(N):
            mumu = (rho[n] if (m - n + 1) % N == 0 else 0) - (rho[m] if (m - n - 1) % N == 0 else 0)
            assert mat[m][n] == mumu
            murho = ((1 if (m - n + 1) % N == 0 else 0) - (1 if (m - n) % N == 0 else 0)) * mu[m] * rho[n]
            assert mat[m][N + n] == murho
            rhorho = ((1 if (m - n + 1) % N == 0 else 0) - (1 if (m - n - 1) % N == 0 else 0)) * rho[m] * rho[n]
            assert mat[N + m][N + n] == rhorho


def test_murho_with_special_phi_is_twice_toda():
    N = 5
    murho = closed_tensor("murho", N, phi=phi_special(2, 1, N))
    toda = as_poly_tensor(closed_tensor("toda", N))
    pt = random_fields(("mu", "rho"), N, Random(2))
    lhs = murho.eval_matrix(pt)
    rhs = mat_scale(toda.eval_matrix(pt), 2)
    assert max_abs(mat_sub(lhs, rhs)) == 0


def two_kernel_tensor(N: int) -> OpTensor:
    """Words with two kernels each, one of them dense, so paths pass a middle site."""
    T = OpTensor(("a", "b"), N)
    K1 = shift_kernel({0: 1, 1: -2, -1: F(1, 3)}, N)
    K2 = invert(shift_kernel({0: 1, 1: 1}, N))
    T.add_word(0, 1, ("k", K1), ("f", 1), ("k", K2))
    T.add_word(1, 0, ("f", 0), ("k", K2), ("c", PerSeq(N, tuple(range(1, N + 1)))), ("f", 1), ("k", K1), ("f", 0))
    return T


def reference_eval_matrix(T: OpTensor, point) -> list:
    """The dense evaluation of an OpTensor: each factor of a word as an N x N
    matrix (diagonal or circulant), the factors chained by mat_mul and the
    words of a block summed by mat_add."""
    N, d = T.N, len(T.field_names)
    out = linalg.zeros(d * N, d * N)
    for (i, j), words in T.words.items():
        total = linalg.zeros(N, N)
        for word in words:
            mat = None
            for kind, arg in word:
                if kind == "k":
                    fm = arg.matrix()
                else:
                    seq = arg if kind == "c" else point[T.field_names[arg]]
                    diag = [1 / seq[r] if kind == "finv" else seq[r] for r in range(N)]
                    fm = [[diag[r] if r == c else F(0) for c in range(N)] for r in range(N)]
                mat = fm if mat is None else linalg.mat_mul(mat, fm)
            total = mat_add(total, mat)
        for m in range(N):
            for n in range(N):
                out[i * N + m][j * N + n] = total[m][n]
    return out


def assert_eval_matches_reference(T: OpTensor, point):
    """eval_matrix equals the dense reference, and so does to_poly's
    expansion whenever no word has a field inverse."""
    ref = reference_eval_matrix(T, point)
    assert T.eval_matrix(point) == ref
    if all(kind != "finv" for words in T.words.values() for word in words for kind, _ in word):
        assert T.to_poly().eval_matrix(point) == ref


def named_op_tensors(N: int, rng: Random) -> list:
    """(tensor, fields) for every named OpTensor at N, ftv_u at a random beta
    too, and the two-kernel tensor with its 1/3 and inverted kernels and its
    constant diagonal."""
    abr = ("a", "b", "rho")
    cases = [(closed_tensor(name, N), fields) for name, fields in (
        ("toda", ("mu", "rho")), ("P1", abr), ("P2", abr), ("P0", ("a", "b")), ("ftv_u", ("u",)), ("ftv_S", ("S",))
    )]
    cases.append((closed_tensor("ftv_u", N, beta=random_fields(("beta",), N, rng)["beta"]), ("u",)))
    cases.append((two_kernel_tensor(N), ("a", "b")))
    return cases


def test_optensor_to_poly_matches_eval():
    rng = Random(3)
    for N in (5, 7):
        for T, fields in named_op_tensors(N, rng):
            assert_eval_matches_reference(T, random_fields(fields, N, rng))


@st.composite
def op_tensors_at_points(draw):
    T = draw(op_tensors())
    nonzero = rationals.filter(bool)
    pt = {name: PerSeq(T.N, tuple(draw(st.lists(nonzero, min_size=T.N, max_size=T.N)))) for name in T.field_names}
    return T, pt


@given(op_tensors_at_points())
def test_optensor_eval_matches_dense_reference(case):
    assert_eval_matches_reference(*case)


def reference_to_poly(T: OpTensor) -> PolyTensor:
    """The per-path expansion of an OpTensor: every path from each site m
    carries its product as a Poly, multiplied factor by factor, and each
    path's Poly is added to its entry."""
    N = T.N
    out = PolyTensor(T.field_names, N, T.bracket_scale)
    for (i, j), words in T.words.items():
        for word in words:
            for m in range(N):
                paths = [(m, Poly.const(1))]
                for kind, arg in word:
                    if kind == "k":
                        paths = [(n, p * arg[s - n]) for s, p in paths for n in range(N) if arg[s - n]]
                    elif kind == "f":
                        paths = [(s, p * Poly.var(_var(arg, s, N))) for s, p in paths]
                    else:
                        assert kind == "c"
                        paths = [(s, p * arg[s]) for s, p in paths]
                for n, p in paths:
                    add_term(out, i, m, j, n, p)
    return out


def test_to_poly_equals_per_path_reference():
    # the int walk gives the same Poly in every entry, not only the same
    # values at some point
    rng = Random(41)
    for N in (5, 7):
        for T, _ in named_op_tensors(N, rng):
            if T.field_names == ("S",):
                continue  # ftv_S has field inverses
            got, want = T.to_poly(), reference_to_poly(T)
            assert (got.field_names, got.N, got.bracket_scale) == (want.field_names, want.N, want.bracket_scale)
            assert {k: p.terms for k, p in got.entries.items()} == {k: p.terms for k, p in want.entries.items()}
            assert all(type(c) is Fraction for p in got.entries.values() for c in p.terms.values())


def coprime_point(fields, N: int, rng: Random) -> dict:
    """Nonzero field values whose denominators run through 2, 3, 5 and 7."""
    return {
        name: PerSeq(N, tuple(F(rng.choice((-4, -3, -1, 1, 2, 5)), (2, 3, 5, 7)[(k + m) % 4]) for m in range(N)))
        for k, name in enumerate(fields)
    }


def test_eval_matrix_and_values_at_coprime_denominators():
    rng = Random(43)
    for N in (5, 7):
        for T, fields in named_op_tensors(N, rng):
            pt = coprime_point(fields, N, rng)
            ref = reference_eval_matrix(T, pt)
            mat = T.eval_matrix(pt)
            assert mat == ref
            assert all(type(v) is Fraction for row in mat for v in row)
            L, rows = T.int_matrix(pt)
            assert L > 1
            assert [[F(v, L) for v in row] for row in rows] == ref


def reference_int_matrix(T: OpTensor, point) -> list:
    """The Fraction route to T at a point: each segment's site value a
    Fraction product of field values, inverses and constants, which
    ``_walk`` scales over the lcm of its denominators; entries as Fractions."""
    x, N = T.point_values(point), T.N

    def at(seg, site):
        v = F(1)
        for kind, arg in seg:
            v *= arg[site] if kind == "c" else x[_var(arg, site, N)] ** (-1 if kind == "finv" else 1)
        return (), v.numerator, v.denominator

    L, sums = T._walk(at)
    out = linalg.zeros(T.n_vars(), T.n_vars())
    for (i, m, j, n, _), v in sums.items():
        out[_var(i, m, N)][_var(j, n, N)] = F(v, L)
    return out


def test_int_matrix_at_the_int_point_equals_the_fraction_route():
    # all eight names; ftv_S reads a field inverse and ftv_u at a random
    # beta a constant diagonal, at negative and coprime-denominator values
    rng = Random(53)
    for N in (5, 7):
        phi = random_odd_kernel(N, rng)
        cases = named_op_tensors(N, rng) + [
            (closed_tensor("murho", N, phi=phi), ("mu", "rho")),
            (closed_tensor("abrho", N, phi=phi), ("a", "b", "rho")),
        ]
        kinds = {kind for T, _ in cases for words in T.words.values() for word in words for kind, _ in word}
        assert kinds == {"f", "finv", "c", "k"}
        for T, fields in cases:
            for pt in (random_fields(fields, N, rng), coprime_point(fields, N, rng)):
                L, rows = T.int_matrix(pt)
                assert all(type(v) is int for row in rows for v in row)
                assert [[F(v, L) for v in row] for row in rows] == reference_int_matrix(T, pt)


def test_int_matrix_names_the_vanishing_field_site():
    for site in (0, 2, 4):
        S = [F(-1, 3), F(2), F(5, 7), F(1, 2), F(3)]
        S[site] = F(0)
        with pytest.raises(ZeroDivisionError, match=f"^field S vanishes at site {site}$"):
            closed_tensor("ftv_S", 5).int_matrix({"S": PerSeq(5, tuple(S))})


def reference_walk(T: OpTensor, seg_value):
    """The path walk as first written: every kernel scaled to ints and every
    segment evaluated at every site once per word, a unit first step onto the
    start site, and the paths of each start site collected in a final dict."""
    N = T.N
    words, L = [], 1
    for (i, j), wlist in T.words.items():
        for word in wlist:
            segs, steps = [[]], [(1, [(0, 1)])]
            for factor in word:
                if factor[0] == "k":
                    (ks,), den = linalg._scaled([factor[1].seq.values])
                    steps.append((den, [(d, k) for d, k in enumerate(ks) if k]))
                    segs.append([])
                else:
                    segs[-1].append(factor)
            diag = []
            for seg in segs:
                vals = [seg_value(seg, site) for site in range(N)]
                den = lcm(*(dn for _, _, dn in vals))
                diag.append((den, [(mono, num * (den // dn)) for mono, num, dn in vals]))
            den = prod(dn for dn, _ in steps + diag)
            L = lcm(L, den)
            words.append((i, j, den, [(nz, dg) for (_, nz), (_, dg) in zip(steps, diag)]))
    sums = defaultdict(int)
    for i, j, den, walk in words:
        for m in range(N):
            paths = {(m, ()): L // den}
            for nz, dg in walk:
                nxt = defaultdict(int)
                for (s, mono), acc in paths.items():
                    for d, kv in nz:
                        n = (s - d) % N
                        seg_mono, g = dg[n]
                        if g:
                            nxt[n, _mono_mul(mono, seg_mono)] += acc * kv * g
                paths = nxt
            for (n, mono), acc in paths.items():
                sums[i, m, j, n, mono] += acc
    return L, sums


def kernel_free_tensor(N: int) -> OpTensor:
    """Two words with no kernel on one block, so the walk's kernel-free start sums at one key twice."""
    T = OpTensor(("a", "b"), N)
    T.add_word(0, 1, ("f", 1), ("c", PerSeq(N, tuple(F(m + 1, 2) for m in range(N)))))
    T.add_word(0, 1, ("f", 1))
    T.add_word(1, 0, ("f", 0), ("k", shift_kernel({1: 1}, N)))
    return T


def walk_readings(T: OpTensor, pt) -> list:
    """T's int_matrix at pt and, without field inverses, to_poly's entries and terms in order."""
    out = [T.int_matrix(pt)]
    if all(kind != "finv" for words in T.words.values() for word in words for kind, _ in word):
        out.append([(key, list(p.terms.items())) for key, p in T.to_poly().entries.items()])
    return out


@pytest.mark.parametrize("N", [5, 7, 11, 21])
def test_walk_equals_the_reference_walk(N, monkeypatch):
    # all eight names (ftv_u at a random beta, ftv_S through int_matrix only,
    # P0 where 1 + D + D^2 is invertible, murho and abrho at a random odd phi)
    rng = Random(1000 + N)
    abr, phi = ("a", "b", "rho"), random_odd_kernel(N, rng)
    cases = [(closed_tensor(name, N), fields) for name, fields in (
        ("toda", ("mu", "rho")), ("P1", abr), ("P2", abr), ("ftv_S", ("S",))
    )]
    cases += [
        (closed_tensor("ftv_u", N, beta=random_fields(("beta",), N, rng)["beta"]), ("u",)),
        (closed_tensor("murho", N, phi=phi), ("mu", "rho")),
        (closed_tensor("abrho", N, phi=phi), abr),
        (two_kernel_tensor(N), ("a", "b")),
        (kernel_free_tensor(N), ("a", "b")),
    ]
    if N % 3:
        cases.append((closed_tensor("P0", N), ("a", "b")))
    for T, fields in cases:
        pt = random_fields(fields, N, rng)
        got = walk_readings(T, pt)
        with monkeypatch.context() as mp:
            mp.setattr(OpTensor, "_walk", reference_walk)
            assert walk_readings(T, pt) == got


def test_walk_reads_each_segment_and_kernel_once(monkeypatch):
    # seg_value runs once per distinct segment and site in a walk, and each
    # kernel of a tensor is scaled to ints once, however often it is read
    N, rng = 11, Random(59)
    scaled, real_scaled = [], linalg._scaled
    monkeypatch.setattr(linalg, "_scaled", lambda a: scaled.append(a[0]) or real_scaled(a))
    calls, real_walk = [], OpTensor._walk

    def counting_walk(self, seg_value):
        calls.append(0)

        def at(seg, site):
            calls[-1] += 1
            return seg_value(seg, site)

        return real_walk(self, at)

    monkeypatch.setattr(OpTensor, "_walk", counting_walk)
    for name, fields in (("P1", ("a", "b", "rho")), ("P2", ("a", "b", "rho")), ("ftv_S", ("S",))):
        T = closed_tensor(name, N)
        segs = set()
        for words in T.words.values():
            for word in words:
                seg = []
                for factor in word + (("k", None),):
                    if factor[0] == "k":
                        segs.add(tuple(seg))
                        seg = []
                    else:
                        seg.append(factor)
        T.int_matrix(random_fields(fields, N, rng))
        T.int_matrix(random_fields(fields, N, rng))
        if name != "ftv_S":
            T.to_poly()
        assert calls == [len(segs) * N] * (2 if name == "ftv_S" else 3)
        assert len(segs) < sum(map(len, T.words.values()))  # words share segments
        calls.clear()
        kernels = {id(arg): arg for words in T.words.values() for word in words for kind, arg in word if kind == "k"}
        assert [sum(row is K.seq.values for row in scaled) for K in kernels.values()] == [1] * len(kernels)


def reference_pushforward(u: PerSeq) -> Fraction:
    """The pushforward residual in Fractions: J P_u J^T against ftv_S at S =
    u u', both tensors evaluated by the dense reference."""
    N = u.N
    S = PerSeq(N, tuple(u[m] * u[m + 1] for m in range(N)))
    P_u = reference_eval_matrix(coord_reduction.closed_tensor("ftv_u", N), {"u": u})
    JP = [[u[m + 1] * a + u[m] * b for a, b in zip(P_u[m], P_u[(m + 1) % N])] for m in range(N)]
    lhs = [[row[n] * u[n + 1] + row[(n + 1) % N] * u[n] for n in range(N)] for row in JP]
    rhs = reference_eval_matrix(coord_reduction.closed_tensor("ftv_S", N), {"S": S})
    return max_abs(mat_sub(lhs, rhs))


def test_pushforward_matches_fraction_reference(monkeypatch):
    rng = Random(47)
    us = [random_fields(("u",), N, rng)["u"] for N in (5, 7, 9) for _ in range(3)]
    for u in us:
        got = pushforward_check(u)
        assert type(got) is Fraction
        assert got == reference_pushforward(u) == 0
    # with the last ftv_S word dropped both residuals move, and still agree
    real = coord_reduction.closed_tensor

    def lossy(name, N, phi=None, beta=None):
        T = real(name, N, phi, beta)
        if name == "ftv_S":
            T.words[0, 0].pop()
        return T

    monkeypatch.setattr(coord_reduction, "closed_tensor", lossy)
    broken = [pushforward_check(u) for u in us]
    assert broken == [reference_pushforward(u) for u in us]
    assert all(broken) and any(r.denominator > 1 for r in broken)


def test_ftv_S_rejects_to_poly():
    with pytest.raises(ValueError):
        closed_tensor("ftv_S", 5).to_poly()


def test_ftv_S_eval_names_the_vanishing_field_site():
    S = PerSeq(5, (F(1), F(2), F(0), F(-1), F(3)))
    with pytest.raises(ZeroDivisionError, match="field S vanishes at site 2"):
        closed_tensor("ftv_S", 5).eval_matrix({"S": S})


def test_closed_tensor_singular_operator_period():
    from polypoisson.lattice_ops import SingularOperator

    with pytest.raises(SingularOperator):
        closed_tensor("ftv_u", 4)  # (1+D) is singular on even periods
    with pytest.raises(SingularOperator):
        closed_tensor("P0", 6)  # (1+D+D^2) is singular when 3 | N


def test_closed_tensors_eliminate_one_plus_d_once(monkeypatch):
    # ftv_u and P2 both invert the circulant 1 + D; invert keeps one inverse
    # per distinct kernel, so three ftv_u builds and one P2 build at N = 11
    # run one elimination, of the 11 rows of [1 + D | delta]
    rows = []
    int_rref = linalg._int_rref

    def counting(m):
        rows.append(len(m))
        return int_rref(m)

    monkeypatch.setattr(linalg, "_int_rref", counting)
    invert.cache_clear()
    for name in ("ftv_u", "ftv_u", "ftv_u", "P2"):
        closed_tensor(name, 11)
    assert rows == [11]
    assert (invert.cache_info().hits, invert.cache_info().misses) == (3, 1)


@pytest.mark.parametrize(
    "N, digest",
    [
        (5, "f26e5d9d04c5018eab5442030cb0855fce1af4fda811f82b470e4ec097c8c413"),
        (7, "1eb488ef08566689acdac93587890b37e2941f19b4d0382b88f6066a30b6a692"),
        (11, "f6b2e339ac1dc0904c3d8e95a476633ce2dc6dc46db5b17a65511aa2700eee9b"),
    ],
)
def test_p2_polynomial_entries_are_pinned(N, digest):
    # every entry of P2, whose four Cayley words share one (1 + D)^-1
    doc = closed_tensor("P2", N).to_poly().to_json()
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def test_ftv_u_at_zero_field_is_shift_difference():
    N = 5
    T = closed_tensor("ftv_u", N)
    mat = T.eval_matrix({"u": PerSeq.constant(N, 0)})
    expect = shift_kernel({1: 1, -1: -1}, N).matrix()
    assert max_abs(mat_sub(mat, expect)) == 0


def test_oracle_matches():
    rng = Random(4)
    N = 5
    W2 = random_polygon(2, N, rng)
    assert oracle_match(BracketSpec.standard(2, N, random_odd_kernel(N, rng)), W2, "murho") == 0
    assert oracle_match(BracketSpec.standard(2, N, phi_special(2, 1, N)), W2, "toda") == 0
    W3 = random_polygon(3, N, rng)
    assert oracle_match(BracketSpec.standard(3, N, random_odd_kernel(N, rng)), W3, "abrho") == 0
    assert oracle_match(BracketSpec.standard(3, N, phi_special(3, 2, N)), W3, "P1") == 0
    assert oracle_match(BracketSpec.standard(3, N, phi_special(3, 1, N)), W3, "P2") == 0
    assert oracle_match(BracketSpec.standard(3, N, phi_special(3, 0, N)), W3, "P0") == 0


def reference_oracle_match(spec: BracketSpec, W: Polygon, name: str) -> Fraction:
    """oracle_match by the Fraction route: the closed form by eval_matrix,
    the chain brackets by Fraction pairings, compared entry by entry."""
    N = spec.N
    if name == "P0":
        W = gauge_normalize(W, PerSeq.constant(N, 1))
    T = closed_tensor(name, N, phi=spec.phi) if name in ("murho", "abrho") else closed_tensor(name, N)
    grads = field_gradients(W, T.field_names)
    table = pi_pairings(_PiTable(spec, W.coordinates()), grads, grads)
    mat = T.eval_matrix(coords(W))
    return max(abs(acc * T.bracket_scale - v) for row, vals in zip(table, mat) for acc, v in zip(row, vals))


def flip_kernel_first_word(build):
    """build with the sign of the (0, 0) word that starts with a kernel
    flipped: the closed-form controls of criterion 5."""

    def built(*args):
        T = build(*args)
        words = T.words[0, 0]
        (w,) = [w for w, word in enumerate(words) if word[0][0] == "k"]
        (_, K), field = words[w]
        words[w] = (("k", -K), field)
        return T

    return built


def test_oracle_match_equals_the_fraction_route(monkeypatch):
    rng = Random(59)
    N = 5
    special = {"toda": (2, 1), "P0": (3, 0), "P1": (3, 2), "P2": (3, 1)}
    for name in ("murho", "abrho", *special):
        nu = 2 if name in ("murho", "toda") else 3
        phi = phi_special(*special[name], N) if name in special else random_odd_kernel(N, rng)
        spec, W = BracketSpec.standard(nu, N, phi), random_polygon(nu, N, rng)
        assert oracle_match(spec, W, name) == reference_oracle_match(spec, W, name) == 0, name
    # murho and abrho are quotient_tensor at nu = 2 and 3
    monkeypatch.setattr(coord_reduction, "quotient_tensor", flip_kernel_first_word(coord_reduction.quotient_tensor))
    for nu, name in ((2, "murho"), (3, "abrho")):
        for _ in range(3):
            spec = BracketSpec.standard(nu, N, random_odd_kernel(N, rng))
            W = random_polygon(nu, N, rng)
            got = oracle_match(spec, W, name)
            assert got and got == reference_oracle_match(spec, W, name), name


def double_last_diagonal_word(T):
    """T with the kernel of its last (0, 0) word doubled; after
    ``_linear_words`` that is a generated linear word."""
    words = T.words[0, 0]
    words[-1] = tuple(("k", f[1].scale(2)) if f[0] == "k" else f for f in words[-1])
    return T


def test_one_linear_word_formula_feeds_five_tensors(monkeypatch):
    # murho, abrho, toda, P1 and P2 read their linear words from one
    # generator, so one doubled kernel there turns all five oracles and
    # criterion 5 red
    real = coord_reduction._linear_words
    monkeypatch.setattr(coord_reduction, "_linear_words", lambda T, c: double_last_diagonal_word(real(T, c)))
    rng, N = Random(0), 7
    special = {"toda": (2, 1), "P1": (3, 2), "P2": (3, 1)}
    got = {}
    for name in ("murho", "abrho", *special):
        nu = 2 if name in ("murho", "toda") else 3
        W = random_polygon(nu, N, rng)
        phi = phi_special(*special[name], N) if name in special else random_odd_kernel(N, rng)
        got[name] = oracle_match(BracketSpec.standard(nu, N, phi), W, name)
    assert got == {
        "murho": Fraction(288, 55),
        "abrho": Fraction(202171, 104),
        "toda": Fraction(550, 131),
        "P1": Fraction(2804861, 378909),
        "P2": Fraction(14859982, 29185),
    }
    docs = acceptance.check_closed_forms(0)
    assert [(d.residual, d.passed) for d in docs] == [("179", False), ("8070975/96418", False)]


def quotient_oracle_residual(T, spec: BracketSpec, W: Polygon) -> Fraction:
    """Max-abs difference, over every pair of field sites, between the
    quotient tensor T at coords(W) and the chain-rule bracket of W's fields."""
    L, mat = T.int_matrix(coords(W))
    grads = field_gradients(W, T.field_names)
    table = _PiTable(spec, W.coordinates())
    scale = table.L * table.den**2
    pairs = linalg._int_pairings(grads, table.ints, grads)
    return max(
        abs(Fraction(acc, df * dg * scale) - Fraction(v, L))
        for (_, df), row, vals in zip(grads, pairs, mat)
        for (_, dg), acc, v in zip(grads, row, vals)
    )


@pytest.mark.parametrize("nu, N", [(4, 9), (4, 8), (5, 11)])
def test_quotient_tensor_matches_the_chain_rule_at_orders_4_and_5(nu, N):
    # every entry of the generated bracket, exchange and linear words, at a
    # random odd phi; (4, 8) has an even N and gcd(nu, N) > 1
    rng = Random(100 * nu + N)
    spec = BracketSpec.standard(nu, N, random_odd_kernel(N, rng))
    W = random_polygon(nu, N, rng)
    T = quotient_tensor(nu, spec.phi)
    assert T.field_names == tuple(f"a{k}" for k in reversed(range(nu)))
    assert quotient_oracle_residual(T, spec, W) == 0
    assert quotient_oracle_residual(double_last_diagonal_word(T), spec, W) != 0


def test_quotient_tensor_is_linear_along_each_field_at_its_phi():
    # at (4, 9) each phi^(k) makes the bracket linear in a^(k), and the
    # shift along a^(k) a compatible pencil at a sampled point; a random odd
    # phi leaves it quadratic, which the shift certificate reports as 1
    nu, N, rng = 4, 9, Random(49)
    for k in range(nu):
        T = quotient_tensor(nu, phi_special(nu, k, N))
        assert reference_gf_check(T, f"a{k}", [random_fields(T.field_names, N, rng)]) == 0
    T = quotient_tensor(nu, random_odd_kernel(N, rng))
    with pytest.raises(LinearityViolated):
        reference_lie_deform(T, "a1")
    assert shift_certificate(T, "a1") == 1


def test_closed_forms_build_no_fraction_table(monkeypatch):
    # criterion 5 reads the closed forms by int_matrix, not by the Fraction
    # view eval_matrix, and the chain brackets by _int_pairings
    def fraction_route(*args, **kwargs):
        raise AssertionError("the closed-form check took a Fraction route")

    monkeypatch.setattr(coord_reduction._FieldTensor, "eval_matrix", fraction_route)
    docs = acceptance.check_closed_forms(0)
    assert [(d.params["tensor"], d.residual, d.passed) for d in docs] == [("murho", "0", True), ("abrho", "0", True)]


# The exchange words of murho and abrho by hand: for each pair of fields
# (x, y), the shift polynomials (phi part, delta part) of the coefficient
# kernel K of the word (f x)(k K)(f y); for x != y the mirror word
# (f y)(k -K^T)(f x) makes 13 words in all
HAND_EXCHANGE = {
    "murho": {
        ("mu", "mu"): ({0: 2, 1: -1, -1: -1}, {1: -1, -1: 1}),
        ("mu", "rho"): ({0: 1, 1: 1, -1: -1, 2: -1}, {0: -1, -1: 1, 1: 1, 2: -1}),
        ("rho", "rho"): ({0: 2, 2: -1, -2: -1}, {2: -1, -2: 1}),
    },
    "abrho": {
        ("a", "a"): ({0: 2, 1: -1, -1: -1}, {1: -1, -1: 1}),
        ("a", "b"): ({0: 1, 1: 1, 2: -1, -1: -1}, {0: -1, 1: 1, 2: -1, -1: 1}),
        ("a", "rho"): ({0: 1, 2: 1, 3: -1, -1: -1}, {0: -1, 2: 1, 3: -1, -1: 1}),
        ("b", "b"): ({0: 2, 2: -1, -2: -1}, {2: -1, -2: 1}),
        ("b", "rho"): ({0: 1, 1: 1, 3: -1, -2: -1}, {0: -1, 1: 1, 3: -1, -2: 1}),
        ("rho", "rho"): ({0: 2, 3: -1, -3: -1}, {3: -1, -3: 1}),
    },
}


def test_exchange_words_match_hand_expansions():
    # every exchange word (f x)(k K)(f y) of block (x, y), for a random odd
    # phi and every phi^(k), against the hand expansion
    # phi_part(D) phi + delta_part(D) delta by Fraction composition
    rng = Random(27)
    checked = 0
    for N in (5, 6, 7, 9, 12):
        for name, nu in (("murho", 2), ("abrho", 3)):
            phis = [random_odd_kernel(N, rng)] + [phi_special(nu, k, N) for k in range(nu)]
            for phi in phis:
                T = closed_tensor(name, N, phi=phi)
                names = T.field_names
                got = [
                    ((names[i], names[j]), word[1][1])
                    for (i, j), words in T.words.items()
                    for word in words
                    if [f[0] for f in word] == ["f", "k", "f"] and (word[0][1], word[2][1]) == (i, j)
                ]
                want = {}
                for (x, y), (phi_part, delta_part) in HAND_EXCHANGE[name].items():
                    phi_term = compose(shift_kernel(phi_part, N), phi).seq.values
                    delta_term = shift_kernel(delta_part, N).seq.values
                    K = Kernel(PerSeq(N, tuple(x + y for x, y in zip(phi_term, delta_term))))
                    want[x, y] = K
                    if x != y:
                        want[y, x] = -K.transpose()
                assert len(got) == len(want) == (4 if nu == 2 else 9)
                assert dict(got) == want, (name, N)
                checked += len(got)
                # casimir_coeffs (E_0k) and quad_coeff (E_kk) read the same formula
                alias = {alias_index(nu, x): x for x in names}
                k00, k0k = casimir_coeffs(nu, phi, N)
                assert [k00, *k0k.values()] == [want[alias[0], alias[k]] for k in range(nu)]
                assert [quad_coeff(nu, k, phi, N) for k in range(1, nu)] == [want[alias[k], alias[k]] for k in range(1, nu)]
    assert checked == 240


def test_rho_is_casimir_for_phi0():
    # every Hamiltonian vector field of the phi^(0) bracket annihilates rho
    N = 5
    murho0 = closed_tensor("murho", N, phi=phi_special(2, 0, N))
    pt = random_fields(("mu", "rho"), N, Random(5))
    mat = murho0.eval_matrix(pt)
    for m in range(N):
        assert all(mat[N + m][j] == 0 for j in range(2 * N))


def test_gauge_normalize_constant_wronskian():
    rng = Random(6)
    W = random_polygon(2, 5, rng)
    Wn = gauge_normalize(W)
    w = [reference_wronskian(Wn, m) for m in range(5)]
    assert all(w[m] == w[0] for m in range(5))
    # already-normalized polygons come back unchanged
    Wnn = gauge_normalize(Wn)
    assert Wnn.V == Wn.V


def test_gauge_normalize_beta_ratio():
    rng = Random(7)
    W = random_polygon(2, 5, rng)
    # beta must have unit product around the step orbit for an exact gauge
    vals = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(4)]
    prod = F(1)
    for v in vals:
        prod *= v
    beta = PerSeq(5, tuple(vals + [1 / prod]))
    Wn = gauge_normalize(W, beta)
    for m in range(5):
        assert reference_wronskian(Wn, m + 1) == beta[m] * reference_wronskian(Wn, m)


def test_gauge_normalize_even_period_not_unique():
    W = random_polygon(2, 4, Random(8))
    with pytest.raises(NonUniqueGauge):
        gauge_normalize(W)


def test_gauge_normalize_inconsistent_beta():
    W = random_polygon(2, 5, Random(9))
    beta = PerSeq.constant(5, 2)  # product 32 != 1
    with pytest.raises(GaugeInconsistent):
        gauge_normalize(W, beta)


def test_dirac_skew_scalar_example():
    # x scalar against a nonsingular 2x2 constraint block reduces to zero
    c = F(3)
    b1, b2 = F(2), F(-5)
    P = [
        [F(0), b1, b2],
        [-b1, F(0), c],
        [-b2, -c, F(0)],
    ]
    red = dirac_reduce(P, [1, 2])
    assert red == [[0]]


def test_dirac_toda_period3_is_zero_matrix():
    N = 3
    toda = closed_tensor("toda", N)
    pt = {"mu": PerSeq.constant(N, 1), "rho": PerSeq.constant(N, 1)}
    full = toda.eval_matrix(pt)
    red = dirac_reduce(full, [N + m for m in range(N)])
    assert max_abs(red) == 0
    ftv = closed_tensor("ftv_u", N).eval_matrix({"u": PerSeq.constant(N, 1)})
    assert max_abs(ftv) == 0


def test_dirac_toda_matches_ftv_random():
    rng = Random(10)
    for N in (5, 7):
        u = random_fields(("u",), N, rng)["u"]
        assert toda_dirac_vs_ftv(N, u, PerSeq.constant(N, 1)) == 0
        beta = random_fields(("beta",), N, rng)["beta"]
        assert toda_dirac_vs_ftv(N, u, beta) == 0


def test_dirac_rejects_unreducible_block():
    # a singular constraint block whose nullspace couples to the free part
    P = [
        [F(0), F(1), F(0)],
        [F(-1), F(0), F(0)],
        [F(0), F(0), F(0)],
    ]
    with pytest.raises(ConstraintNotSecondClass, match="range of the constraint block"):
        dirac_reduce(P, [1, 2])


def test_dirac_rejects_nullspace_coupling():
    # C = [[0, 1], [0, 0]] is not antisymmetric, so its range (e_1) is not
    # orthogonal to its nullspace (also e_1): B^T = (1, 0)^T lies in the range,
    # yet the null vector e_1 couples to the free index through B
    P = [
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
        [F(0), F(0), F(0)],
    ]
    with pytest.raises(ConstraintNotSecondClass, match="nullspace couples to the free block"):
        dirac_reduce(P, [1, 2])


def test_dirac_rejects_indices_outside_the_matrix():
    # toda at N = 5 is 10 x 10: negative indices would wrap when read and
    # remove nothing, and index 10 would be an IndexError
    N = 5
    full = closed_tensor("toda", N).eval_matrix(random_fields(("mu", "rho"), N, Random(11)))
    for con in ([-1, -2, -3, -4, -5], list(range(5, 11))):
        with pytest.raises(ValueError, match=r"^constrained indices must lie in 0\.\.9$"):
            dirac_reduce(full, con)


def reference_dirac_reduce(P_eval, constrained) -> list:
    """Dirac reduction by Fraction elimination: the rref of [C | B^T], the
    nullspace of C read from it, then A + B Z with dense Fraction products."""
    con = sorted(constrained)
    free = [i for i in range(len(P_eval)) if i not in con]
    A = [[P_eval[i][j] for j in free] for i in free]
    B = [[P_eval[i][j] for j in con] for i in free]
    k = len(con)
    red, pivots = reference_rref([[P_eval[i][j] for j in con] + [P_eval[j][i] for j in free] for i in con])
    if pivots and pivots[-1] >= k:
        raise ConstraintNotSecondClass("couplings do not lie in the range of the constraint block")
    Z = linalg.zeros(k, len(free))
    for r, c in enumerate(pivots):
        Z[c] = red[r][k:]
    for f in (c for c in range(k) if c not in pivots):
        v = [F(0)] * k
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        if any(mat_vec(B, v)):
            raise ConstraintNotSecondClass("constraint block nullspace couples to the free block")
    return mat_add(A, linalg.mat_mul(B, Z))


DIRAC_CASES = {
    "regular": None,
    "redundant": None,
    "range": "range of the constraint block",
    "coupling": "nullspace couples to the free block",
}


@st.composite
def dirac_inputs(draw):
    """(case, P, constrained): an antisymmetric P whose constraint block C is
    invertible, then per case one more constrained index.  "redundant" adds
    a combination of the constrained coordinates (C singular, the couplings
    in its range); "range" an index with no C entries but couplings to the
    free block; "coupling" breaks antisymmetry with a C block [[0, c], [0, 0]]
    beside C whose null vector reaches the free block through B.  The
    indices are then permuted."""
    case = draw(st.sampled_from(sorted(DIRAC_CASES)))
    nfree, k = draw(st.integers(1, 3)), draw(st.sampled_from((2, 4)))
    D = nfree + k
    P = [[F(0)] * D for _ in range(D)]
    for i in range(D):
        for j in range(i + 1, D):
            P[i][j] = draw(rationals)
            P[j][i] = -P[i][j]
    con = list(range(nfree, D))
    assume(linalg.det([[P[i][j] for j in con] for i in con]) != 0)
    nonzero = rationals.filter(bool)
    if case == "redundant":
        c = draw(st.lists(rationals, min_size=k, max_size=k).filter(any))
        T = identity(D) + [[F(0)] * nfree + c]
        P = linalg.mat_mul(linalg.mat_mul(T, P), transpose(T))
    elif case == "range":
        b = draw(st.lists(rationals, min_size=nfree, max_size=nfree).filter(any))
        P = [row + [F(0)] for row in P] + [[-x for x in b] + [F(0)] * (k + 1)]
        for j, x in enumerate(b):
            P[j][D] = x
    elif case == "coupling":
        b = draw(st.lists(rationals, min_size=nfree, max_size=nfree).filter(any))
        P = [row + [F(0)] * 2 for row in P] + [[F(0)] * (D + 2) for _ in range(2)]
        P[D][D + 1] = draw(nonzero)
        for j, x in enumerate(b):
            P[j][D] = x
    n = len(P)
    perm = draw(st.permutations(range(n)))
    P = [[P[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return case, P, [i for i in range(n) if perm[i] >= nfree]


@given(dirac_inputs())
def test_dirac_reduce_matches_fraction_reference(case_P_con):
    case, P, con = case_P_con
    try:
        want = reference_dirac_reduce(P, con)
    except ConstraintNotSecondClass as exc:
        want = str(exc)
    try:
        got = dirac_reduce(P, con)
    except ConstraintNotSecondClass as exc:
        got = str(exc)
    assert got == want
    if DIRAC_CASES[case] is None:
        assert max_abs(mat_add(got, transpose(got))) == 0
    else:
        assert DIRAC_CASES[case] in got


def test_dirac_reduce_matches_fraction_reference_on_toda():
    # the last pivot of the int elimination is negative here (-64 at N = 7)
    rng = Random(23)
    for N in (5, 7):
        point = {"mu": random_fields(("u",), N, rng)["u"], "rho": random_fields(("beta",), N, rng)["beta"]}
        full = closed_tensor("toda", N).eval_matrix(point)
        con = [N + m for m in range(N)]
        assert dirac_reduce(full, con) == reference_dirac_reduce(full, con)


def test_pushforward_examples():
    assert pushforward_check(PerSeq.constant(5, 1)) == 0
    rng = Random(11)
    for N in (5, 7):
        u = random_fields(("u",), N, rng)["u"]
        assert pushforward_check(u) == 0
    with pytest.raises(ValueError):
        pushforward_check(PerSeq.constant(4, 1))


def test_jacobiator_zero_and_negative_control():
    N = 5
    rng = Random(12)
    toda = as_poly_tensor(closed_tensor("toda", N))
    pt = random_fields(("mu", "rho"), N, rng)
    assert jacobiator(toda, pt) == 0
    # deleting one term must break the Jacobi identity
    broken = PolyTensor(toda.field_names, N, toda.bracket_scale)
    broken.entries = dict(toda.entries)
    key = (0, 0, 1, 1)
    assert key in broken.entries
    del broken.entries[key]
    assert jacobiator(broken, pt) != 0


def poly_eval(poly: Poly, point) -> Fraction:
    """Reference: a Poly at a point (a dict or indexable of var -> value), in Fractions."""
    acc = F(0)
    for mono, c in poly.terms.items():
        t = c
        for var, e in mono:
            t *= point[var] ** e
        acc += t
    return acc


def reference_poly_matrix(TP: PolyTensor, point) -> list:
    """The dense matrix of a PolyTensor at a point, each entry by poly_eval."""
    N, D = TP.N, TP.n_vars()
    x = [point[name][m] for name in TP.field_names for m in range(N)]
    out = linalg.zeros(D, D)
    for (i, m, j, n), poly in TP.entries.items():
        out[i * N + m][j * N + n] = poly_eval(poly, x)
    return out


def test_poly_eval_matrix_matches_the_poly_reference():
    # the int evaluation of int_matrix against poly_eval, on expanded named
    # tensors, a tensor of degree 0 (top == 0, values over Lc) and points
    # with zero field values
    rng = Random(32)
    N = 5
    constant = PolyTensor(("mu", "rho"), N, F(1, 2))
    for m in range(N):
        c = F(m + 1, (2, 3, 7)[m % 3])
        add_term(constant, 0, m, 1, m + 2, Poly.const(c))
        add_term(constant, 1, m + 2, 0, m, Poly.const(-c))
    tensors = [closed_tensor(name, N).to_poly() for name in ("toda", "P1", "P2", "ftv_u")]
    tensors += [closed_tensor("murho", N, phi=random_odd_kernel(N, rng)).to_poly(), constant]
    for TP in tensors:
        pt = random_fields(TP.field_names, N, rng)
        zero = dict(pt, **{TP.field_names[0]: PerSeq(N, (F(0), F(0)) + pt[TP.field_names[0]].values[2:])})
        for point in (pt, zero):
            ref = reference_poly_matrix(TP, point)
            assert TP.eval_matrix(point) == ref
            L, rows = TP.int_matrix(point)
            assert [[F(v, L) for v in row] for row in rows] == ref
        assert any(any(row) for row in ref)


def _period_7(name: str) -> PerSeq:
    return random_fields((name,), 7, Random(34))[name]


WRONG_PERIOD = {
    "jacobiator": (lambda: jacobiator(closed_tensor("toda", 5), random_fields(("mu", "rho"), 7, Random(35))),
                   "field 'mu' has period 7, not 5"),
    "compatibility": (lambda: compatibility(closed_tensor("P1", 5), closed_tensor("P2", 5),
                                            [random_fields(("a", "b", "rho"), 3, Random(36))]),
                      "field 'a' has period 3, not 5"),
    "toda_dirac_vs_ftv": (lambda: toda_dirac_vs_ftv(5, _period_7("u"), _period_7("beta")),
                          "beta has period 7, not 5"),
    "closed_tensor_phi": (lambda: closed_tensor("murho", 7, phi=phi_special(2, 1, 5)), "phi has period 5, not 7"),
    "closed_tensor_beta": (lambda: closed_tensor("ftv_u", 5, beta=_period_7("beta")), "beta has period 7, not 5"),
    "gauge_normalize": (lambda: gauge_normalize(random_polygon(2, 5, Random(37)), _period_7("beta")),
                        "beta has period 7, not 5"),
}


@pytest.mark.parametrize("entry", list(WRONG_PERIOD))
def test_wrong_period_is_refused(entry):
    # a field, phi or beta of another period was truncated or wrapped
    call, message = WRONG_PERIOD[entry]
    with pytest.raises(ValueError, match=message):
        call()


def test_eval_matrix_and_int_matrix_refuse_a_wrong_period():
    T = closed_tensor("toda", 5)
    pt = random_fields(("mu", "rho"), 5, Random(38))
    with pytest.raises(ValueError, match="field 'rho' has period 7, not 5"):
        T.eval_matrix(dict(pt, rho=_period_7("rho")))
    with pytest.raises(ValueError, match="field 'u' has period 3, not 5"):
        closed_tensor("ftv_u", 5).int_matrix({"u": PerSeq.constant(3, 1)})


def test_a_missing_field_is_named():
    # a point lacking one of the tensor's fields is a ValueError naming it, on
    # every route from a point to the entries
    from polypoisson.dynamics import ham_vf, sum_field

    N = 5
    toda, P1, P2 = (closed_tensor(name, N) for name in ("toda", "P1", "P2"))
    no_rho = {"mu": random_fields(("mu",), N, Random(39))["mu"]}
    no_b = {k: v for k, v in random_fields(("a", "b", "rho"), N, Random(40)).items() if k != "b"}
    calls = [
        (lambda: jacobiator(toda, no_rho), "rho"),
        (lambda: compatibility(P1, P2, [no_b]), "b"),
        (lambda: toda.int_matrix(no_rho), "rho"),
        (lambda: toda.to_poly().int_matrix(no_rho), "rho"),
        (lambda: ham_vf(toda, sum_field(("mu", "rho"), N, "mu"), no_rho), "rho"),
        (lambda: ham_vf(toda.to_poly(), sum_field(("mu", "rho"), N, "mu"), no_rho), "rho"),
    ]
    for call, name in calls:
        with pytest.raises(ValueError, match=f"the point has no field '{name}'"):
            call()


def dense_triples(P, point) -> dict:
    """Reference Jacobiator of every triple I < J < K, all three cyclic terms, in Fractions.

    Values come from poly_eval and derivatives from Poly.diff, independently
    of the int evaluation of the pencil sweep.
    """
    TP = as_poly_tensor(P)
    N, D = TP.N, TP.n_vars()
    x = [point[name][m] for name in TP.field_names for m in range(N)]
    vals = reference_poly_matrix(TP, point)
    grads = [[{} for _ in range(D)] for _ in range(D)]
    for (i, m, j, n), poly in TP.entries.items():
        for s in {var for mono in poly.terms for var, _ in mono}:
            grads[i * N + m][j * N + n][s] = poly_eval(poly.diff(s), x)

    def term(I, J, K) -> Fraction:
        acc = F(0)
        for s, d in grads[J][K].items():
            if vals[I][s]:
                acc += vals[I][s] * d
        return acc

    return {
        (I, J, K): term(I, J, K) + term(J, K, I) + term(K, I, J)
        for I in range(D)
        for J in range(I + 1, D)
        for K in range(J + 1, D)
    }


def dense_jacobiator(P, point) -> Fraction:
    return max(map(abs, dense_triples(P, point).values()), default=F(0))


def perturbed(TP: PolyTensor, rng: Random, antisymmetric: bool) -> PolyTensor:
    """TP plus three random linear or quadratic terms with fractional coefficients.

    With antisymmetric=True each term is added at ((i, m), (j, n)) and
    subtracted at ((j, n), (i, m)); otherwise it is added at one entry only.
    """
    out = PolyTensor(TP.field_names, TP.N, TP.bracket_scale)
    out.entries = dict(TP.entries)
    N, nvars = TP.N, TP.n_vars()
    for _ in range(3):
        i, j = rng.randrange(TP.d), rng.randrange(TP.d)
        m, n = rng.randrange(N), rng.randrange(N)
        v1, v2 = rng.randrange(nvars), rng.randrange(nvars)
        mono = ((v1, 2),) if v1 == v2 else tuple(sorted(((v1, 1), (v2, 1))))
        if rng.random() < 0.3:
            mono = ((v1, 1),)
        p = Poly({mono: F(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4)))})
        add_term(out, i, m, j, n, p)
        if antisymmetric:
            add_term(out, j, n, i, m, -p)
    return out


def test_jacobiator_matches_dense_triple_loop():
    rng = Random(19)
    abr = ("a", "b", "rho")
    broken = []
    for N in (5, 7):
        for name, fields in (("toda", ("mu", "rho")), ("P1", abr), ("P2", abr)):
            TP = as_poly_tensor(closed_tensor(name, N))
            for kind in (None, True, True, False, False):
                T = TP if kind is None else perturbed(TP, rng, antisymmetric=kind)
                pt = random_fields(fields, N, rng)
                got = jacobiator(T, pt)
                assert isinstance(got, Fraction)
                assert got == dense_jacobiator(T, pt)
                if kind is None:
                    assert got == 0
                else:
                    broken.append(got)
    assert all(broken)
    assert any(r.denominator > 1 for r in broken)


def pencil(P: PolyTensor, Q: PolyTensor, t) -> PolyTensor:
    """P + tQ, summed entry by entry."""
    out = PolyTensor(P.field_names, P.N, P.bracket_scale)
    out.entries = dict(P.entries)
    for (i, m, j, n), poly in Q.entries.items():
        add_term(out, i, m, j, n, poly * t)
    return out


def dense_pencil(P, Q, point, representatives=False) -> tuple:
    """Reference t-coefficients (x, y, z) of the Jacobiator of P + tQ at a point.

    Each triple's Jacobiator x' + t y' + t^2 z' is read from the summed
    members at t = 0, 1, -1: x' = J0, y' = (J1 - J-1) / 2, z' = (J1 + J-1) / 2
    - J0; x, y, z are the max-abs of each over the triples, or, with
    representatives=True, over the triples whose smallest flat index is i N.
    """
    P, Q = as_poly_tensor(P), as_poly_tensor(Q)
    J0, J1, Jm = (dense_triples(T, point) for T in (P, pencil(P, Q, F(1)), pencil(P, Q, F(-1))))
    keys = [k for k in J0 if not representatives or k[0] % P.N == 0]
    coeffs = [(J0[k], (J1[k] - Jm[k]) / 2, (J1[k] + Jm[k]) / 2 - J0[k]) for k in keys]
    return tuple(max((abs(c[i]) for c in coeffs), default=F(0)) for i in range(3))


def dense_compatibility(P, Q, points) -> Fraction:
    return max(max(dense_pencil(P, Q, pt)) for pt in points)


class LinearityViolated(ValueError):
    """The reference Lie derivative's refusal of a tensor quadratic in the shift direction."""


def reference_lie_deform(P, direction):
    """The Lie derivative of P along the unit shift of one field: a degree
    check of every entry in the family, then the sum of the N partial
    derivatives along the family's site variables."""
    TP = as_poly_tensor(P)
    fidx = TP.field_names.index(direction)
    fam = [_var(fidx, m, TP.N) for m in range(TP.N)]
    for poly in TP.entries.values():
        if max((sum(e for v, e in mono if v in fam) for mono in poly.terms), default=0) >= 2:
            raise LinearityViolated(f"tensor is quadratic in field {direction!r}")
    out = PolyTensor(TP.field_names, TP.N, TP.bracket_scale)
    for (i, m, j, n), poly in TP.entries.items():
        acc = Poly()
        for v in fam:
            acc = acc + poly.diff(v)
        add_term(out, i, m, j, n, acc)
    return out


def reference_gf_check(P, direction, points) -> Fraction:
    """The sampled Lie-derivative pencil: the pencil of P and its Lie
    derivative LP certified at each of the points."""
    return compatibility(P, reference_lie_deform(P, direction), points)


def dense_symbolic_pencil(P, Q) -> tuple:
    """Reference t-coefficients of the Jacobiator of P + tQ as polynomials:
    the largest absolute coefficient of each of J(P), the mixed term and J(Q)
    over the triples I < J < K, summed in Poly arithmetic from Poly.diff."""
    N, D = P.N, P.n_vars()

    def ent(T, I, K):
        return T.entries.get((I // N, I % N, K // N, K % N), Poly())

    def jac(T, U, I, J, K):
        return sum((ent(T, a, s) * ent(U, b, c).diff(s) for a, b, c in ((I, J, K), (J, K, I), (K, I, J))
                    for s in range(D)), Poly())

    triples = [(I, J, K) for I in range(D) for J in range(I + 1, D) for K in range(J + 1, D)]
    polys = [[jac(P, P, *tr) for tr in triples], [jac(P, Q, *tr) + jac(Q, P, *tr) for tr in triples],
             [jac(Q, Q, *tr) for tr in triples]]
    return tuple(max((abs(c) for p in ps for c in p.terms.values()), default=F(0)) for ps in polys)


def test_compatibility_equals_pencil_jacobiator():
    # one evaluation of P and of Q per point gives exactly the three
    # t-coefficients of each triple's Jacobiator of the pencil
    N = 5
    rng = Random(29)
    abr = ("a", "b", "rho")
    P1 = as_poly_tensor(closed_tensor("P1", N))
    P2 = as_poly_tensor(closed_tensor("P2", N))
    dropped = []
    for key in rng.sample(sorted(P2.entries), 3):
        broken = PolyTensor(P2.field_names, N, P2.bracket_scale)
        broken.entries = dict(P2.entries)
        del broken.entries[key]
        dropped.append(broken)
    pairs = [(P1, P2)] + [(P1, Q) for Q in dropped]
    pairs += [(P1, perturbed(P2, rng, antisymmetric=True)), (P1, perturbed(P2, rng, antisymmetric=False))]
    pairs += [(perturbed(P1, rng, antisymmetric=True), P2), (perturbed(P1, rng, antisymmetric=False), dropped[0])]
    got = []
    for P, Q in pairs:
        pts = [random_fields(abr, N, rng) for _ in range(2)]
        got.append(compatibility(P, Q, pts))
        assert got[-1] == dense_compatibility(P, Q, pts)
        # the same sweep reads J(P) off the t^0 term and J(Q) off the t^2 term
        L, xyz = next(_pencil_sweep(P, Q, [pts[0]]))
        coeffs = tuple(F(c, L) for c in xyz)
        assert coeffs == dense_pencil(P, Q, pts[0])
        assert (coeffs[0], coeffs[2]) == (dense_jacobiator(P, pts[0]), dense_jacobiator(Q, pts[0]))
    assert got[0] == 0
    assert all(got[1:])
    assert any(r.denominator > 1 for r in got)


def uv_tensor(entries) -> PolyTensor:
    """A PolyTensor on the fields (u, v) at N = 3 from {(i, m, j, n): {mono: coeff}}."""
    T = PolyTensor(("u", "v"), 3)
    for key, terms in entries.items():
        add_term(T, *key, Poly(terms))
    return T


# flat variables at N = 3: u_m = m, v_m = 3 + m
MIXED = uv_tensor({
    (1, 0, 1, 1): {((3, 3),): F(2, 3)},  # v_0^3
    (0, 1, 1, 2): {((1, 1), (4, 2)): F(-5, 7)},  # u_1 v_1^2
    (0, 2, 0, 0): {(): F(3, 4)},  # a constant entry
    (0, 0, 0, 2): {((2, 1),): F(-3, 4)},
    (1, 1, 1, 2): {((1, 1),): F(1, 2), ((2, 1), (5, 1)): F(7, 5), ((0, 2),): F(-1, 3)},
    (1, 2, 1, 1): {((1, 1),): F(-1, 2), ((3, 1), (4, 1)): F(2, 9)},
    (0, 1, 1, 0): {((0, 1), (3, 1)): F(1, 6), (): F(-2)},
})
CUBIC = uv_tensor({
    (0, 0, 1, 2): {((5, 3),): F(4, 5)},  # v_2^3
    (1, 0, 0, 1): {((0, 1), (3, 2)): F(-1, 3), ((1, 2), (4, 1)): F(5, 11)},  # u_0 v_0^2, u_1^2 v_1
    (0, 2, 1, 1): {((2, 1),): F(3, 8), (): F(1, 5)},
})
CONSTANT = uv_tensor({(0, 0, 1, 1): {(): F(3, 7)}, (1, 2, 0, 1): {(): F(-5, 2)}})
EMPTY = uv_tensor({})
UV_POINTS = [
    # a zero coordinate among small-height values
    {"u": PerSeq(3, (F(0), F(2, 3), F(-5, 2))), "v": PerSeq(3, (F(1), F(-3, 4), F(7, 5)))},
    # denominators near 10^6, and a zero v
    {"u": PerSeq(3, (F(1, 999983), F(-7, 1000003), F(4, 999979))), "v": PerSeq(3, (F(999961, 1000033), F(0), F(-2, 999953)))},
]


def test_int_evaluation_matches_dense_reference_on_every_scaling_path():
    # cubic, constant, fractional and zero-valued terms against poly_eval and
    # Poly.diff, at points with a zero coordinate and with large denominators
    jacs = []
    for T in (MIXED, CUBIC, CONSTANT, EMPTY):
        for pt in UV_POINTS:
            got = jacobiator(T, pt)
            assert type(got) is Fraction
            assert got == dense_jacobiator(T, pt)
            jacs.append(got)
    assert jacobiator(EMPTY, UV_POINTS[0]) == 0
    assert jacobiator(CONSTANT, UV_POINTS[0]) == 0  # no gradient entries at all
    assert all(jacs[:4]) and any(r.denominator > 10**6 for r in jacs)
    for P, Q in ((MIXED, CUBIC), (CUBIC, MIXED), (MIXED, CONSTANT), (CONSTANT, CONSTANT), (CUBIC, EMPTY), (EMPTY, EMPTY)):
        got = compatibility(P, Q, UV_POINTS)
        assert type(got) is Fraction
        assert got == dense_compatibility(P, Q, UV_POINTS)


def test_symbolic_sweep_matches_dense_reference_on_every_scaling_path():
    # with no point the sweep reads the pencil's Jacobiator as polynomials:
    # its largest coefficients equal a Poly-arithmetic triple loop, on cubic,
    # constant, fractional and empty tensors
    tensors = (MIXED, CUBIC, CONSTANT, EMPTY)
    for P in tensors:
        for Q in tensors:
            L, xyz = next(_pencil_sweep(P, Q, [None]))
            assert tuple(F(c, L) for c in xyz) == dense_symbolic_pencil(P, Q)
    assert all(dense_symbolic_pencil(P, P)[0] for P in (MIXED, CUBIC))
    assert pencil_certificate(CONSTANT) != 0  # no Jacobiator term; its antisymmetry fails
    assert pencil_certificate(EMPTY) == 0


def test_gf_check_matches_dense_reference_with_a_perturbed_term():
    N = 5
    rng = Random(31)
    P1 = as_poly_tensor(closed_tensor("P1", N))
    pts = [random_fields(P1.field_names, N, rng) for _ in range(2)]
    broken = PolyTensor(P1.field_names, N, P1.bracket_scale)
    broken.entries = dict(P1.entries)
    # a^0 b^2 / 3 added to one entry: still linear in the direction a
    add_term(broken, 1, 2, 2, 4, Poly({((_var(0, 0, N), 1), (_var(1, 2, N), 1)): F(1, 3)}))
    got = reference_gf_check(broken, "a", pts)
    assert type(got) is Fraction
    assert got == dense_compatibility(broken, reference_lie_deform(broken, "a"), pts)
    assert got != 0
    assert shift_certificate(broken, "a") != 0


def test_pencil_needs_a_point():
    P1 = closed_tensor("P1", 5)
    P2 = closed_tensor("P2", 5)
    for points in ([], iter([])):
        with pytest.raises(ValueError, match="at least one point"):
            compatibility(P1, P2, points)


def test_a_none_point_is_refused():
    # with no point the sweep is symbolic and skips the antisymmetry check,
    # so the one-entry tensor {u_0, u_1} = u_0 u_1, which is not antisymmetric,
    # would read 0; pencil_certificate, the check with no point, reads 1
    T = PolyTensor(("u",), 5)
    add_term(T, 0, 0, 0, 1, Poly({((0, 1), (1, 1)): 1}))
    assert pencil_certificate(T) == 1
    pt = random_fields(("u",), 5, Random(3))
    with pytest.raises(ValueError, match="pencil_certificate"):
        jacobiator(T, None)
    for points in ([None], [pt, None], iter([None])):
        with pytest.raises(ValueError, match="pencil_certificate"):
            compatibility(T, T, points)


def test_pencil_needs_one_field_space():
    pts = [random_fields(("a", "b", "rho"), 5, Random(17))]
    # different field names at one period
    with pytest.raises(ValueError, match="different field spaces"):
        compatibility(closed_tensor("P1", 5), closed_tensor("toda", 5), pts)
    # the same field names at different periods
    with pytest.raises(ValueError, match="different field spaces"):
        compatibility(closed_tensor("P1", 5), closed_tensor("P1", 7), pts)
    with pytest.raises(ValueError, match="different field spaces"):
        pencil_certificate(closed_tensor("P1", 5), closed_tensor("P1", 7))


def test_compatibility_self_and_pair():
    N = 5
    rng = Random(13)
    P1 = closed_tensor("P1", N)
    P2 = closed_tensor("P2", N)
    pts = [random_fields(("a", "b", "rho"), N, rng) for _ in range(2)]
    assert compatibility(P1, P1, pts) == 0
    assert compatibility(P1, P2, pts) == 0


def test_compatibility_negative_control():
    # P1 stays compatible with P2 only as long as P2 is whole
    N = 5
    rng = Random(13)
    P1 = closed_tensor("P1", N)
    P2 = as_poly_tensor(closed_tensor("P2", N))
    pts = [random_fields(("a", "b", "rho"), N, rng) for _ in range(2)]
    broken = PolyTensor(P2.field_names, N, P2.bracket_scale)
    broken.entries = dict(P2.entries)
    del broken.entries[(0, 0, 0, 1)]
    assert compatibility(P1, broken, pts) != 0


def test_pencil_with_lie_derivative_is_the_shifted_tensor():
    # P + lam LP at a point is P at the point with the direction shifted by
    # lam, so certifying the (P, LP) pencil covers every shifted tensor
    N = 5
    rng = Random(14)
    for name, direction in (("toda", "mu"), ("P1", "a"), ("P2", "b")):
        P = as_poly_tensor(closed_tensor(name, N))
        pt = random_fields(P.field_names, N, rng)
        for lam in (F(3, 2), F(-2), F(1, 3)):
            moved = dict(pt, **{direction: PerSeq(N, tuple(v + lam for v in pt[direction].values))})
            assert pencil(P, reference_lie_deform(P, direction), lam).eval_matrix(pt) == P.eval_matrix(moved)


def drop_smallest_entry(P) -> PolyTensor:
    """P expanded, with the entry of its smallest key removed."""
    TP = as_poly_tensor(P)
    out = PolyTensor(TP.field_names, TP.N, TP.bracket_scale)
    out.entries = dict(TP.entries)
    del out.entries[min(out.entries)]
    return out


def test_shift_certificate_agrees_with_the_sampled_reference_pencil():
    # toda/mu, P1/a, P2/b and quotient_tensor(nu, phi^(k)) along a^(k) at
    # (2, 5) and (3, 7): the symbolic certificate and the Lie-derivative
    # pencil at sampled points both read 0, and both are nonzero once the
    # smallest entry is dropped
    rng = Random(50)
    cases = [(closed_tensor(name, 5), field) for name, field in (("toda", "mu"), ("P1", "a"), ("P2", "b"))]
    cases += [(quotient_tensor(nu, phi_special(nu, k, N)), f"a{k}") for nu, N in ((2, 5), (3, 7)) for k in range(1, nu)]
    for P, field in cases:
        pts = [random_fields(P.field_names, P.N, rng) for _ in range(2)]
        assert shift_certificate(P, field) == reference_gf_check(P, field, pts) == 0
        broken = drop_smallest_entry(P)
        assert shift_certificate(broken, field) != 0
        assert reference_gf_check(broken, field, pts) != 0


@pytest.mark.parametrize("nu, N", [(4, 9), (5, 11)])
def test_shift_certificate_sees_a_bumped_linear_word(nu, N):
    # one doubled linear word of quotient_tensor(nu, phi^(1)) breaks both
    # its antisymmetry and its Jacobi identity as polynomials
    TP = as_poly_tensor(double_last_diagonal_word(quotient_tensor(nu, phi_special(nu, 1, N))))
    L, (x, _, _) = next(_pencil_sweep(TP, None, [None]))
    assert x != 0
    assert shift_certificate(TP, "a1") != 0


def test_antisymmetry_is_part_of_the_certificate():
    # {mu_0, mu_0} = 1 added to toda, and {a_0, a_0} = 1 to P2: the sweep,
    # which reads each triple's Jacobiator assuming P_JK = -P_KJ, is blind
    # to a diagonal entry, so the point checks read 0; the certificate
    # carries the diagonal's 2 P_JJ
    N, rng = 5, Random(51)
    toda, P2 = as_poly_tensor(closed_tensor("toda", N)), as_poly_tensor(closed_tensor("P2", N))
    add_term(toda, 0, 0, 0, 0, Poly.const(1))
    add_term(P2, 0, 0, 0, 0, Poly.const(1))
    pts = [random_fields(toda.field_names, N, rng) for _ in range(2)]
    assert jacobiator(toda, pts[0]) == 0 and reference_gf_check(toda, "mu", pts) == 0
    assert shift_certificate(toda, "mu") == 2
    assert pencil_certificate(closed_tensor("P1", N), P2) == 2


def full_sweep(P, Q=None, point=None):
    """_pencil_sweep at one point with the shift check forced to fail: every smallest index is swept."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coord_reduction, "_shift_invariant", lambda T: False)
        return next(_pencil_sweep(P, Q, [point]))


def invariant_bump(P, i: int, j: int, dn: int, factors, c) -> PolyTensor:
    """P expanded, plus at every site m the term c prod_(f, s) x^f_{m+s} at
    ((i, m), (j, m + dn)) and minus it at ((j, m + dn), (i, m)): the same
    antisymmetric bump at each site, so the result commutes with the shift."""
    TP = as_poly_tensor(P)
    N = TP.N
    out = PolyTensor(TP.field_names, N, TP.bracket_scale)
    out.entries = dict(TP.entries)
    for m in range(N):
        p = Poly({tuple(sorted((_var(f, (m + s) % N, N), 1) for f, s in factors)): c})
        add_term(out, i, m, j, m + dn, p)
        add_term(out, j, m + dn, i, m, -p)
    return out


def shift_cases() -> list:
    """toda, P1 and P2 at N 5 and 7, and quotient_tensor(nu, phi^(k)) at (2, 5), (3, 7) and (4, 9)."""
    cases = [as_poly_tensor(closed_tensor(name, N)) for N in (5, 7) for name in ("toda", "P1", "P2")]
    cases += [as_poly_tensor(quotient_tensor(nu, phi_special(nu, k, N)))
              for nu, N in ((2, 5), (3, 7), (4, 9)) for k in range(1, nu)]
    return cases


def test_reduced_symbolic_sweep_equals_the_full_sweep():
    # on polynomials a shifted triple's Jacobiator is the triple's with its
    # variables relabelled, so one triple per shift orbit reads the same
    # (L, xyz) as every triple
    for T in shift_cases():
        assert coord_reduction._shift_invariant(T)
        L, xyz = next(_pencil_sweep(T, None, [None]))
        assert (L, xyz) == full_sweep(T) and xyz == (0, 0, 0)
    for N in (5, 7):
        P1, P2 = (as_poly_tensor(closed_tensor(name, N)) for name in ("P1", "P2"))
        assert next(_pencil_sweep(P1, P2, [None])) == full_sweep(P1, P2)


def test_invariant_bump_is_red_with_the_full_sweeps_height():
    # the same antisymmetric term at every site passes the shift check and
    # breaks Jacobi: the reduced sweep reads it at a point and symbolically,
    # with the full sweep's polynomial heights; one bump's monomial
    # mu_{m-1} mu_m wraps from site N - 1 to site 0 and is re-sorted there
    N, rng = 5, Random(62)
    toda, P1, P2 = (as_poly_tensor(closed_tensor(name, N)) for name in ("toda", "P1", "P2"))
    bumps = [
        (invariant_bump(toda, 0, 1, 1, ((0, 0), (0, N - 1)), F(1, 3)), None),
        (invariant_bump(toda, 0, 0, 2, ((1, 0),), F(-2, 5)), None),
        (P1, invariant_bump(P2, 0, 2, N - 1, ((1, 0), (0, 2)), F(3, 2))),
    ]
    for P, Q in bumps:
        assert all(coord_reduction._shift_invariant(T) for T in (P, Q) if T is not None)
        L, xyz = next(_pencil_sweep(P, Q, [None]))
        assert any(xyz)
        assert (L, xyz) == full_sweep(P, Q)
        pt = random_fields(P.field_names, N, rng)
        L, xyz = next(_pencil_sweep(P, Q, [pt]))
        assert any(xyz)
        zero = PolyTensor(P.field_names, N, P.bracket_scale)
        assert tuple(F(c, L) for c in xyz) == dense_pencil(P, Q or zero, pt, representatives=True)
    assert shift_certificate(bumps[0][0], "mu") != 0


def test_reduced_sweep_at_a_point_reads_the_orbit_representatives():
    # at a point, each shift orbit is tested by its triples of smallest flat
    # index i N, at that one point: the reduced value equals the dense
    # reference over those triples, and reads 0 on the named tensors
    rng = Random(63)
    N = 7
    toda, P1, P2 = (as_poly_tensor(closed_tensor(name, N)) for name in ("toda", "P1", "P2"))
    bumped = invariant_bump(toda, 1, 0, 3, ((0, 1), (1, N - 1)), F(5, 4))
    for T in (toda, P1, P2, bumped):
        pt = random_fields(T.field_names, N, rng)
        reps = [abs(v) for (I, _, _), v in dense_triples(T, pt).items() if I % N == 0]
        assert jacobiator(T, pt) == max(reps)
    assert jacobiator(bumped, pt) != 0
    pt = random_fields(P1.field_names, N, rng)
    L, xyz = next(_pencil_sweep(P1, P2, [pt]))
    assert tuple(F(c, L) for c in xyz) == dense_pencil(P1, P2, pt, representatives=True) == (0, 0, 0)


def test_shift_check_reads_every_entry():
    # a dropped entry and one coefficient changed at one site fail the check
    # (and get the full sweep); an equal coefficient built apart passes it;
    # the empty tensor and a pencil with no second tensor still sweep
    N, rng = 7, Random(64)
    P1, P2 = (as_poly_tensor(closed_tensor(name, N)) for name in ("P1", "P2"))
    dropped = drop_smallest_entry(P2)
    assert not coord_reduction._shift_invariant(dropped)
    pts = [random_fields(P1.field_names, N, rng)]
    assert compatibility(P1, dropped, pts) == dense_compatibility(P1, dropped, pts) != 0
    assert pencil_certificate(P1, dropped) != 0
    key = (0, 3, 0, 5)
    (mono, c), = P2.entries[key].terms.items()
    for coeff, invariant in ((2 * c, False), (c + F(1, 10**9), False), (F(c.numerator, c.denominator), True)):
        T = PolyTensor(P2.field_names, N, P2.bracket_scale)
        T.entries = dict(P2.entries)
        T.entries[key] = Poly({mono: coeff})
        assert coord_reduction._shift_invariant(T) is invariant
    assert coord_reduction._shift_invariant(EMPTY)
    assert next(_pencil_sweep(EMPTY, None, [None])) == (1, (0, 0, 0))
    assert jacobiator(EMPTY, UV_POINTS[0]) == 0


def reference_shift_invariant(T: PolyTensor) -> bool:
    """The shift check as one shifted, re-sorted dict per entry, compared whole with the partner's terms."""
    N, E, zero = T.N, T.entries, Poly()
    sh = [v + 1 - N if v % N == N - 1 else v + 1 for v in range(T.n_vars())]
    return all(E.get((i, (m + 1) % N, j, (n + 1) % N), zero).terms
               == {tuple(sorted([(sh[v], e) for v, e in mono])): c for mono, c in p.terms.items()}
               for (i, m, j, n), p in E.items())


def with_entry(T: PolyTensor, key, terms) -> PolyTensor:
    """A copy of T whose entry at key is a Poly holding exactly the given terms (zeros and all)."""
    out = PolyTensor(T.field_names, T.N, T.bracket_scale)
    out.entries = dict(T.entries)
    out.entries[key] = poly = Poly()
    poly.terms = dict(terms)
    return out


def test_shift_check_gives_the_reference_verdict():
    # the term-by-term check with its early exit gives the whole-dict verdict
    # on the invariant tensors, on perturbed ones and on each way one entry
    # can differ from its partner
    N = 5
    toda, P2 = (as_poly_tensor(closed_tensor(name, N)) for name in ("toda", "P2"))
    key = next(k for k, p in P2.entries.items() if len(p.terms) == 1)
    ((mono, c),) = P2.entries[key].terms.items()
    i, m, j, n = key
    partner = (i, (m + 1) % N, j, (n + 1) % N)
    ((pmono, pc),) = P2.entries[partner].terms.items()
    other = next(mo for p in P2.entries.values() for mo in p.terms if mo != pmono)
    # mu_{m-1} mu_m at ((mu, m), (rho, m + 1)): at m = 0 the monomial mu_0 mu_{N-1}
    # shifts to mu_1 mu_0, which only re-sorted is a key of the partner
    wrap = invariant_bump(toda, 0, 1, 1, ((0, 0), (0, N - 1)), F(1, 3))
    wmono = ((0, 1), (N - 1, 1))
    assert wmono in wrap.entries[0, 0, 1, 1].terms
    built_apart = F(c.numerator, c.denominator)
    assert built_apart is not c
    # EMPTY lives on (u, v) at N = 3: (u_0, v_2) has the missing partner (u_1, v_0)
    assert (0, 1, 1, 0) not in EMPTY.entries
    cases = [
        (with_entry(EMPTY, (0, 0, 1, 2), {}), True),
        (with_entry(P2, partner, {pmono: pc, other: F(1)}), False),
        (wrap, True),
        (with_entry(wrap, (0, 0, 1, 1), {**wrap.entries[0, 0, 1, 1].terms, wmono: F(1, 4)}), False),
        (with_entry(P2, key, {mono: built_apart}), True),
        (with_entry(P2, key, {mono: c + 1}), False),
        (with_entry(P2, key, {mono: c, other: F(0)}), False),
        (drop_smallest_entry(P2), False),
        (EMPTY, True), (MIXED, False), (CUBIC, False), (CONSTANT, False),
    ]
    rng = Random(66)
    for T in shift_cases():
        cases += [(T, True), (perturbed(T, rng, antisymmetric=True), False)]
    for T, verdict in cases:
        assert reference_shift_invariant(T) is verdict
        assert coord_reduction._shift_invariant(T) is verdict


def reference_int_poly(poly: Poly, X, pw):
    """(v, grad) of poly at the int point X, the term rule summed into a defaultdict."""
    val, grad = 0, defaultdict(int)
    for mono, c in poly.terms.items():
        k, t = 0, 1
        for v, e in mono:
            k += e
            t *= X[v] ** e
        c = c.numerator * pw[k] // c.denominator
        val += c * t
        for v, e in mono:
            if x := X[v]:
                grad[v] += c * e * (t // x)
            elif e == 1:
                grad[v] += c * prod(X[u] ** f for u, f in mono if u != v)
    return val, grad


def reference_int_tables(T: PolyTensor, X, pw):
    """The sweep's (V, G) tables in two passes: the lists of nonzero values
    (J, K, v) and gradient entries (J, K, s, d) first, then the tables from them."""
    N, D = T.N, T.n_vars()
    vals, grads = [], []
    for (i, m, j, n), poly in T.entries.items():
        J, K = _var(i, m, N), _var(j, n, N)
        val, grad = reference_int_poly(poly, X, pw) if X is not None else coord_reduction._sym_poly(poly, pw[0])
        if val:
            vals.append((J, K, val))
        grads.extend((J, K, s, d) for s, d in grad.items() if d)
    row, col, by_s, up, down = ([[] for _ in range(D)] for _ in range(5))
    for I, s, v in vals:
        row[I].append((s, v))
        col[s].append((I, v))
    for J, K, s, d in grads:
        if J < K:
            by_s[s].append((J, J * D + K, d))
            up[J].append((K, K * D, s, d))
        elif J > K:
            down[K].append((J, s, d))
    for ent in col + by_s:
        ent.sort(key=lambda e: e[0])
    colD = [[(I * D, v) for I, v in ent] for ent in col]
    return (row, col, colD), (by_s, up, down)


def plain_tables(tables) -> list:
    """The six tables with every Poly read as its terms, so polynomial tables compare by value."""
    return [[[tuple(x.terms if isinstance(x, Poly) else x for x in e) for e in ent] for ent in table]
            for part in tables for table in part]


def count_calls(monkeypatch, module, names) -> defaultdict:
    """Wrap each named function of module so that its calls are counted by name."""
    calls = defaultdict(int)
    for name in names:
        def counted(*args, f=getattr(module, name), name=name):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_tables_equal_the_two_pass_reference_with_one_evaluation_per_entry(monkeypatch):
    # the work-count and equality guard: each entry is evaluated once, by
    # _int_poly at a point and by _sym_poly with none, and the tables equal
    # the two-pass reference list for list, at a zero coordinate, at
    # denominators near 10^6 and on polynomials; with step N (the shift-reduced
    # sweep, on toda, P1 and P2) row, up and down, which _accumulate reads only
    # at a = 0, N, 2N, ..., equal the reference there and are empty elsewhere
    calls = count_calls(monkeypatch, coord_reduction, ("_int_poly", "_sym_poly"))
    rng, N = Random(67), 5
    named = [as_poly_tensor(closed_tensor(name, N)) for name in ("toda", "P1", "P2")]
    cases = [(T, pt) for T in (MIXED, CUBIC, CONSTANT, EMPTY) for pt in UV_POINTS + [None]]
    for T in named + [perturbed(named[1], rng, antisymmetric=False)]:
        cases += [(T, random_fields(T.field_names, N, rng)), (T, None)]
    for T, pt in cases:
        scale = coord_reduction._int_scale(T.entries.values())
        X, pw, _, _ = coord_reduction._int_point(scale, None if pt is None else T.point_values(pt))
        calls.clear()
        got = coord_reduction._int_tables(T, X, pw, 1)
        assert dict(calls) == ({"_int_poly" if pt else "_sym_poly": len(T.entries)} if T.entries else {})
        ref = plain_tables(reference_int_tables(T, X, pw))
        assert plain_tables(got) == ref
        if T in named:
            row, col, colD, by_s, up, down = plain_tables(coord_reduction._int_tables(T, X, pw, N))
            assert [col, colD, by_s] == ref[1:4]
            swept = range(0, T.n_vars(), N)
            for table, full in ((row, ref[0]), (up, ref[4]), (down, ref[5])):
                assert [table[a] for a in swept] == [full[a] for a in swept]
                assert not any(table[a] for a in range(T.n_vars()) if a % N)
                assert any(table) and sum(map(len, table)) < sum(map(len, full))


def test_compatibility_reads_each_tensor_once_per_call(monkeypatch):
    # over several points the shift check runs once per tensor and the scale
    # scan once per call; only the point's scaling, the tables and the sweep
    # repeat per point, and each point reads what it reads alone
    calls = count_calls(monkeypatch, coord_reduction, ("_shift_invariant", "_int_scale", "_int_point"))
    N, rng = 5, Random(68)
    P1, P2 = (as_poly_tensor(closed_tensor(name, N)) for name in ("P1", "P2"))
    pts = [random_fields(P1.field_names, N, rng) for _ in range(3)]
    assert compatibility(P1, P2, pts) == 0
    assert dict(calls) == {"_shift_invariant": 2, "_int_scale": 1, "_int_point": 3}
    broken = perturbed(P2, rng, antisymmetric=True)
    per_point = [next(_pencil_sweep(P1, broken, [pt])) for pt in pts]
    assert compatibility(P1, broken, pts) == max(F(max(xyz), L) for L, xyz in per_point) != 0
    assert compatibility(P1, broken, pts) == dense_compatibility(P1, broken, pts)
    # a shift-invariant tensor that fails Jacobi sweeps only a = i N, at every
    # point: the dense reference over those triples, still one shift check each
    bumped = invariant_bump(P2, 0, 2, N - 1, ((1, 0), (0, 2)), F(3, 2))
    calls.clear()
    got = compatibility(P1, bumped, pts)
    assert dict(calls) == {"_shift_invariant": 2, "_int_scale": 1, "_int_point": 3}
    zero = PolyTensor(P1.field_names, N, P1.bracket_scale)
    reps = [dense_pencil(P1, bumped, pt, representatives=True) for pt in pts]
    assert got == max(map(max, reps)) != 0
    assert jacobiator(bumped, pts[0]) == dense_pencil(bumped, zero, pts[0], representatives=True)[0] != 0


def test_invariant_pencil_sweeps_one_index_per_field(monkeypatch):
    # the work-count guard: 4 _accumulate calls per swept index, so d
    # indices (0, N, 2N) for the invariant P1 + tP2 and all d N once an
    # entry of P2 is dropped
    calls = []
    accumulate = coord_reduction._accumulate
    monkeypatch.setattr(coord_reduction, "_accumulate", lambda acc, a, *rest: calls.append(a) or accumulate(acc, a, *rest))
    N = 7
    P1, P2 = (as_poly_tensor(closed_tensor(name, N)) for name in ("P1", "P2"))
    pts = [random_fields(P1.field_names, N, Random(65))]
    d = P1.d
    assert compatibility(P1, P2, pts) == 0
    assert len(calls) == 4 * d and sorted(set(calls)) == [0, N, 2 * N]
    calls.clear()
    assert compatibility(P1, drop_smallest_entry(P2), pts) != 0
    assert len(calls) == 4 * d * N


def test_named_tensor_monomials_are_canonical():
    # every monomial of an expanded named tensor is strictly sorted by
    # variable with positive exponents, the invariant Poly arithmetic keys on
    N = 5
    rng = Random(17)
    tensors = [closed_tensor(name, N, phi=random_odd_kernel(N, rng)).to_poly() for name in ("murho", "abrho")]
    tensors += [closed_tensor(name, N).to_poly() for name in ("toda", "P0", "P1", "P2", "ftv_u")]
    for T in tensors:
        for poly in T.entries.values():
            for mono in poly.terms:
                assert all(e > 0 for _, e in mono), mono
                assert all(a < b for (a, _), (b, _) in zip(mono, mono[1:])), mono


def test_fields_aliases():
    # V_{m+3} = V_m - 2 V_{m+1} + 3 V_{m+2}, so a^(k)_m = (-1)^(2-k) c_k is
    # the constant (1, 2, 3); M = T^4 is read off V_4..V_6
    V = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for m in range(4):
        V.append(tuple(x - 2 * y + 3 * z for x, y, z in zip(*V[m : m + 3])))
    point = coords(Polygon(3, 4, tuple(V[:4]), tuple(V[4:7])))
    assert point["rho"].values == point["a0"].values
    assert point["b"][0] == 2 and point["a"][0] == 3
    assert point[f"a{alias_index(3, 'b')}"] is point["b"]
    with pytest.raises(KeyError):
        point["mu"]
    with pytest.raises(KeyError):
        alias_index(3, "mu")
