import json
import math
import struct
from fractions import Fraction
from random import Random

import pytest
from test_coord_reduction import (
    LinearityViolated,
    poly_eval,
    reference_gf_check,
    reference_lie_deform,
    reference_poly_matrix,
)
from test_exchange_algebra import reference_vertex, reference_wronskian

from polypoisson import acceptance, cli, coord_reduction, dynamics, linalg
from polypoisson.coord_reduction import (
    PolyTensor,
    _var,
    as_poly_tensor,
    closed_tensor,
    coords,
    jacobiator,
    quotient_tensor,
    random_fields,
    shift_certificate,
)
from polypoisson.dynamics import (
    TransferMatrix,
    char_poly,
    commute_check,
    det_transfer,
    field_polys,
    ham_vf,
    integrate,
    lifted_flow_residual,
    lifted_vf,
    sum_field,
    toda_float_vf,
    toda_invariants,
    trace_transfer,
    transfer_invariants,
)
from polypoisson.exchange_algebra import Polygon, random_polygon
from polypoisson.lattice_ops import PerSeq, phi_special, random_odd_kernel
from polypoisson.multipoly import Poly

F = Fraction


def test_ham_vf_toda_flow():
    N = 5
    toda = closed_tensor("toda", N)
    pt = random_fields(("mu", "rho"), N, Random(0))
    vel = ham_vf(toda, sum_field(("mu", "rho"), N, "mu"), pt)
    mu, rho = pt["mu"], pt["rho"]
    for m in range(N):
        assert vel["mu"][m] == rho[m + 1] - rho[m]
        assert vel["rho"][m] == rho[m] * (mu[m] - mu[m - 1])


def test_ham_vf_constant_hamiltonian():
    N = 5
    toda = closed_tensor("toda", N)
    vel = ham_vf(toda, Poly.const(7), random_fields(("mu", "rho"), N, Random(1)))
    assert all(v == 0 for v in vel["mu"].values) and all(v == 0 for v in vel["rho"].values)


def test_ham_vf_rejects_variables_outside_the_field_space():
    N = 5
    toda = closed_tensor("toda", N)
    pt = random_fields(("mu", "rho"), N, Random(1))
    with pytest.raises(ValueError, match="different field spaces"):
        ham_vf(toda, Poly.var(2 * N), pt)
    with pytest.raises(ValueError, match="different field spaces"):
        commute_check(toda, Poly.var(0), Poly.var(2 * N))


def test_ham_vf_casimir_tensor_freezes_rho():
    N = 5
    murho0 = closed_tensor("murho", N, phi=phi_special(2, 0, N))
    H = sum_field(("mu", "rho"), N, "mu")
    vel = ham_vf(murho0, H, random_fields(("mu", "rho"), N, Random(2)))
    assert all(v == 0 for v in vel["rho"].values)


def test_ham_vf_reads_either_tensor_form_like_the_dense_product():
    # the sum over entry values matches P . dH formed with the dense matrix,
    # and the operator form gives what its expansion gives
    N = 5
    rng = Random(6)
    names = ("mu", "rho")
    H = trace_transfer(names, N) + sum_field(names, N, "rho") * Poly.var(_var(0, 2, N), Fraction(-3, 2))
    for T in (closed_tensor("toda", N), closed_tensor("murho", N, phi=phi_special(2, 1, N))):
        TP = as_poly_tensor(T)
        pt = random_fields(names, N, rng)
        vel = ham_vf(T, H, pt)
        assert vel == ham_vf(TP, H, pt)
        x = TP.point_values(pt)
        grad = {v: poly_eval(H.diff(v), x) for v in range(TP.n_vars())}
        dense = linalg.mat_vec(TP.eval_matrix(pt), [grad[v] for v in range(TP.n_vars())])
        assert [x for name in names for x in vel[name].values] == dense
        assert any(dense)


def reference_ham_vf(TP: PolyTensor, H: Poly, point) -> list:
    """P . dH in Fractions: each entry by poly_eval, each partial of H by
    Poly.diff and poly_eval, summed over the dense matrix."""
    x = TP.point_values(point)
    return linalg.mat_vec(reference_poly_matrix(TP, point), [poly_eval(H.diff(v), x) for v in range(TP.n_vars())])


def degree_zero_tensor(N: int) -> PolyTensor:
    """A tensor whose entries are all constants, with coprime denominators."""
    T = PolyTensor(("mu", "rho"), N)
    for m in range(N):
        c = F(m + 1, (2, 3, 5)[m % 3])
        T.add_term(0, m, 1, (m + 1) % N, Poly.const(c))
        T.add_term(1, (m + 1) % N, 0, m, Poly.const(-c))
    return T


def test_ham_vf_matches_the_poly_reference():
    # both tensor forms, a constant H, a tensor of degree 0 (values and
    # gradients then share the scale Lc) and a point with zero field values
    N = 5
    rng = Random(31)
    names = ("mu", "rho")
    Hs = [
        trace_transfer(names, N),
        det_transfer(names, N) + Poly.var(_var(1, 3, N), F(5, 7)) * Poly.var(_var(1, 3, N)) * Poly.var(_var(0, 1, N)),
        Poly.const(F(-4, 3)),
    ]
    tensors = [closed_tensor("toda", N), closed_tensor("murho", N, phi=phi_special(2, 1, N))]
    zero = random_fields(names, N, rng)
    zero["mu"] = PerSeq(N, (F(0),) + zero["mu"].values[1:])
    for pt in (random_fields(names, N, rng), zero):
        for T in tensors + [degree_zero_tensor(N)]:
            TP = as_poly_tensor(T)
            for H in Hs:
                vel = ham_vf(T, H, pt)
                assert [x for name in names for x in vel[name].values] == reference_ham_vf(TP, H, pt)
                assert vel == ham_vf(TP, H, pt)


def test_lifted_vf_constant_wronskian():
    V = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1))
    M = ((1, -1), (1, 0))
    W = Polygon(2, 5, V, M)
    vdot, mdot = lifted_vf(W)
    for m in range(5):
        assert vdot[m] == tuple(reference_vertex(W, m - 1))
    assert all(x == 0 for row in mdot for x in row)


def test_lifted_vf_matches_the_wronskian_ratio_reference():
    # dV_m/dt = (w_m / w_{m-1}) V_{m-1} with Fraction Wronskians and V_{-1} =
    # V_{N-1} M^-1, against the fields' a^(0)_{m-1} V_{m-1} and, at m = 0,
    # a^(1)_{N-1} V_0 - V_1
    rng = Random(12)
    for N in (2, 3, 5, 7, 9):
        for _ in range(5):
            W = random_polygon(2, N, rng)
            vdot, _ = lifted_vf(W)
            for m in range(N):
                ratio = reference_wronskian(W, m) / reference_wronskian(W, m - 1)
                assert vdot[m] == tuple(ratio * x for x in reference_vertex(W, m - 1)), (N, m)


def test_lifted_vf_scaling_homogeneity():
    rng = Random(3)
    W = random_polygon(2, 5, rng)
    c = F(3, 2)
    W2 = Polygon(2, 5, tuple(tuple(c * x for x in row) for row in W.V), W.M)
    v1, _ = lifted_vf(W)
    v2, _ = lifted_vf(W2)
    for m in range(5):
        assert v2[m] == tuple(c * x for x in v1[m])


def test_lifted_flow_pushforward():
    rng = Random(4)
    for N in (5, 7):
        for _ in range(3):
            assert lifted_flow_residual(random_polygon(2, N, rng)) == 0


def test_transfer_invariants_examples():
    coeffs = transfer_invariants((PerSeq.constant(3, 1), PerSeq.constant(3, 1)))
    # char poly x^2 + 2x + 1: trace -2, determinant 1
    assert coeffs == [F(1), F(2), F(1)]
    T = TransferMatrix.of((PerSeq.constant(1, 3), PerSeq.constant(1, 5)), 1)
    assert T.monodromy == [[F(0), F(-3)], [F(1), F(5)]]


def test_transfer_invariants_rejects_mixed_periods():
    with pytest.raises(ValueError, match=r"^a\^\(1\) has period 3, not 5$"):
        transfer_invariants((PerSeq.constant(5, 2), PerSeq.constant(3, 1)))


def test_transfer_det_is_product_of_rho():
    rng = Random(5)
    N = 5
    pt = random_fields(("mu", "rho"), N, rng)
    coeffs = transfer_invariants((pt["rho"], pt["mu"]))
    prod = F(1)
    for m in range(N):
        prod *= pt["rho"][m]
    # constant coefficient of char(T) is (-1)^nu det T
    assert coeffs[-1] == prod


def test_transfer_matches_polygon_monodromy():
    # the recursion monodromy is conjugate to the polygon monodromy, so the
    # characteristic polynomials agree
    rng = Random(6)
    W = random_polygon(2, 5, rng)
    f = coords(W)
    assert char_poly([list(r) for r in W.M]) == transfer_invariants((f["a0"], f["a1"]))


def test_commuting_integrals():
    N = 5
    names = ("mu", "rho")
    toda = closed_tensor("toda", N)
    Smu = sum_field(names, N, "mu")
    for I in (Smu, trace_transfer(names, N), det_transfer(names, N)):
        assert commute_check(toda, Smu, I) == 0


def test_trace_transfer_term_counts():
    assert [len(trace_transfer(("mu", "rho"), N).terms) for N in (5, 7, 9, 11)] == [11, 29, 76, 199]


def _principal_minors_2(T):
    n = len(T)
    return sum(T[i][i] * T[j][j] - T[i][j] * T[j][i] for i in range(n) for j in range(i + 1, n))


def test_nu3_spectral_invariants_commute_under_both_pencil_tensors():
    N = 5
    names = ("a", "b", "rho")
    T = TransferMatrix.of(field_polys(names, N), N).monodromy
    invariants = (trace_transfer(names, N), _principal_minors_2(T), det_transfer(names, N))
    assert all(isinstance(I, Poly) and not I.is_zero() for I in invariants)
    for name in ("P1", "P2"):
        P = as_poly_tensor(closed_tensor(name, N))
        for i in range(3):
            for j in range(i + 1, 3):
                assert commute_check(P, invariants[i], invariants[j]) == 0, (name, i, j)


def test_transfer_polys_evaluate_to_the_transfer_invariants():
    N = 5
    pt = random_fields(("mu", "rho"), N, Random(11))
    x = [pt[name][m] for name in ("mu", "rho") for m in range(N)]
    _, c1, c0 = transfer_invariants((pt["rho"], pt["mu"]))
    assert poly_eval(trace_transfer(("mu", "rho"), N), x) == -c1
    assert poly_eval(det_transfer(("mu", "rho"), N), x) == c0


def _commuting_integrals_doc():
    docs = acceptance.check_flow_consistency(0)
    return next(d for d in docs if d.check == "commuting_integrals")


def test_commuting_integrals_negative_controls(monkeypatch):
    assert _commuting_integrals_doc().passed
    real_closed_tensor = acceptance.closed_tensor

    def perturbed(name, N):
        T = as_poly_tensor(real_closed_tensor(name, N))
        T.add_term(0, 0, 1, 0, Poly.var(_var(1, 0, N)))
        return T

    with monkeypatch.context() as mp:
        mp.setattr(acceptance, "closed_tensor", perturbed)
        assert not _commuting_integrals_doc().passed

    def short_trace(names, N):
        comps = TransferMatrix.of(field_polys(names, N), N).companions
        T = comps[0]
        for L in comps[1:-1]:
            T = linalg.mat_mul(T, L)
        return T[0][0] + T[1][1]

    monkeypatch.setattr(acceptance, "trace_transfer", short_trace)
    assert not _commuting_integrals_doc().passed


def test_lifted_flow_negative_control(monkeypatch):
    W = random_polygon(2, 5, Random(4))
    assert lifted_flow_residual(W) == 0
    real_lifted_vdot = dynamics._lifted_vdot

    def perturbed(ctx):
        vdot = real_lifted_vdot(ctx)
        bumped = tuple(x + 1 for x in vdot[2])
        return vdot[:2] + (bumped,) + vdot[3:]

    monkeypatch.setattr(dynamics, "_lifted_vdot", perturbed)
    assert lifted_flow_residual(W) != 0


def test_lifted_flow_residual_solves_each_site_once(monkeypatch):
    # lifted_vf's fields and the residual's pushforward read one _DualCtx
    solves, real_site = [], dynamics._DualCtx._site

    def counting(self, m):
        if m not in self._sites:
            solves.append(m)
        return real_site(self, m)

    monkeypatch.setattr(dynamics._DualCtx, "_site", counting)
    assert lifted_flow_residual(random_polygon(2, 7, Random(5))) == 0
    assert sorted(solves) == list(range(7))


def test_lie_deform_toda_mu_direction():
    N = 5
    toda = as_poly_tensor(closed_tensor("toda", N))
    LP = reference_lie_deform(toda, "mu")
    pt = random_fields(("mu", "rho"), N, Random(9))
    mat = LP.eval_matrix(pt)
    rho = pt["rho"]
    for m in range(N):
        for n in range(N):
            assert mat[m][n] == 0  # mu-mu block has no mu dependence
            expect = (rho[n] if (m + 1) % N == n else 0) - (rho[n] if m == n else 0)
            assert mat[m][N + n] == expect
            assert mat[N + m][N + n] == 0


def _refused(P, direction) -> bool:
    try:
        reference_lie_deform(P, direction)
    except LinearityViolated:
        return True
    return False


def test_shift_certificate_refuses_what_the_reference_lie_derivative_refuses(monkeypatch):
    # the named pencil tensors along every field, and the quotient bracket at
    # each phi^(k) (linear in a^(k) only) and at a random odd phi (quadratic
    # in every a^(k)) along every field: the certificate's degree scan gives
    # 1 exactly where the reference refuses, and certifies P elsewhere
    monkeypatch.setattr(coord_reduction, "pencil_certificate", lambda P: F(0))
    named = [closed_tensor(name, 5) for name in ("toda", "P1", "P2")]
    cases = [(P, field) for P in named for field in P.field_names]
    for nu, N in ((2, 7), (3, 8), (4, 9), (5, 11)):
        for phi in [phi_special(nu, k, N) for k in range(1, nu)] + [random_odd_kernel(N, Random(nu))]:
            T = quotient_tensor(nu, phi)
            cases += [(T, field) for field in T.field_names]
    outcomes = [shift_certificate(P, field) for P, field in cases]
    assert outcomes == [F(_refused(P, field)) for P, field in cases]
    # linear: toda in mu, P1 in a, P2 in b, and each phi^(k) tensor in a^(k)
    assert outcomes.count(0) == 3 + 1 + 2 + 3 + 4


def test_lie_deform_rejects_quadratic_direction():
    with pytest.raises(LinearityViolated):
        reference_lie_deform(closed_tensor("ftv_u", 5), "u")
    assert shift_certificate(closed_tensor("ftv_u", 5), "u") == 1


@pytest.mark.parametrize("direction", [-1, 2, 7])
def test_a_direction_outside_the_fields_is_refused(direction):
    # an index outside 0..d-1 names no site variable: unchecked, the scan
    # would find no degree and the certificate would not be about a shift
    with pytest.raises(ValueError, match=rf"direction {direction} is not a field index in 0..1"):
        shift_certificate(closed_tensor("toda", 5), direction)


def test_a_direction_naming_no_field_is_refused():
    with pytest.raises(ValueError, match=r"direction 'zz' is not one of the fields \('mu', 'rho'\)"):
        shift_certificate(closed_tensor("toda", 5), "zz")


def test_gf_check_named_tensors():
    N = 5
    rng = Random(3)
    for name, direction in (("toda", "mu"), ("P1", "a"), ("P2", "b")):
        P = closed_tensor(name, N)
        pts = [random_fields(P.field_names, N, rng) for _ in range(2)]
        assert reference_gf_check(P, direction, pts) == 0
        assert shift_certificate(P, direction) == 0


@pytest.mark.parametrize("broken", ["toda", "P1", "P2"])
def test_pencil_deformations_negative_controls(monkeypatch, broken):
    assert all(d.passed for d in acceptance.check_pencil_deformations(0))
    real_closed_tensor = acceptance.closed_tensor

    def dropped(name, N):
        T = as_poly_tensor(real_closed_tensor(name, N))
        if name == broken:
            del T.entries[min(T.entries)]
        return T

    monkeypatch.setattr(acceptance, "closed_tensor", dropped)
    docs = acceptance.check_pencil_deformations(0)
    assert {d.params["tensor"]: d.passed for d in docs} == {n: n != broken for n in ("toda", "P1", "P2")}


def test_pencil_deformations_diagonal_and_quadratic_controls(monkeypatch, capsys):
    # toda with {mu_0, mu_0} = 1 fails on antisymmetry (residual 2); toda
    # made quadratic in mu (mu_0 mu_1 in {mu_0, rho_0}, antisymmetrically)
    # gives a FAIL row with residual 1, and suite exits 1, not 2
    real_closed_tensor = acceptance.closed_tensor
    mu0_mu1 = Poly({((_var(0, 0, 5), 1), (_var(0, 1, 5), 1)): 1})
    for (i, m, j, n), poly, residual in (((0, 0, 0, 0), Poly.const(1), "2"), ((0, 0, 1, 0), mu0_mu1, "1")):

        def broken(name, N):
            T = as_poly_tensor(real_closed_tensor(name, N))
            if name == "toda":
                T.add_term(i, m, j, n, poly)
                if (i, m) != (j, n):
                    T.add_term(j, n, i, m, -poly)
            return T

        monkeypatch.setattr(acceptance, "closed_tensor", broken)
        doc, *rest = acceptance.check_pencil_deformations(0)
        assert (doc.params["tensor"], doc.residual, doc.passed) == ("toda", residual, False)
        assert all(d.passed for d in rest)
    monkeypatch.setattr(acceptance, "CHECKS", [("12_pencil_deformations", acceptance.check_pencil_deformations)])
    assert cli.run_command(["suite", "--format", "json"]) == 1
    doc, *_ = json.loads(capsys.readouterr().out)
    assert (doc["check"], doc["residual"], doc["passed"]) == ("12_pencil_deformations:pencil_deformation", "1", False)


def test_deformed_tensor_is_poisson():
    N = 5
    toda = closed_tensor("toda", N)
    LP = reference_lie_deform(toda, "mu")
    pt = random_fields(("mu", "rho"), N, Random(10))
    assert jacobiator(LP, pt) == 0


def test_integrate_trivial_cases():
    start = {"x": [1.0, 2.0]}
    traj, rep = integrate(lambda s: {"x": [0.0, 0.0]}, start, 0.1, 5)
    assert all(state["x"] == [1.0, 2.0] for _, state in traj)
    traj, rep = integrate(lambda s: {"x": [1.0, 1.0]}, start, 0.1, 0)
    assert len(traj) == 1 and rep["steps"] == 0


def test_integrate_detects_blowup():
    # x' = x^2 with a huge step overflows quickly and must be reported
    vf = lambda s: {"x": [v * v for v in s["x"]]}
    with pytest.raises(ValueError, match="degenerate state"):
        integrate(vf, {"x": [10.0]}, 10.0, 500)


def reference_toda_invariants(N, state):
    """(trace, det) of the product of L_m = [[0, -rho_m], [1, mu_m]] by dense sum() products."""
    T = None
    for m in range(N):
        L = [[0.0, -state["rho"][m]], [1.0, state["mu"][m]]]
        T = L if T is None else [[sum(T[i][p] * L[p][j] for p in range(2)) for j in range(2)] for i in range(2)]
    return [T[0][0] + T[1][1], T[0][0] * T[1][1] - T[0][1] * T[1][0]]


def test_toda_invariants_equal_the_dense_product_bit_for_bit():
    # signed zeros, infinities (inf * 0 is nan), huge and tiny values and ints:
    # every result has the reference's type and bits, or both are nan
    rng = Random(41)
    pool = [0.0, -0.0, 1.0, -1.0, float("inf"), -float("inf"), 1e308, -1e308, 5e-324, 2.5, 3, 0]
    for _ in range(3000):
        N = rng.randint(1, 5)
        draw = lambda: rng.choice(pool) if rng.random() < 0.6 else rng.uniform(-3, 3)
        state = {k: [draw() for _ in range(N)] for k in ("rho", "mu")}
        for got, want in zip(toda_invariants(N)(state), reference_toda_invariants(N, state)):
            assert type(got) is type(want)
            assert struct.pack("<d", got) == struct.pack("<d", want) or (math.isnan(got) and math.isnan(want)), state


def test_integrator_drift_and_order():
    N = 3
    start = {"mu": [1.2, -0.9, 0.4], "rho": [1.0, 2.5, 0.6]}
    vf = toda_float_vf(N)
    inv = toda_invariants(N)
    _, fine = integrate(vf, start, 1e-3, 1000, invariants=inv)
    _, coarse = integrate(vf, start, 1e-2, 100, invariants=inv)
    drift_fine = max(fine["max_relative_drift"])
    drift_coarse = max(coarse["max_relative_drift"])
    assert drift_fine < 1e-8
    ratio = drift_coarse / drift_fine
    assert 1e4 / 4 <= ratio <= 1e4 * 4
