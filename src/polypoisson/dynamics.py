"""Hamiltonian flows and transfer-matrix invariants.

Field observables are polynomials (``multipoly.Poly``) in the field-site
variables ``_var(i, m, N)`` of a tensor: Hamiltonians, site sums, and the
trace and determinant of the monodromy of the recursion.  Exact checks
(flows and the symbolic commuting-integrals certificate) run over the
rationals; the only floating-point surface in the package is the
fixed-step integrator at the bottom, which exists for exploratory
trajectories and drift reporting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import linalg
from .coord_reduction import (
    _int_point,
    _int_poly,
    _int_scale,
    _var,
    alias_index,
    as_poly_tensor,
    closed_tensor,
    coords,
    field_gradients,
)
from .exchange_algebra import Polygon, _DualCtx
from .lattice_ops import PerSeq, require_period
from .linalg import ONE, ZERO
from .multipoly import Poly


# ---------------------------------------------------------------------------
# observables over field coordinates
# ---------------------------------------------------------------------------


def sum_field(field_names, N: int, which: str) -> Poly:
    """The site sum of one field."""
    idx = tuple(field_names).index(which)
    return Poly({((_var(idx, m, N), 1),): ONE for m in range(N)})


def field_polys(field_names, N: int) -> list:
    """a^(r)_m as Polys: the site-m variable of the field a{r} or its alias."""
    nu = len(field_names)
    a = [None] * nu
    for i, name in enumerate(field_names):
        a[alias_index(nu, name)] = [Poly.var(_var(i, m, N)) for m in range(N)]
    return a


def _vars(H: Poly, TP) -> set:
    """The variables of H, which must be field-site variables of the tensor."""
    vs = {v for mono in H.terms for v, _ in mono}
    if any(v >= TP.n_vars() for v in vs):
        raise ValueError("observable and tensor live on different field spaces")
    return vs


# ---------------------------------------------------------------------------
# transfer matrix
# ---------------------------------------------------------------------------


@dataclass
class TransferMatrix:
    """Per-site companion matrices of the order-nu recursion and their product.

    ``of(a, N)`` takes the entries a^(r)_m as Fractions (from ``coords``) or as
    Polys (``field_polys``), so the monodromy is a matrix of either.
    """

    nu: int
    N: int
    companions: list
    monodromy: list

    @classmethod
    def of(cls, a, N: int) -> "TransferMatrix":
        nu = len(a)
        comps = []
        for m in range(N):
            L = linalg.zeros(nu, nu)
            for i in range(nu - 1):
                L[i + 1][i] = ONE
            for r in range(nu):
                L[r][nu - 1] = (-1) ** (nu - r + 1) * a[r][m]
            comps.append(L)
        T = comps[0]
        for L in comps[1:]:
            T = linalg.mat_mul(T, L)
        return cls(nu, N, comps, T)


def char_poly(T) -> list:
    """Characteristic polynomial coefficients [1, c_{n-1}, ..., c_0] of T."""
    n = len(T)
    coeffs = [ONE]
    Mk, eye = None, linalg.identity(n)
    for k in range(1, n + 1):
        Mk = T if Mk is None else linalg.mat_mul(T, linalg.mat_add(Mk, linalg.mat_scale(eye, coeffs[-1])))
        ck = -sum(Mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
    return coeffs


def transfer_invariants(a) -> list:
    """Characteristic-polynomial coefficients of the monodromy of the recursion
    whose coefficients are the periodic sequences a = (a^(0), ..., a^(nu-1)),
    each of a^(0)'s period (else ValueError)."""
    for k, seq in enumerate(a):
        require_period(f"a^({k})", seq, a[0].N)
    return char_poly(TransferMatrix.of(a, a[0].N).monodromy)


def trace_transfer(field_names, N: int) -> Poly:
    """tr T of the monodromy, a polynomial in the fields."""
    T = TransferMatrix.of(field_polys(field_names, N), N).monodromy
    return sum(T[i][i] for i in range(len(T)))


def det_transfer(field_names, N: int) -> Poly:
    """det T, the product of the companions' determinants a^(0)_m."""
    return prod(field_polys(field_names, N)[0])


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


def ham_vf(P, H: Poly, point) -> dict:
    """Velocities P . dH at the point, exact, per field: the int rows of either
    form (``int_matrix``) meet the int gradient of H, one Fraction per velocity."""
    _vars(H, P)
    L, rows = P.int_matrix(point)
    X, pw, _, Lg = _int_point(_int_scale([H]), P.point_values(point))
    grad = _int_poly(H, X, pw)[1].items()
    vel = [Fraction(sum(row[K] * d for K, d in grad), L * Lg) for row in rows]
    return {name: PerSeq(P.N, tuple(vel[i * P.N : (i + 1) * P.N])) for i, name in enumerate(P.field_names)}


def lifted_vf(W: Polygon):
    """The vertex-space lift of the quadratic Toda flow (order 2 only).

    dV_m/dt = (w_m / w_{m-1}) V_{m-1} = a^(0)_{m-1} V_{m-1}, with the
    monodromy frozen.  At m = 0 the recursion V_{m+2} = a^(1)_m V_{m+1} -
    a^(0)_m V_m at m = -1 gives a^(0)_{N-1} V_{-1} = a^(1)_{N-1} V_0 - V_1,
    so the fields of ``coords`` give every velocity with no M^-1.  Like
    coords, a vanishing Wronskian raises DegeneratePolygon and N < 2 a
    ValueError.  Pushing forward through coords reproduces ham_vf(toda,
    sum mu) exactly.
    """
    return _lifted_vdot(_DualCtx(W)), ((ZERO, ZERO), (ZERO, ZERO))


def _lifted_vdot(ctx: _DualCtx) -> tuple:
    """The vertex velocities of ``lifted_vf``, from the fields of ctx's polygon."""
    W = ctx.W
    if W.nu != 2:
        raise ValueError("the lifted flow is defined for nu = 2")
    point, V, N = coords(W, ctx), W.V, W.N
    a0, a1 = point["a0"], point["a1"]
    vdot = [tuple(a1[N - 1] * x - y for x, y in zip(V[0], V[1]))]
    vdot += [tuple(a0[m - 1] * x for x in V[m - 1]) for m in range(1, N)]
    return tuple(vdot)


def lifted_flow_residual(W: Polygon) -> Fraction:
    """Exact mismatch between the pushforward of lifted_vf and the Toda flow, both read from one ``_DualCtx``."""
    N, names, ctx = W.N, ("mu", "rho"), _DualCtx(W)
    vdot = _lifted_vdot(ctx)
    flat = {W.var_v(m, a): x for m in range(N) for a, x in enumerate(vdot[m])}
    vel = ham_vf(closed_tensor("toda", N), sum_field(names, N, "mu"), coords(W, ctx))
    res = ZERO
    for I, (grad, den) in enumerate(field_gradients(W, names, ctx)):
        i, m = divmod(I, N)
        push = sum(c * flat.get(v, ZERO) for v, c in grad.items()) / den
        res = max(res, abs(push - vel[names[i]][m]))
    return res


def commute_check(P, I1: Poly, I2: Poly) -> Fraction:
    """Max-abs coefficient of {I1, I2} = sum_{I,K} d_I I1 P_IK d_K I2, expanded
    as a polynomial in the fields: zero certifies that I1 and I2 commute."""
    TP = as_poly_tensor(P)
    N = TP.N
    d1 = {v: I1.diff(v) for v in _vars(I1, TP)}
    d2 = {v: I2.diff(v) for v in _vars(I2, TP)}
    acc = defaultdict(int)
    for (i, m, j, n), poly in TP.entries.items():
        I, K = _var(i, m, N), _var(j, n, N)
        if I in d1 and K in d2:
            for mono, c in (d1[I] * poly * d2[K]).terms.items():
                acc[mono] += c
    return max(map(abs, acc.values()), default=ZERO)


# ---------------------------------------------------------------------------
# floating-point integration (the only inexact corner)
# ---------------------------------------------------------------------------


def integrate(vf, start: dict, dt: float, steps: int, invariants=None):
    """Fixed-step fourth-order integration in floating point.

    ``vf`` maps a state dict (field name -> list of floats) to velocities of
    the same shape.  Returns (trajectory, report): the trajectory is a list of
    (t, state) pairs and the report carries the max relative drift of each
    tracked invariant along the trajectory.
    """

    def axpy(state, k, h):
        return {
            name: [x + h * v for x, v in zip(state[name], k[name])] for name in state
        }

    state = {name: list(vals) for name, vals in start.items()}
    traj = [(0.0, {name: list(v) for name, v in state.items()})]
    inv0 = invariants(state) if invariants else None
    drift = [0.0] * len(inv0) if inv0 else []
    for step in range(steps):
        k1 = vf(state)
        k2 = vf(axpy(state, k1, dt / 2))
        k3 = vf(axpy(state, k2, dt / 2))
        k4 = vf(axpy(state, k3, dt))
        state = {
            name: [
                x + dt / 6 * (a + 2 * b + 2 * c + d)
                for x, a, b, c, d in zip(state[name], k1[name], k2[name], k3[name], k4[name])
            ]
            for name in state
        }
        for vals in state.values():
            for x in vals:
                if x != x or abs(x) > 1e100:
                    raise ValueError(f"degenerate state encountered at step {step + 1}")
        traj.append(((step + 1) * dt, {name: list(v) for name, v in state.items()}))
        if inv0:
            cur = invariants(state)
            for i, (i0, ic) in enumerate(zip(inv0, cur)):
                scale = max(abs(i0), 1e-30)
                drift[i] = max(drift[i], abs(ic - i0) / scale)
    report = {"steps": steps, "dt": dt, "max_relative_drift": drift}
    return traj, report


def trajectory_csv(traj) -> str:
    """Serialize a trajectory as CSV with header t,field,site,value."""
    lines = ["t,field,site,value"]
    for t, state in traj:
        for name in sorted(state):
            for site, value in enumerate(state[name]):
                lines.append(f"{t!r},{name},{site},{value!r}")
    return "\n".join(lines) + "\n"


def toda_float_vf(N: int):
    """The quadratic Toda flow of the site-sum of mu, in floats."""

    def vf(state: dict) -> dict:
        mu, rho = state["mu"], state["rho"]
        mudot = [rho[(m + 1) % N] - rho[m] for m in range(N)]
        rhodot = [rho[m] * (mu[m] - mu[(m - 1) % N]) for m in range(N)]
        return {"mu": mudot, "rho": rhodot}

    return vf


def toda_invariants(N: int):
    def inv(state: dict):
        a, b, c, d = 0.0, -state["rho"][0], 1.0, state["mu"][0]
        for m in range(1, N):
            # T L_m for L_m = [[0, -rho_m], [1, mu_m]], each entry summed from 0 (signed zeros, inf * 0)
            r, u = -state["rho"][m], state["mu"][m]
            a, b, c, d = 0 + a * 0.0 + b * 1.0, 0 + a * r + b * u, 0 + c * 0.0 + d * 1.0, 0 + c * r + d * u
        return [a + d, a * d - b * c]

    return inv
