"""Hamiltonian flows, transfer-matrix invariants and pencil deformations.

Exact checks (flows, commuting integrals, Lie-derivative deformations) run
over the rationals; the only floating-point surface in the package is the
fixed-step integrator at the bottom, which exists for exploratory
trajectories and drift reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import linalg
from .coord_reduction import (
    Fields,
    PolyTensor,
    _var,
    as_poly_tensor,
    closed_tensor,
    compatibility,
    coords,
    jacobiator,
    random_fields,
)
from .exchange_algebra import Polygon, _DualCtx
from .lattice_ops import PerSeq
from .linalg import ONE, ZERO, pairings
from .multipoly import Dual, Poly


class LinearityViolated(ValueError):
    """Raised when a tensor has quadratic dependence on the shift direction."""


# ---------------------------------------------------------------------------
# observables over field coordinates
# ---------------------------------------------------------------------------


@dataclass
class Observable:
    """A differentiable function of field coordinates with exact gradient.

    ``fn`` receives field-major dual variables (duals[i][m] for field i,
    site m) and returns a Dual; gradients are exact by construction and can
    be cross-checked against divided differences with validate_gradient.
    """

    name: str
    fields: tuple
    N: int
    fn: object

    def _duals(self, point):
        if isinstance(point, Fields):
            point = point.point()
        return [
            [Dual.var(point[f][m], _var(i, m, self.N)) for m in range(self.N)]
            for i, f in enumerate(self.fields)
        ]

    def value(self, point) -> Fraction:
        return self.eval_dual(point).val

    def eval_dual(self, point) -> Dual:
        return self.fn(self._duals(point))

    def gradient(self, point) -> dict:
        return self.eval_dual(point).grad

    def validate_gradient(self, point, rng: Random, directions: int = 3, degree: int = 4) -> Fraction:
        """Max difference between the dual gradient and a divided-difference
        derivative along random coordinate directions (exact for polynomial
        sections of degree <= ``degree``)."""
        if isinstance(point, Fields):
            point = point.point()
        dual = self.eval_dual(point)
        res = ZERO
        nvar = len(self.fields) * self.N
        for _ in range(directions):
            v = rng.randrange(nvar)
            i, m = divmod(v, self.N)
            fname = self.fields[i]
            samples = []
            for t in range(degree + 1):
                shifted = dict(point)
                vals = list(point[fname].values)
                vals[m] = vals[m] + t
                shifted[fname] = PerSeq(self.N, tuple(vals))
                samples.append(self.value(shifted))
            deriv = _lagrange_derivative_at_zero(samples)
            res = max(res, abs(deriv - dual.grad.get(v, ZERO)))
        return res


def _lagrange_derivative_at_zero(samples) -> Fraction:
    """p'(0) for the polynomial interpolating samples at t = 0, 1, ..., d."""
    d = len(samples) - 1
    acc = ZERO
    for t in range(d + 1):
        acc += samples[t] * _lagrange_basis_derivative(t, d)
    return acc


def _lagrange_basis_derivative(t: int, d: int) -> Fraction:
    denom = ONE
    for u in range(d + 1):
        if u != t:
            denom *= Fraction(t - u)
    total = ZERO
    for s in range(d + 1):
        if s == t:
            continue
        prod = ONE
        for u in range(d + 1):
            if u in (t, s):
                continue
            prod *= Fraction(-u)
        total += prod
    return total / denom


def sum_field(field_names, N: int, which: str) -> Observable:
    idx = tuple(field_names).index(which)

    def fn(duals):
        acc = Dual.const(0)
        for m in range(N):
            acc = acc + duals[idx][m]
        return acc

    return Observable(f"sum_{which}", tuple(field_names), N, fn)


# ---------------------------------------------------------------------------
# transfer matrix
# ---------------------------------------------------------------------------


@dataclass
class TransferMatrix:
    """Per-site companion matrices of the order-nu recursion and their product."""

    nu: int
    N: int
    companions: list
    monodromy: list

    @classmethod
    def from_fields(cls, fields: Fields) -> "TransferMatrix":
        nu, N = fields.nu, fields.N
        comps = []
        for m in range(N):
            L = linalg.zeros(nu, nu)
            for i in range(nu - 1):
                L[i + 1][i] = ONE
            for r in range(nu):
                L[r][nu - 1] = (-1) ** (nu - r + 1) * fields.a[r][m]
            comps.append(L)
        T = comps[0]
        for L in comps[1:]:
            T = linalg.mat_mul(T, L)
        return cls(nu, N, comps, T)


def char_poly(T) -> list:
    """Characteristic polynomial coefficients [1, c_{n-1}, ..., c_0] of T."""
    n = len(T)
    coeffs = [ONE]
    Mk = None
    for k in range(1, n + 1):
        Mk = T if Mk is None else linalg.mat_mul(T, linalg.mat_add(Mk, _scal_eye(n, coeffs[-1])))
        ck = -sum(Mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
    return coeffs


def _scal_eye(n: int, c):
    return [[c if i == j else ZERO for j in range(n)] for i in range(n)]


def transfer_invariants(fields: Fields) -> list:
    """Characteristic-polynomial coefficients of the monodromy of the recursion."""
    return char_poly(TransferMatrix.from_fields(fields).monodromy)


def trace_transfer(field_names, N: int, nu: int) -> Observable:
    """tr(T) as an exact observable; for nu = 2 the fields are (mu, rho)."""
    names = tuple(field_names)
    if nu == 2:
        mu_i, rho_i = names.index("mu"), names.index("rho")

        def fn(duals):
            T = None
            for m in range(N):
                L = [
                    [Dual.const(0), -duals[rho_i][m]],
                    [Dual.const(1), duals[mu_i][m]],
                ]
                T = L if T is None else linalg.mat_mul(T, L)
            return T[0][0] + T[1][1]

        return Observable("tr_T", names, N, fn)
    raise NotImplementedError("trace observable is built for nu = 2")


def det_transfer(field_names, N: int, nu: int = 2) -> Observable:
    names = tuple(field_names)
    rho_i = names.index("rho")

    def fn(duals):
        acc = Dual.const(1)
        for m in range(N):
            acc = acc * duals[rho_i][m]
        return acc

    return Observable("det_T", names, N, fn)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


def ham_vf(P, H: Observable, point) -> dict:
    """Velocities P . dH at the point, exact, one sequence per field."""
    TP = as_poly_tensor(P)
    if tuple(H.fields) != TP.field_names or H.N != TP.N:
        raise ValueError("observable and tensor live on different field spaces")
    mat = TP.eval_matrix(point)
    grad = H.gradient(point)
    D = TP.n_vars()
    vel = [ZERO] * D
    for j, cj in grad.items():
        for i in range(D):
            if mat[i][j]:
                vel[i] += mat[i][j] * cj
    N = TP.N
    return {
        name: PerSeq(N, tuple(vel[_var(i, m, N)] for m in range(N)))
        for i, name in enumerate(TP.field_names)
    }


def lifted_vf(W: Polygon):
    """The vertex-space lift of the quadratic Toda flow (order 2 only).

    dV_m/dt = (w_m / w_{m-1}) V_{m-1}, with the monodromy frozen.  Pushing
    forward through coords reproduces ham_vf(toda, sum mu) exactly.
    """
    if W.nu != 2:
        raise ValueError("the lifted flow is defined for nu = 2")
    W.require_nondegenerate()
    N = W.N
    vdot = []
    for m in range(N):
        ratio = W.wronskian_at(m) / W.wronskian_at(m - 1)
        prev = W.vertex(m - 1)
        vdot.append(tuple(ratio * x for x in prev))
    mdot = tuple(tuple(ZERO for _ in range(W.nu)) for _ in range(W.nu))
    return tuple(vdot), mdot


def lifted_flow_residual(W: Polygon) -> Fraction:
    """Exact mismatch between the pushforward of lifted_vf and the Toda flow."""
    N = W.N
    vdot, _ = lifted_vf(W)
    flat = [ZERO] * W.n_vars()
    for m in range(N):
        for a in range(W.nu):
            flat[W.var_v(m, a)] = vdot[m][a]
    ctx = _DualCtx(W)
    fields = coords(W)
    toda = closed_tensor("toda", N)
    vel = ham_vf(toda, sum_field(("mu", "rho"), N, "mu"), fields)
    res = ZERO
    for alias, k in (("mu", 1), ("rho", 0)):
        for m in range(N):
            obs = ctx.field(k, m)
            push = sum(c * flat[v] for v, c in obs.grad.items())
            res = max(res, abs(push - vel[alias][m]))
    return res


def commute_check(P, I1: Observable, I2: Observable, point) -> Fraction:
    """{I1, I2} under the tensor at the point, exact."""
    mat = as_poly_tensor(P).eval_matrix(point)
    return pairings([I1.gradient(point)], mat, [I2.gradient(point)])[0][0]


# ---------------------------------------------------------------------------
# Lie-derivative deformation (constant shift of one field family)
# ---------------------------------------------------------------------------


def lie_deform(P, direction) -> PolyTensor:
    """Lie derivative of the tensor along the unit shift of one field family.

    The entries are differentiated in every site variable of the family; this
    is only a Poisson-pencil move when the tensor is at most linear in the
    family, so quadratic dependence raises LinearityViolated.
    """
    TP = as_poly_tensor(P)
    fidx = direction if isinstance(direction, int) else TP.field_names.index(direction)
    N = TP.N
    fam = [_var(fidx, m, N) for m in range(N)]
    fam_set = set(fam)
    for poly in TP.entries.values():
        if poly.degree_in(fam_set) >= 2:
            raise LinearityViolated(
                f"tensor is quadratic in field {TP.field_names[fidx]!r}"
            )
    out = PolyTensor(TP.field_names, N, TP.bracket_scale)
    for (i, m, j, n), poly in TP.entries.items():
        acc = Poly()
        for v in fam:
            acc = acc + poly.diff(v)
        out.add_term(i, m, j, n, acc)
    return out


def gf_check(P, direction, seed: int = 0, points: int = 3):
    """Residuals of the three pencil identities for the shift deformation.

    Returns (square of the Lie derivative, Jacobiator of the deformation,
    compatibility of the pair), all exact; (0, 0, 0) certifies that the
    deformed tensor is Poisson and compatible with the original.
    """
    TP = as_poly_tensor(P)
    LP = lie_deform(TP, direction)
    fidx = direction if isinstance(direction, int) else TP.field_names.index(direction)
    N = TP.N
    fam = [_var(fidx, m, N) for m in range(N)]
    second = ZERO
    for poly in LP.entries.values():
        for v in fam:
            dd = poly.diff(v)
            for c in dd.terms.values():
                second = max(second, abs(c))
    rng = Random(seed)
    pts = [random_fields(TP.field_names, N, rng) for _ in range(points)]
    jac = max((jacobiator(LP, pt) for pt in pts), default=ZERO)
    compat = compatibility(TP, LP, pts)
    return second, jac, compat


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
        T = None
        for m in range(N):
            L = [[0.0, -state["rho"][m]], [1.0, state["mu"][m]]]
            T = L if T is None else [
                [sum(T[i][p] * L[p][j] for p in range(2)) for j in range(2)]
                for i in range(2)
            ]
        return [T[0][0] + T[1][1], T[0][0] * T[1][1] - T[0][1] * T[1][0]]

    return inv
