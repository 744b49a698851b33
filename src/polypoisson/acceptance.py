"""The acceptance checks: every structural identity at its acceptance size.

Each check returns one ReportDoc per parameter configuration with an exact
residual; a check passes iff every residual is exactly zero (the float
integrator check is the single exception and carries explicit tolerances).
The CLI 'suite' verb and the acceptance test module both run these.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import coord_reduction
from .coord_reduction import (
    as_poly_tensor,
    closed_tensor,
    oracle_match,
    pencil_certificate,
    random_fields,
    shift_certificate,
)
from .dynamics import (
    commute_check,
    det_transfer,
    integrate,
    lifted_flow_residual,
    sum_field,
    toda_float_vf,
    toda_invariants,
    trace_transfer,
)
from .exchange_algebra import (
    BracketSpec,
    default_rc,
    _projective_residual,
    random_polygon,
    verify_structure,
    verify_ybe,
)
from .gen_nu import casimir_residual, quad_coeff, _numeric_casimir_residual
from .lattice_ops import (
    OddKernel,
    PerSeq,
    phi_special,
    random_odd_kernel,
    shift_kernel,
)
from .linalg import ZERO, rat_str


@dataclass
class ReportDoc:
    """One check outcome: exact residual, pass flag, parameters, provenance."""

    check: str
    params: dict
    residual: str
    passed: bool
    seed: int
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "residual": self.residual,
            "passed": self.passed,
            "seed": self.seed,
        }


def _doc(check, params, residual, seed, t0, ok=None) -> ReportDoc:
    if isinstance(residual, Fraction) or isinstance(residual, int):
        passed = residual == 0 if ok is None else ok
        residual = rat_str(Fraction(residual))
    else:
        passed = bool(ok)
        residual = str(residual)
    return ReportDoc(check, params, residual, passed, seed, time.time() - t0)


# the sample counts of the sampled checks, which every report row records
_JACOBI_TRIALS = 20
_STRUCTURE_POLYGONS = 5
_CLOSED_FORM_POLYGONS = 10
_PROJECTIVE_SAMPLES = 10
_CASIMIR_POLYGONS = 5
_FIELD_POINTS = 10
_FLOW_POLYGONS = 5
# the N = 3 Toda state the float integrator starts from, here and in the flow verb
_TODA_START = {"mu": (1.2, -0.9, 0.4), "rho": (1.0, 2.5, 0.6)}


def _zero_phi(N: int) -> OddKernel:
    return OddKernel(PerSeq.constant(N, 0))


def check_ybe(seed: int = 0) -> list:
    docs = []
    for nu in (2, 3, 4):
        t0 = time.time()
        R, C = default_rc(nu)
        docs.append(_doc("ybe", {"nu": nu}, verify_ybe(R, C), seed, t0))
    return docs


def check_jacobi(seed: int = 0) -> list:
    docs = []
    rng = Random(seed)
    for nu in (2, 3):
        for N in (5, 7):
            phis = {
                "zero": _zero_phi(N),
                "phi0": phi_special(nu, 0, N),
                "phi_top": phi_special(nu, nu - 1, N),
                "random_odd": random_odd_kernel(N, rng),
            }
            for label, phi in phis.items():
                t0 = time.time()
                W = random_polygon(nu, N, rng)
                spec = BracketSpec.standard(nu, N, phi)
                res = verify_structure(spec, W, "jacobi", trials=_JACOBI_TRIALS, seed=rng.randrange(10**6))
                docs.append(
                    _doc("jacobi", {"nu": nu, "N": N, "phi": label, "trials": _JACOBI_TRIALS}, res, seed, t0)
                )
    return docs


def _structure_sweep(check: str, seed: int) -> list:
    docs = []
    rng = Random(seed)
    for nu in (2, 3):
        for N in (5, 7):
            t0 = time.time()
            res = ZERO
            for _ in range(_STRUCTURE_POLYGONS):
                W = random_polygon(nu, N, rng)
                phi = random_odd_kernel(N, rng)
                spec = BracketSpec.standard(nu, N, phi)
                res = max(res, verify_structure(spec, W, check))
            docs.append(
                _doc(check, {"nu": nu, "N": N, "polygons": _STRUCTURE_POLYGONS}, res, seed, t0)
            )
    return docs


def check_momentum(seed: int = 0) -> list:
    return _structure_sweep("momentum", seed)


def check_quasiperiodicity(seed: int = 0) -> list:
    return _structure_sweep("quasiperiodicity", seed)


def check_closed_forms(seed: int = 0) -> list:
    docs = []
    rng = Random(seed)
    for nu, name in ((2, "murho"), (3, "abrho")):
        t0 = time.time()
        res = ZERO
        for _ in range(_CLOSED_FORM_POLYGONS):
            N = 5
            W = random_polygon(nu, N, rng)
            phi = random_odd_kernel(N, rng)
            spec = BracketSpec.standard(nu, N, phi)
            res = max(res, oracle_match(spec, W, name))
        docs.append(
            _doc("closed_form_oracle", {"nu": nu, "tensor": name, "polygons": _CLOSED_FORM_POLYGONS}, res, seed, t0)
        )
    return docs


def check_projective(seed: int = 0) -> list:
    docs = []
    rng = Random(seed)
    for nu in (2, 3):
        t0 = time.time()
        N = 5
        R, _ = default_rc(nu)
        res = ZERO
        for _ in range(_PROJECTIVE_SAMPLES // 2):
            W = random_polygon(nu, N, rng)
            while any(W.V[m][nu - 1] == 0 for m in range(N)):
                W = random_polygon(nu, N, rng)
            specs = [BracketSpec.standard(nu, N, random_odd_kernel(N, rng)) for _ in range(2)]
            res = max(res, _projective_residual(R, specs, W))
        params = {"nu": nu, "N": N, "samples": _PROJECTIVE_SAMPLES}
        docs.append(_doc("projective_phi_independence", params, res, seed, t0))
    return docs


def check_casimir_choice(seed: int = 0) -> list:
    docs = []
    for nu in (2, 3, 4):
        t0 = time.time()
        N = 7
        phi0 = phi_special(nu, 0, N)
        res = casimir_residual(nu, phi0, N)
        res = max(res, _numeric_casimir_residual(nu, N, phi0, _CASIMIR_POLYGONS, seed))
        docs.append(_doc("casimir_choice", {"nu": nu, "N": N, "polygons": _CASIMIR_POLYGONS}, res, seed, t0))
    return docs


def check_linearity_choice(seed: int = 0) -> list:
    docs = []
    for nu in (2, 3, 4, 5):
        for N in (7, 9, 11):
            t0 = time.time()
            res = ZERO
            for k in range(1, nu):
                res = max(res, quad_coeff(nu, k, phi_special(nu, k, N), N).seq.max_abs())
            docs.append(_doc("linearity_choice", {"nu": nu, "N": N}, res, seed, t0))
    return docs


def check_toda_to_ftv(seed: int = 0) -> list:
    docs = []
    rng = Random(seed)
    for N in (5, 7):
        toda = coord_reduction.closed_tensor("toda", N)
        for blabel in ("one", "random"):
            t0 = time.time()
            if blabel == "one":
                beta = PerSeq.constant(N, 1)
            else:
                beta = random_fields(("b",), N, rng)["b"]
            ftv_u = coord_reduction.closed_tensor("ftv_u", N, beta=beta)
            res = ZERO
            for _ in range(_FIELD_POINTS):
                u = random_fields(("u",), N, rng)["u"]
                res = max(res, coord_reduction._toda_ftv_residual(toda, ftv_u, u, beta))
            docs.append(_doc("toda_to_ftv", {"N": N, "beta": blabel, "points": _FIELD_POINTS}, res, seed, t0))
    return docs


def check_pushforward(seed: int = 0) -> list:
    docs = []
    rng = Random(seed)
    for N in (5, 7):
        t0 = time.time()
        tensors = coord_reduction.closed_tensor("ftv_u", N), coord_reduction.closed_tensor("ftv_S", N)
        res = ZERO
        for _ in range(_FIELD_POINTS):
            u = random_fields(("u",), N, rng)["u"]
            res = max(res, coord_reduction._pushforward_residual(*tensors, u))
        docs.append(_doc("pushforward", {"N": N, "points": _FIELD_POINTS}, res, seed, t0))
    t0 = time.time()
    # ftv_S at S = 1 is the circulant D + D^2 - D^-1 - D^-2: rows / L against k / dk
    L, rows = closed_tensor("ftv_S", 5).int_matrix({"S": PerSeq.constant(5, 1)})
    k, dk, _ = shift_kernel({1: 1, 2: 1, -1: -1, -2: -1}, 5).ints
    gap = max(abs(x * dk - k[(m - n) % 5] * L) for m, row in enumerate(rows) for n, x in enumerate(row))
    res = max(Fraction(gap, L * dk), coord_reduction.pushforward_check(PerSeq.constant(5, 1)))
    docs.append(_doc("pushforward", {"N": 5, "case": "u=1 closed form"}, res, seed, t0))
    return docs


def check_extended_toda_compat(seed: int = 0, N: int = 5) -> list:
    t0 = time.time()
    res = pencil_certificate(closed_tensor("P1", N), closed_tensor("P2", N))
    return [_doc("extended_toda_compat", {"N": N, "certificate": "symbolic"}, res, seed, t0)]


def check_pencil_deformations(seed: int = 0) -> list:
    docs = []
    N = 5
    for name, direction in (("toda", "mu"), ("P1", "a"), ("P2", "b")):
        t0 = time.time()
        res = shift_certificate(closed_tensor(name, N), direction)
        params = {"tensor": name, "direction": direction, "N": N, "certificate": "symbolic"}
        docs.append(_doc("pencil_deformation", params, res, seed, t0))
    return docs


def check_flow_consistency(seed: int = 0) -> list:
    docs = []
    rng = Random(seed)
    for N in (5, 7):
        t0 = time.time()
        res = ZERO
        for _ in range(_FLOW_POLYGONS):
            W = random_polygon(2, N, rng)
            res = max(res, lifted_flow_residual(W))
        docs.append(_doc("lifted_flow", {"N": N, "polygons": _FLOW_POLYGONS}, res, seed, t0))
    t0 = time.time()
    N = 5
    names = ("mu", "rho")
    toda = as_poly_tensor(closed_tensor("toda", N))
    Smu = sum_field(names, N, "mu")
    res = max(commute_check(toda, Smu, I) for I in (trace_transfer(names, N), det_transfer(names, N)))
    docs.append(_doc("commuting_integrals", {"N": N, "certificate": "symbolic"}, res, seed, t0))
    return docs


def check_integrator_drift(seed: int = 0) -> list:
    t0 = time.time()
    N = len(_TODA_START["mu"])
    vf = toda_float_vf(N)
    inv = toda_invariants(N)
    _, rep_fine = integrate(vf, _TODA_START, 1e-3, 1000, invariants=inv)
    _, rep_coarse = integrate(vf, _TODA_START, 1e-2, 100, invariants=inv)
    drift_fine = max(rep_fine["max_relative_drift"])
    drift_coarse = max(rep_coarse["max_relative_drift"])
    ratio = drift_coarse / drift_fine if drift_fine else float("inf")
    ok = drift_fine < 1e-8 and 1e4 / 4 <= ratio <= 1e4 * 4
    return [
        _doc(
            "integrator_drift",
            {
                "N": N,
                "dt_fine": 1e-3,
                "dt_coarse": 1e-2,
                "drift_fine": f"{drift_fine:.3e}",
                "drift_coarse": f"{drift_coarse:.3e}",
                "ratio": f"{ratio:.1f}",
            },
            f"{drift_fine:.3e}",
            seed,
            t0,
            ok=ok,
        )
    ]


CHECKS = [
    ("01_ybe", check_ybe),
    ("02_jacobi", check_jacobi),
    ("03_momentum", check_momentum),
    ("04_quasiperiodicity", check_quasiperiodicity),
    ("05_closed_forms", check_closed_forms),
    ("06_projective", check_projective),
    ("07_casimir_choice", check_casimir_choice),
    ("08_linearity_choice", check_linearity_choice),
    ("09_toda_to_ftv", check_toda_to_ftv),
    ("10_pushforward", check_pushforward),
    ("11_extended_toda_compat", check_extended_toda_compat),
    ("12_pencil_deformations", check_pencil_deformations),
    ("13_flow_consistency", check_flow_consistency),
    ("14_integrator_drift", check_integrator_drift),
]


def run_suite(seed: int = 0) -> list:
    """Run every acceptance check; returns ReportDocs ordered by check id."""
    docs = []
    for cid, fn in CHECKS:
        for doc in fn(seed):
            doc.check = f"{cid}:{doc.check}" if not doc.check.startswith(cid) else doc.check
            docs.append(doc)
    return docs
