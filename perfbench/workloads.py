"""The benchmark's four workloads: inputs from a seed, timed items, exact verdicts.

A workload's ``prepare(seed)`` builds every input from the seed alone (this
is set-up, before the timed section); ``run(inputs, log)`` runs the items
through an ``ItemLog``, which times each one and records its verdict, and
returns the pass-level gates.  Program functions are looked up on their
module at call time, never imported by name here, so a traced pass sees the
wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import time
from fractions import Fraction
from random import Random

from hostspeed import within


def _mod(name: str):
    return importlib.import_module(f"polypoisson.{name}")


def exact_zero(residual) -> tuple:
    """Verdict for an exact residual: passes only when it is exactly 0."""
    ok = isinstance(residual, (int, Fraction)) and residual == 0
    return ok, f"residual={residual}"


class ItemLog:
    """Times items and records (name, seconds, CPU seconds, ok, detail) for each of them.

    An item name is ``<configuration>/<what>``; the items of one parameter
    configuration share the part before the slash.  With a running
    ``hostspeed.Sampler``, the time of the samples taken during an item is
    left out of its seconds, and the record keeps the item's start and end
    (``t0``, ``t1``) to normalise it by.
    """

    def __init__(self, tracer=None, sampler=None):
        self.records = []
        self._tracer = tracer
        self._sampler = sampler

    def _times(self, t0: float, c0: float) -> dict:
        t1 = time.perf_counter()
        seconds, cpu = t1 - t0, time.process_time() - c0
        if self._sampler:
            inside = within(self._sampler.samples, t0, t1)
            seconds -= sum(s[1] for s in inside)
            cpu -= sum(s[2] for s in inside)
        return {"s": seconds, "cpu": cpu, "t0": t0, "t1": t1}

    def call(self, name: str, fn, args=(), verdict=exact_zero, reraise: bool = False):
        """Run ``fn(*args)`` as one item; an exception counts as a failure."""
        token = self._tracer.begin_item(name) if self._tracer else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            times = self._times(t0, c0)
            if self._tracer:
                self._tracer.end_item(token, raised=True)
            self.records.append(
                {"name": name, **times, "ok": False, "detail": f"raised {type(exc).__name__}: {exc}"}
            )
            if reraise:
                raise
            return None
        times = self._times(t0, c0)
        if self._tracer:
            self._tracer.end_item(token)
        ok, detail = verdict(out)
        self.records.append({"name": name, **times, "ok": bool(ok), "detail": detail})
        return out


def gate(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# ---------------------------------------------------------------------------
# suite: the acceptance suite exactly as users and CI run it
# ---------------------------------------------------------------------------

# The integrator check carries float tolerances; every other check is exact.
FLOAT_CHECKS = ("14_integrator_drift",)


def suite_doc_verdict(cid: str, docs) -> tuple:
    """A check passes when every configuration passed with an exact zero residual."""
    bad = [
        d.check
        for d in docs
        if not d.passed or (cid not in FLOAT_CHECKS and d.residual != "0")
    ]
    return not bad, f"{len(docs)} configurations" + (f", failing: {bad}" if bad else "")


def suite_report_gate(code: int, text: str) -> dict:
    """Exit code 0 and a JSON report whose every entry passed exactly."""
    try:
        docs = json.loads(text)
    except json.JSONDecodeError as exc:
        return gate("report", False, f"exit={code}, unparsable report: {exc}")
    bad = [
        d["check"]
        for d in docs
        if d["passed"] is not True
        or (not d["check"].startswith(FLOAT_CHECKS) and d["residual"] != "0")
    ]
    return gate("report", code == 0 and docs and not bad, f"exit={code}, {len(docs)} entries, failing: {bad}")


class Suite:
    def prepare(self, seed: int):
        return seed

    def run(self, seed: int, log: ItemLog) -> tuple:
        acceptance, cli = _mod("acceptance"), _mod("cli")
        original = list(acceptance.CHECKS)

        def item(cid, fn):
            def timed(s):
                return log.call(cid, fn, (s,), verdict=lambda docs: suite_doc_verdict(cid, docs), reraise=True)

            return timed

        acceptance.CHECKS[:] = [(cid, item(cid, fn)) for cid, fn in original]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run_command(["suite", "--seed", str(seed), "--format", "json"])
        finally:
            acceptance.CHECKS[:] = original
        text = buf.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        return [suite_report_gate(code, text)], digest


# ---------------------------------------------------------------------------
# polygon_ladder: each structural check on its own fresh (spec, W)
# ---------------------------------------------------------------------------

LADDER = ((2, 21), (3, 17), (4, 13), (4, 21))
STRUCTURE_CHECKS = ("momentum", "quasiperiodicity", "jacobi", "antisymmetry")


class PolygonLadder:
    def prepare(self, seed: int):
        ea, lo = _mod("exchange_algebra"), _mod("lattice_ops")
        rng = Random(f"polygon_ladder:{seed}")
        cases = []
        for nu, N in LADDER:
            for check in STRUCTURE_CHECKS:
                W = ea.random_polygon(nu, N, rng)
                spec = ea.BracketSpec.standard(nu, N, lo.random_odd_kernel(N, rng))
                cases.append((f"nu={nu},N={N}/{check}", spec, W, check, rng.randrange(10**6)))
        return cases

    def run(self, cases, log: ItemLog) -> tuple:
        ea = _mod("exchange_algebra")
        for name, spec, W, check, trial_seed in cases:
            log.call(name, ea.verify_structure, (spec, W, check, 20, trial_seed))
        return [], ""


# ---------------------------------------------------------------------------
# order_ladder: the general-order theorem, where determinants dominate
# ---------------------------------------------------------------------------

ORDERS = ((4, 9), (5, 11))


def theorem_verdict(rep) -> tuple:
    """Every verdict passes and every residual that was computed is exactly 0."""
    residuals = [c["residual"] for c in rep.cases if c["residual"] is not None]
    residuals += [rep.casimir.get("residual", "0"), rep.casimir.get("numeric_residual", "0")]
    residuals.append(rep.spectral.get("residual", "0"))
    ok = rep.all_pass() and all(r == "0" for r in residuals)
    return ok, f"residuals={residuals}"


class OrderLadder:
    def prepare(self, seed: int):
        return seed

    def run(self, seed: int, log: ItemLog) -> tuple:
        gen_nu = _mod("gen_nu")
        for nu, N in ORDERS:
            log.call(f"nu={nu},N={N}/theorem", gen_nu.check_theorem, (nu, N, seed), verdict=theorem_verdict)
        return [], ""


# ---------------------------------------------------------------------------
# reduced_tensors: closed tensors built and evaluated, no polygon bracket
# ---------------------------------------------------------------------------

SIZES = (7, 11, 15, 21)
POINTS = 3


def tensor_verdict(fields: int, N: int):
    def verdict(T) -> tuple:
        ok = T is not None and T.n_vars() == fields * N and bool(T.entries)
        return ok, f"{len(T.entries) if T is not None else 0} entries"

    return verdict


class ReducedTensors:
    def prepare(self, seed: int):
        cr = _mod("coord_reduction")
        rng = Random(f"reduced_tensors:{seed}")
        inputs = {}
        for N in SIZES:
            inputs[N] = {
                "abrho": [cr.random_fields(("a", "b", "rho"), N, rng)],
                "murho": cr.random_fields(("mu", "rho"), N, rng),
                "u": [cr.random_fields(("u",), N, rng)["u"] for _ in range(POINTS)],
                "beta": cr.random_fields(("beta",), N, rng)["beta"],
            }
        return inputs

    def run(self, inputs, log: ItemLog) -> tuple:
        cr = _mod("coord_reduction")

        def build(name, N):
            return cr.closed_tensor(name, N).to_poly()

        for N, pts in inputs.items():
            P1 = log.call(f"N={N}/build:P1", build, ("P1", N), verdict=tensor_verdict(3, N))
            P2 = log.call(f"N={N}/build:P2", build, ("P2", N), verdict=tensor_verdict(3, N))
            toda = log.call(f"N={N}/build:toda", build, ("toda", N), verdict=tensor_verdict(2, N))
            log.call(f"N={N}/compat:P1,P2", cr.compatibility, (P1, P2, pts["abrho"]))
            log.call(f"N={N}/jacobiator:toda", cr.jacobiator, (toda, pts["murho"]))
            for i, u in enumerate(pts["u"]):
                log.call(f"N={N}/toda_dirac_vs_ftv:{i}", cr.toda_dirac_vs_ftv, (N, u, pts["beta"]))
                log.call(f"N={N}/pushforward:{i}", cr.pushforward_check, (u,))
        return [], ""


WORKLOADS = {
    "suite": Suite(),
    "polygon_ladder": PolygonLadder(),
    "order_ladder": OrderLadder(),
    "reduced_tensors": ReducedTensors(),
}
