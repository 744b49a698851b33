"""Command-line surface: reproducible verification runs and machine-readable reports.

Verbs:
  verify-ybe    residual of the modified Yang-Baxter identity for the default pair
  verify-w      structural checks of the polygon bracket (jacobi/momentum/...)
  derive        build a named reduced tensor and write it as JSON
  phi           print the distinguished odd kernel phi^(k)
  reduce-dirac  Dirac-reduce the quadratic Toda tensor at rho = beta vs the closed form
  pushforward   the u -> S change-of-variable identity at random points
  theorem       per-k Casimir/linearity verdicts at general order
  compat        compatibility certificate for the two extended-Toda tensors
  flow          exact flow consistency plus float-integrator drift
  suite         every acceptance check

Exit code 0 when everything passed, 1 on any failure, 2 on usage errors.
Rationals are serialized as 'p/q' strings; reports are byte-stable for a
fixed seed (timing is kept out of the json/csv formats for that reason).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import acceptance
from .acceptance import ReportDoc, run_suite
from .coord_reduction import closed_tensor, pushforward_check, random_fields, toda_dirac_vs_ftv
from .dynamics import integrate, toda_float_vf, toda_invariants
from .exchange_algebra import BracketSpec, default_rc, random_polygon, verify_structure, verify_ybe
from .gen_nu import check_theorem
from .lattice_ops import OddKernel, PerSeq, phi_special, random_odd_kernel
from .linalg import rat_str

VERBS = (
    "verify-ybe",
    "verify-w",
    "derive",
    "phi",
    "reduce-dirac",
    "pushforward",
    "theorem",
    "compat",
    "flow",
    "suite",
)


@dataclass
class RunConfig:
    verb: str
    nu: int = 2
    N: int = 5
    k: int = 0
    phi_source: str = "special"
    beta_source: str = ""
    seed: int = 0
    trials: int = 10
    out: str = ""
    fmt: str = "text"
    name: str = "toda"
    check: str = "all"
    dt: float = 1e-3
    steps: int = 1000

    def __post_init__(self):
        if self.verb not in VERBS:
            raise ValueError(f"unknown verb {self.verb!r}")
        if self.N < 3:
            raise ValueError("N must be >= 3")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be a finite positive number")


def _load_phi(cfg: RunConfig, rng: Random) -> OddKernel:
    src = cfg.phi_source
    if src == "special":
        return phi_special(cfg.nu, cfg.k, cfg.N)
    if src == "zero":
        return OddKernel(PerSeq.constant(cfg.N, 0))
    if src == "random":
        return random_odd_kernel(cfg.N, rng)
    if src.startswith("file:"):
        return OddKernel(_load_seq(cfg, src[5:]))
    raise ValueError(f"bad phi source {src!r}")


def _load_beta(cfg: RunConfig, rng: Random) -> PerSeq:
    src = cfg.beta_source
    if not src or src == "one":
        return PerSeq.constant(cfg.N, 1)
    if src == "random":
        return random_fields(("beta",), cfg.N, rng)["beta"]
    if src.startswith("file:"):
        beta = _load_seq(cfg, src[5:])
        if not beta.nonvanishing():
            raise ValueError("beta must be nonvanishing")
        return beta
    raise ValueError(f"bad beta source {src!r}")


def _load_seq(cfg: RunConfig, path: str) -> PerSeq:
    with open(path, "r", encoding="utf-8") as fh:
        seq = PerSeq.from_json(json.load(fh))
    if seq.N != cfg.N:
        raise ValueError(f"{path} has period {seq.N}, not --N {cfg.N}")
    return seq


def emit_report(docs, fmt: str = "json", path: str = "") -> str:
    """Serialize ReportDocs bit-stably; returns the text (and writes it if asked)."""
    if fmt == "json":
        text = json.dumps([d.to_json() for d in docs], sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "params", "residual", "passed", "seed"])
        for d in docs:
            writer.writerow(
                [d.check, json.dumps(d.params, sort_keys=True), d.residual, d.passed, d.seed]
            )
        text = buf.getvalue()
    elif fmt == "text":
        lines = []
        for d in docs:
            status = "PASS" if d.passed else "FAIL"
            params = ", ".join(f"{k}={v}" for k, v in sorted(d.params.items()))
            lines.append(f"[{status}] {d.check} ({params}) residual={d.residual} [{d.elapsed:.2f}s]")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _cmd_verify_ybe(cfg: RunConfig) -> list:
    t0 = time.time()
    R, C = default_rc(cfg.nu)
    res = verify_ybe(R, C)
    return [ReportDoc("ybe", {"nu": cfg.nu}, rat_str(res), res == 0, cfg.seed, time.time() - t0)]


def _cmd_verify_w(cfg: RunConfig) -> list:
    rng = Random(cfg.seed)
    phi = _load_phi(cfg, rng)
    checks = (
        ["antisymmetry", "jacobi", "momentum", "quasiperiodicity"]
        if cfg.check == "all"
        else [cfg.check]
    )
    docs = []
    for check in checks:
        t0 = time.time()
        W = random_polygon(cfg.nu, cfg.N, rng)
        spec = BracketSpec.standard(cfg.nu, cfg.N, phi)
        res = verify_structure(spec, W, check, trials=cfg.trials, seed=cfg.seed)
        params = {"nu": cfg.nu, "N": cfg.N, "phi": cfg.phi_source, "k": cfg.k}
        if check == "jacobi":
            params["trials"] = cfg.trials
        docs.append(
            ReportDoc(
                f"verify-w:{check}",
                params,
                rat_str(res),
                res == 0,
                cfg.seed,
                time.time() - t0,
            )
        )
    return docs


def _cmd_derive(cfg: RunConfig) -> list:
    t0 = time.time()
    rng = Random(cfg.seed)
    kwargs = {}
    if cfg.name in ("murho", "abrho"):
        kwargs["phi"] = _load_phi(cfg, rng)
    if cfg.name == "ftv_u":
        kwargs["beta"] = _load_beta(cfg, rng)
    T = closed_tensor(cfg.name, cfg.N, **kwargs)
    doc_json = T.to_json()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(doc_json, fh, sort_keys=True, indent=2)
    return [
        ReportDoc(
            f"derive:{cfg.name}",
            {"N": cfg.N, "out": cfg.out or "(stdout)"},
            "0",
            True,
            cfg.seed,
            time.time() - t0,
        )
    ]


def _cmd_phi(cfg: RunConfig) -> list:
    t0 = time.time()
    phi = phi_special(cfg.nu, cfg.k, cfg.N)
    values = ", ".join(rat_str(v) for v in phi.seq.values)
    print(f"phi^({cfg.k}) for nu={cfg.nu}, N={cfg.N}: ({values})")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(phi.to_json(), fh, sort_keys=True, indent=2)
    return [
        ReportDoc("phi", {"nu": cfg.nu, "k": cfg.k, "N": cfg.N}, "0", True, cfg.seed, time.time() - t0)
    ]


def _cmd_reduce_dirac(cfg: RunConfig) -> list:
    rng = Random(cfg.seed)
    beta = _load_beta(cfg, rng)
    t0 = time.time()
    res = Fraction(0)
    for _ in range(cfg.trials):
        u = random_fields(("u",), cfg.N, rng)["u"]
        res = max(res, toda_dirac_vs_ftv(cfg.N, u, beta))
    return [
        ReportDoc(
            "reduce-dirac",
            {"N": cfg.N, "beta": cfg.beta_source or "one", "trials": cfg.trials},
            rat_str(res),
            res == 0,
            cfg.seed,
            time.time() - t0,
        )
    ]


def _cmd_pushforward(cfg: RunConfig) -> list:
    rng = Random(cfg.seed)
    t0 = time.time()
    res = Fraction(0)
    for _ in range(cfg.trials):
        u = random_fields(("u",), cfg.N, rng)["u"]
        res = max(res, pushforward_check(u))
    return [
        ReportDoc(
            "pushforward",
            {"N": cfg.N, "trials": cfg.trials},
            rat_str(res),
            res == 0,
            cfg.seed,
            time.time() - t0,
        )
    ]


def _cmd_theorem(cfg: RunConfig) -> list:
    t0 = time.time()
    rep = check_theorem(cfg.nu, cfg.N, seed=cfg.seed)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(rep.to_json(), fh, sort_keys=True, indent=2)
    docs = []
    for case in rep.cases:
        docs.append(
            ReportDoc(
                "theorem:linearity",
                {"nu": cfg.nu, "N": cfg.N, "k": case["k"], "note": case.get("note", "")},
                case["residual"] if case["residual"] is not None else "skipped",
                case["verdict"] in ("pass", "skipped"),
                cfg.seed,
                0.0,
            )
        )
    casimir = {"nu": cfg.nu, "N": cfg.N}
    casimir.update((k, rep.casimir[k]) for k in ("note", "numeric_residual") if k in rep.casimir)
    docs.append(
        ReportDoc(
            "theorem:casimir",
            casimir,
            rep.casimir.get("residual", "skipped"),
            rep.casimir.get("verdict") in ("pass", "skipped"),
            cfg.seed,
            0.0,
        )
    )
    docs.append(
        ReportDoc(
            "theorem:spectral",
            {"nu": cfg.nu, "N": cfg.N, "note": rep.spectral.get("note", "")},
            rep.spectral.get("residual", "skipped"),
            rep.spectral.get("verdict") in ("pass", "skipped"),
            cfg.seed,
            0.0,
        )
    )
    docs[-1].elapsed = time.time() - t0
    return docs


def _cmd_compat(cfg: RunConfig) -> list:
    return acceptance.check_extended_toda_compat(cfg.seed, N=cfg.N)


def _cmd_flow(cfg: RunConfig) -> list:
    from .dynamics import trajectory_csv

    docs = acceptance.check_flow_consistency(cfg.seed)
    t0 = time.time()
    N = 3
    start = {"mu": [1.2, -0.9, 0.4], "rho": [1.0, 2.5, 0.6]}
    traj, rep = integrate(toda_float_vf(N), start, cfg.dt, cfg.steps, invariants=toda_invariants(N))
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(trajectory_csv(traj))
        with open(cfg.out + ".drift.json", "w", encoding="utf-8") as fh:
            json.dump(rep, fh, sort_keys=True, indent=2)
    drift = max(rep["max_relative_drift"])
    docs.append(
        ReportDoc(
            "flow:integrator",
            {"N": N, "dt": cfg.dt, "steps": cfg.steps},
            f"{drift:.3e}",
            drift < 1e-8,
            cfg.seed,
            time.time() - t0,
        )
    )
    return docs


def _cmd_suite(cfg: RunConfig) -> list:
    return run_suite(seed=cfg.seed)


_DISPATCH = {
    "verify-ybe": _cmd_verify_ybe,
    "verify-w": _cmd_verify_w,
    "derive": _cmd_derive,
    "phi": _cmd_phi,
    "reduce-dirac": _cmd_reduce_dirac,
    "pushforward": _cmd_pushforward,
    "theorem": _cmd_theorem,
    "compat": _cmd_compat,
    "flow": _cmd_flow,
    "suite": _cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polypoisson",
        description="Exact verification runs for the polygon Poisson structures.",
    )
    p.add_argument("verb", choices=VERBS)
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("--N", type=int, default=5)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--phi", default="special", help="special | zero | random | file:PATH")
    p.add_argument("--beta", default="", help="one | random | file:PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--out", default="")
    p.add_argument("--format", dest="fmt", default="text", choices=("json", "csv", "text"))
    p.add_argument("--name", default="toda", help="tensor name for 'derive'")
    p.add_argument("--check", default="all", help="verify-w check selector")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    return p


def run_command(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit:
        return 2
    try:
        cfg = RunConfig(
            verb=ns.verb,
            nu=ns.nu,
            N=ns.N,
            k=ns.k,
            phi_source=ns.phi,
            beta_source=ns.beta,
            seed=ns.seed,
            trials=ns.trials,
            out=ns.out,
            fmt=ns.fmt,
            name=ns.name,
            check=ns.check,
            dt=ns.dt,
            steps=ns.steps,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        docs = _DISPATCH[cfg.verb](cfg)
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    consumes_out = cfg.verb in ("derive", "phi", "theorem", "flow")
    out_path = "" if consumes_out else cfg.out
    try:
        sys.stdout.write(emit_report(docs, cfg.fmt, out_path))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(d.passed for d in docs) else 1


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
