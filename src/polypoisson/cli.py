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
from dataclasses import asdict
from fractions import Fraction
from random import Random

from . import acceptance
from .acceptance import _doc, run_suite
from .coord_reduction import closed_tensor, pushforward_check, random_fields, toda_dirac_vs_ftv
from .dynamics import integrate, toda_float_vf, toda_invariants, trajectory_csv
from .exchange_algebra import BracketSpec, default_rc, random_polygon, verify_structure, verify_ybe
from .gen_nu import PASSING, check_theorem
from .lattice_ops import OddKernel, PerSeq, phi_special, random_odd_kernel
from .linalg import rat_str


def _load_phi(cfg: argparse.Namespace, rng: Random) -> OddKernel:
    src = cfg.phi
    if src == "special":
        return phi_special(cfg.nu, cfg.k, cfg.N)
    if src == "zero":
        return OddKernel(PerSeq.constant(cfg.N, 0))
    if src == "random":
        return random_odd_kernel(cfg.N, rng)
    if src.startswith("file:"):
        return OddKernel(_load_seq(cfg, src[5:]))
    raise ValueError(f"bad phi source {src!r}")


def _load_beta(cfg: argparse.Namespace, rng: Random) -> PerSeq:
    src = cfg.beta
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


def _load_seq(cfg: argparse.Namespace, path: str) -> PerSeq:
    with open(path, "r", encoding="utf-8") as fh:
        seq = PerSeq.from_json(json.load(fh))
    if seq.N != cfg.N:
        raise ValueError(f"{path} has period {seq.N}, not --N {cfg.N}")
    return seq


def _write_json(path: str, doc) -> None:
    """The one writer of the --out documents of derive, phi, theorem and flow's drift: sorted keys, indent 2, utf-8."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)


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


def _cmd_verify_ybe(cfg: argparse.Namespace) -> list:
    t0 = time.time()
    R, C = default_rc(cfg.nu)
    return [_doc("ybe", {"nu": cfg.nu}, verify_ybe(R, C), cfg.seed, t0)]


def _cmd_verify_w(cfg: argparse.Namespace) -> list:
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
        params = {"nu": cfg.nu, "N": cfg.N, "phi": cfg.phi, "k": cfg.k}
        if check == "jacobi":
            params["trials"] = cfg.trials
        docs.append(_doc(f"verify-w:{check}", params, res, cfg.seed, t0))
    return docs


def _cmd_derive(cfg: argparse.Namespace) -> list:
    t0 = time.time()
    rng = Random(cfg.seed)
    kwargs = {}
    if cfg.name in ("murho", "abrho"):
        kwargs["phi"] = _load_phi(cfg, rng)
    if cfg.name == "ftv_u":
        kwargs["beta"] = _load_beta(cfg, rng)
    T = closed_tensor(cfg.name, cfg.N, **kwargs)
    if "phi" in kwargs:
        T = T.to_poly()  # the full quotient brackets are written expanded
    params = {"N": cfg.N}
    if cfg.out:
        _write_json(cfg.out, T.to_json())
        params["out"] = cfg.out
    return [_doc(f"derive:{cfg.name}", params, 0, cfg.seed, t0)]


def _cmd_phi(cfg: argparse.Namespace) -> list:
    t0 = time.time()
    phi = phi_special(cfg.nu, cfg.k, cfg.N)
    values = ", ".join(rat_str(v) for v in phi.seq.values)
    print(f"phi^({cfg.k}) for nu={cfg.nu}, N={cfg.N}: ({values})")
    if cfg.out:
        _write_json(cfg.out, phi.to_json())
    return [_doc("phi", {"nu": cfg.nu, "k": cfg.k, "N": cfg.N}, 0, cfg.seed, t0)]


def _cmd_reduce_dirac(cfg: argparse.Namespace) -> list:
    rng = Random(cfg.seed)
    beta = _load_beta(cfg, rng)
    t0 = time.time()
    res = Fraction(0)
    for _ in range(cfg.trials):
        u = random_fields(("u",), cfg.N, rng)["u"]
        res = max(res, toda_dirac_vs_ftv(cfg.N, u, beta))
    return [_doc("reduce-dirac", {"N": cfg.N, "beta": cfg.beta or "one", "trials": cfg.trials}, res, cfg.seed, t0)]


def _cmd_pushforward(cfg: argparse.Namespace) -> list:
    rng = Random(cfg.seed)
    t0 = time.time()
    res = Fraction(0)
    for _ in range(cfg.trials):
        u = random_fields(("u",), cfg.N, rng)["u"]
        res = max(res, pushforward_check(u))
    return [_doc("pushforward", {"N": cfg.N, "trials": cfg.trials}, res, cfg.seed, t0)]


def _cmd_theorem(cfg: argparse.Namespace) -> list:
    t0 = time.time()
    rep = check_theorem(cfg.nu, cfg.N, seed=cfg.seed)
    if cfg.out:
        _write_json(cfg.out, asdict(rep))
    rows = [
        ("theorem:linearity", {"nu": cfg.nu, "N": cfg.N, "k": case["k"], "note": case.get("note", "")}, case)
        for case in rep.cases
    ]
    for check, row in (("theorem:casimir", rep.casimir), ("theorem:spectral", rep.spectral)):
        params = {"nu": cfg.nu, "N": cfg.N}
        params.update((k, row[k]) for k in ("note", "numeric_residual", "polygons", "certificate") if k in row)
        rows.append((check, params, row))
    return [
        _doc(check, params, row.get("residual") or "skipped", cfg.seed, t0, ok=row.get("verdict") in PASSING)
        for check, params, row in rows
    ]


def _cmd_compat(cfg: argparse.Namespace) -> list:
    return acceptance.check_extended_toda_compat(cfg.seed, N=cfg.N)


def _cmd_flow(cfg: argparse.Namespace) -> list:
    docs = acceptance.check_flow_consistency(cfg.seed)
    t0 = time.time()
    N = 3
    start = {"mu": [1.2, -0.9, 0.4], "rho": [1.0, 2.5, 0.6]}
    traj, rep = integrate(toda_float_vf(N), start, cfg.dt, cfg.steps, invariants=toda_invariants(N))
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(trajectory_csv(traj))
        _write_json(cfg.out + ".drift.json", rep)
    drift = max(rep["max_relative_drift"])
    params = {"N": N, "dt": cfg.dt, "steps": cfg.steps}
    docs.append(_doc("flow:integrator", params, f"{drift:.3e}", cfg.seed, t0, ok=drift < 1e-8))
    return docs


def _cmd_suite(cfg: argparse.Namespace) -> list:
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
VERBS = tuple(_DISPATCH)


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
        cfg = parser.parse_args(argv)
    except SystemExit:
        return 2
    for bad, what in (
        (cfg.N < 3, "N must be >= 3"),
        (cfg.trials < 1, "trials must be >= 1"),
        (cfg.steps < 1, "steps must be >= 1"),
        (not (math.isfinite(cfg.dt) and cfg.dt > 0), "dt must be a finite positive number"),
    ):
        if bad:
            print(f"usage error: {what}", file=sys.stderr)
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
