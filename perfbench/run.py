"""The polypoisson benchmark: seeded workloads, end-to-end timings, a traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every pass runs in a fresh interpreter
(``perfbench/passrun.py``), one at a time, with ``PYTHONHASHSEED`` pinned and
``POLYPOISSON_THREADS`` unset, so no module-level memo survives from one pass
to the next.  With ``--trace 0`` passes repeat until ``--seconds`` would be
exceeded (at least two), and the end-to-end metrics are medians over the
passes.  Their times are normalised to the host's speed (``hostspeed.py``):
a fixed reference kernel is sampled all through every pass, and the JSON
line reports ``norm_wall_s``, ``norm_cpu_s`` and ``norm_slowest_item_s``;
the raw times are printed in the table above it.  With ``--trace 1`` one
untraced and one traced pass run, and the per-layer metrics come from the
traced one; its spans are written under
``.perfbench/trace/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_metric_units  # noqa: E402
from workloads import WORKLOADS, gate  # noqa: E402

ROOT = HERE.parent
MIN_PASSES = 2
MIN_SETUPS = 11
PASS_TIMEOUT_S = 170
END_TO_END = {"norm_wall_s": "s", "norm_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "norm_slowest_item_s": "s"}
# Printed in the table only: the raw times swing with the host's speed.
RAW = {"wall_s": "s", "cpu_s": "s", "slowest_item_s": "s", "host_speed": "ratio"}


def require_program(root: Path):
    """Exit with code 2, printing no result, when the checkout has no program."""
    if not (root / "src" / "polypoisson" / "__init__.py").is_file():
        print(f"error: no polypoisson package under {root / 'src'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)


def pass_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("POLYPOISSON_", "PYTHON"))}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def commit(root: Path) -> str:
    """The checked-out commit, read from .git inside the checkout only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(root),
    }


def run_pass(
    root: Path, env: dict, workload: str, seed: int, setup_only=False, calibrate=False, trace_dir: Path = None
) -> dict:
    """One fresh-interpreter pass; returns its JSON result, or {"broken": why}."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if calibrate:
        cmd.append("--calibrate")
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    cmd += ["--t-spawn", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"broken": f"pass exceeded {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = proc.stderr.strip().splitlines()[-3:]
    return {"broken": f"pass exited {proc.returncode} without a result: {' | '.join(tail)}"}


def slowest_config_s(items: list, key: str = "s") -> float:
    """Time of the slowest parameter configuration: its items' times summed."""
    totals = {}
    for item in items:
        config = item["name"].split("/")[0]
        totals[config] = totals.get(config, 0.0) + item[key]
    return max(totals.values())


def tally(passes: list) -> tuple:
    """(attempted, failed) over every item and gate of the passes.

    A pass that did not complete counts as one failed attempt.  Every pass
    after the first also gates on producing the same report as the first, so
    the report may depend neither on the pass nor on tracing.
    """
    good = [p for p in passes if "broken" not in p]
    for p in good[1:]:
        p["gates"].append(gate("same_report", p["digest"] == good[0]["digest"], p["digest"][:16]))
    attempted = failed = 0
    for p in passes:
        checks = [{"ok": False}] if "broken" in p else p["items"] + p["gates"]
        attempted += len(checks)
        failed += sum(1 for c in checks if not c["ok"])
    return attempted, failed


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the passes of one workload and reduce them to its metrics."""
    env = pass_env(root)
    # Warm-up, not measured: compiles bytecode and fills the page cache.
    run_pass(root, env, workload, seed, setup_only=True)
    passes = []
    if trace:
        trace_dir = root / ".perfbench" / "trace" / f"{workload}-seed{seed}"
        passes.append(run_pass(root, env, workload, seed))
        passes.append(run_pass(root, env, workload, seed, trace_dir=trace_dir))
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(root, env, workload, seed, calibrate=True))
            elapsed = time.perf_counter() - start
            broken = all("broken" in p for p in passes)
            if len(passes) >= MIN_PASSES and (broken or elapsed * (len(passes) + 1) / len(passes) > seconds):
                break
    good = [p for p in passes if "broken" not in p]
    setups = [p["setup_s"] for p in good if "layers" not in p]
    while len(setups) < MIN_SETUPS and good:
        extra = run_pass(root, env, workload, seed, setup_only=True)
        if "broken" in extra:
            break
        setups.append(extra["setup_s"])

    attempted, failed = tally(passes)
    out = {"workload": workload, "passes": passes, "attempted": attempted, "failed": failed}
    out["fail_ratio"] = failed / attempted
    if not good:
        return out
    # End-to-end metrics come from untraced passes only.
    timed = [p for p in good if "layers" not in p] or good
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
        "slowest_item_s": statistics.median(slowest_config_s(p["items"]) for p in timed),
    }
    if not trace:
        metrics["norm_wall_s"] = statistics.median(p["norm_wall_s"] for p in timed)
        metrics["norm_cpu_s"] = statistics.median(p["norm_cpu_s"] for p in timed)
        metrics["norm_slowest_item_s"] = statistics.median(slowest_config_s(p["items"], "ns") for p in timed)
        metrics["host_speed"] = statistics.median(p["host_speed"] for p in timed)
        out["e2e"] = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
    out["table"] = {name: (metrics[name], unit) for name, unit in {**END_TO_END, **RAW}.items() if name in metrics}
    if trace and len(good) == 2:
        layers = dict(good[1]["layers"])
        layers["trace.overhead_ratio"] = good[1]["wall_s"] / good[0]["wall_s"]
        units = per_layer_metric_units()
        out["layer"] = {name: (layers[name], unit) for name, unit in units.items()}
    return out


def report(res: dict, trace: bool):
    """Human-readable lines for one workload (everything but the last line)."""
    print(f"## workload {res['workload']}")
    for n, p in enumerate(res["passes"], 1):
        if "broken" in p:
            print(f"#  pass {n}: BROKEN {p['broken']}")
            continue
        bad = [c for c in p["items"] + p["gates"] if not c["ok"]]
        kind = "traced" if "layers" in p else "untraced"
        norm = f"norm wall {p['norm_wall_s']:.3f} s at host speed {p['host_speed']:.3f}, " if "host_speed" in p else ""
        print(
            f"#  pass {n} ({kind}): {norm}wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
            f"setup {p['setup_s']:.3f} s, rss {p['peak_rss_mb']:.1f} MB, "
            f"{len(p['items']) + len(p['gates']) - len(bad)}/{len(p['items']) + len(p['gates'])} ok"
        )
        for c in bad:
            print(f"#    FAIL {c['name']}: {c.get('detail', '')}")
    rows = dict(res.get("table", {}))
    rows["fail_ratio"] = (res["fail_ratio"], "ratio")
    if trace:
        rows.update(res.get("layer", {}))
    for name, (value, unit) in rows.items():
        print(f"   {name:<48} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="polypoisson benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    require_program(ROOT)
    trace = bool(args.trace)

    prov = provenance(ROOT)
    print(f"# polypoisson benchmark: seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    print("# " + ", ".join(f"{k} {v}" for k, v in prov.items()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = measure(ROOT, name, args.seed, args.seconds, trace)
        report(res, trace)
        results.append(res)

    key = "layer" if trace else "e2e"
    if any(key not in r for r in results):
        print("error: no pass of a workload completed", file=sys.stderr)
        return 1
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for name, (value, unit) in r[key].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
