"""Self-tests of the benchmark: its correctness gate, its counts and its files.

    PYTHONPATH=src python3 -m pytest perfbench -q

These are the benchmark's own tests and are not part of the tier-1 suite.
Traced passes run in subprocesses, because installing the tracer rebinds
module attributes of the package for the rest of the process.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from polypoisson import exchange_algebra as ea  # noqa: E402
from polypoisson import gen_nu, lattice_ops  # noqa: E402
from polypoisson.acceptance import ReportDoc  # noqa: E402


def _non_odd_case():
    """nu=2, N=7, seed 0: the first sampled polygon under phi = 3/2 everywhere (not odd)."""
    W = ea.random_polygon(2, 7, Random(0))
    phi = lattice_ops.Kernel(lattice_ops.PerSeq.constant(7, Fraction(3, 2)))
    return ea.BracketSpec.standard(2, 7, phi), W


def test_negative_controls_are_counted_as_failures():
    spec, W = _non_odd_case()
    log = workloads.ItemLog()
    anti = log.call("antisymmetry", ea.verify_structure, (spec, W, "antisymmetry"))
    jac = log.call("jacobi", ea.verify_structure, (spec, W, "jacobi", 20, 0))
    wrong_k = log.call(
        "quad_coeff", lambda: gen_nu.quad_coeff(3, 1, lattice_ops.phi_special(3, 2, 9), 9).seq.max_abs()
    )
    log.call("raises", lattice_ops.phi_special, (1, 0, 5))
    assert (anti, jac, wrong_k) == (48, 2070, 2)
    assert [r["ok"] for r in log.records] == [False] * 4
    assert log.records[-1]["detail"].startswith("raised ValueError")

    passes = [
        {"items": log.records, "gates": [], "digest": "a"},
        {"items": [], "gates": [workloads.gate("report", True)], "digest": "b"},
        {"broken": "pass exited 1"},
    ]
    assert run.tally(passes) == (7, 6)


def test_slowest_configuration_sums_its_items():
    items = [{"name": "N=7/a", "s": 1.0}, {"name": "N=21/a", "s": 0.75}, {"name": "N=21/b", "s": 0.5}]
    assert run.slowest_config_s(items) == 1.25


def test_normalise_scales_by_the_speed_of_the_samples():
    ref = hostspeed.REFERENCE_S
    # A host at half speed during the first item and full speed otherwise.
    samples = [(t, 2 * ref, 2 * ref) for t in (0.1, 0.2, 0.3)] + [(t, ref, ref) for t in (1.1, 1.2, 1.3, 1.4, 1.5)]
    records = [
        {"name": "a/x", "s": 1.0, "cpu": 1.0, "t0": 0.0, "t1": 1.0},
        {"name": "b/x", "s": 1.0, "cpu": 1.0, "t0": 1.0, "t1": 2.0},
        {"name": "b/y", "s": 0.5, "cpu": 0.5, "t0": 2.0, "t1": 2.1},
    ]
    wall, cpu, speed = hostspeed.normalise(records, samples, 6.0, 6.0)
    pass_speed = (3 * 0.5 + 5 * 1.0) / 8
    assert speed == pytest.approx(pass_speed)
    assert (wall, cpu) == (pytest.approx(6.0 * pass_speed), pytest.approx(6.0 * pass_speed))
    assert [r["ns"] for r in records] == [pytest.approx(0.5), pytest.approx(1.0), pytest.approx(0.5 * pass_speed)]
    assert run.slowest_config_s(records, "ns") == pytest.approx(1.0 + 0.5 * pass_speed)


def test_sampled_pass_takes_the_kernel_out_of_its_times():
    env = run.pass_env(ROOT)
    res = run.run_pass(ROOT, env, "reduced_tensors", 3, calibrate=True)
    assert "broken" not in res and all(item["ok"] for item in res["items"])
    assert res["wall_s"] > sum(item["s"] for item in res["items"]) > 0
    assert 0 < res["norm_wall_s"] and 0 < res["host_speed"]
    assert res["norm_wall_s"] == pytest.approx(res["wall_s"] * res["host_speed"])
    assert all(item["ns"] > 0 and item["ncpu"] > 0 for item in res["items"])


def test_exact_verdicts():
    assert workloads.exact_zero(Fraction(0))[0]
    assert not workloads.exact_zero(Fraction(1, 10**9))[0]
    assert not workloads.exact_zero(0.0)[0]
    ok = ReportDoc("05_closed_forms:x", {}, "0", True, 0)
    inexact = ReportDoc("05_closed_forms:x", {}, "1/3", True, 0)
    failed = ReportDoc("05_closed_forms:x", {}, "0", False, 0)
    assert workloads.suite_doc_verdict("05_closed_forms", [ok])[0]
    assert not workloads.suite_doc_verdict("05_closed_forms", [ok, inexact])[0]
    assert not workloads.suite_doc_verdict("05_closed_forms", [failed])[0]
    drift = ReportDoc("14_integrator_drift:d", {}, "1.2e-10", True, 0)
    assert workloads.suite_doc_verdict("14_integrator_drift", [drift])[0]
    good = json.dumps([ok.to_json(), drift.to_json()])
    assert workloads.suite_report_gate(0, good)["ok"]
    assert not workloads.suite_report_gate(1, good)["ok"]
    assert not workloads.suite_report_gate(0, json.dumps([inexact.to_json()]))["ok"]
    assert not workloads.suite_report_gate(0, "not json")["ok"]
    rep = gen_nu.check_theorem(3, 7, seed=0)
    assert workloads.theorem_verdict(rep)[0]
    rep.cases[0]["residual"] = "1"
    assert not workloads.theorem_verdict(rep)[0]


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_metric_units()


def test_missing_program_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        run.require_program(HERE)
    assert exc.value.code == 2


def _traced_pass(workload: str, seed: int, out_dir: Path) -> dict:
    env = run.pass_env(ROOT)
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace-dir", str(out_dir), "--t-spawn", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_spans_round_trip():
    out = ROOT / ".perfbench" / "selftest"
    first = _traced_pass("reduced_tensors", 3, out / "a")
    second = _traced_pass("reduced_tensors", 3, out / "b")
    counts = {k: v for k, v in first["layers"].items() if not k.endswith(("_s", "coverage"))}
    assert counts == {k: v for k, v in second["layers"].items() if k in counts}
    assert all(item["ok"] for item in first["items"])
    assert abs(first["layers"]["trace.coverage"] - 1) < 0.05

    header, cols = tracer.load_spans(out / "a")
    stats = tracer.function_stats(header["names"], cols)
    assert sum(st["calls"] for nm, st in stats.items() if tracer.layer_of(nm) == "linalg") == (
        first["layers"]["linalg.calls"]
    )
    assert stats["coord_reduction.jacobiator"]["self_s"] == pytest.approx(
        first["layers"]["coord_reduction.jacobiator.self_s"]
    )
    items = {header["item_names"][i] for i in cols["item"]}
    assert "N=7/build:P1" in items and "N=21/compat:P1,P2" in items
