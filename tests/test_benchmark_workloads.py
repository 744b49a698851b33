"""One pass of each benchmark workload, as ``perfbench/run.py`` runs it.

The workloads call the package through its public names (``closed_tensor``,
``compatibility``, ``toda_dirac_vs_ftv``, ``check_theorem``, the CLI's
``suite`` verb, ...).  A change of such a name or of what it returns would
otherwise first show as a failed benchmark run, so every item and every
pass-level gate must come back ok here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Import perfbench/<name>.py by path, under its own module name."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


_load("hostspeed")
workloads = _load("workloads")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_of_each_workload_passes(name):
    workload = workloads.WORKLOADS[name]
    log = workloads.ItemLog()
    gates, _ = workload.run(workload.prepare(0), log)
    assert log.records
    assert [r["name"] for r in log.records if not r["ok"]] == []
    assert [g["name"] for g in gates if not g["ok"]] == []
