"""The acceptance suite: every criterion at its contract size, one line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
pass/fail lines; the same checks back the CLI verb  polypoisson suite.
The suite runs once per module: the per-criterion tests read its reports,
and one test pins the sha256 of its JSON report.
"""

import hashlib

import pytest

from polypoisson.acceptance import CHECKS, run_suite
from polypoisson.cli import emit_report

SEED = 2024

# sha256 of emit_report(run_suite(SEED), "json"). A deliberate change to the
# report updates this pin and says so in CHANGES.md.
SUITE_JSON_SHA256 = "e658d7af4ef8165851641638523d5ba55bc66dc49e7a19b29db16cbcf47b2857"


@pytest.fixture(scope="module")
def suite_docs():
    return run_suite(SEED)


@pytest.mark.parametrize("check_id", [cid for cid, _ in CHECKS])
def test_acceptance_criterion(check_id, suite_docs):
    docs = [doc for doc in suite_docs if doc.check.startswith(check_id + ":")]
    assert docs, f"{check_id} produced no reports"
    for doc in docs:
        params = ", ".join(f"{k}={v}" for k, v in sorted(doc.params.items()))
        status = "PASS" if doc.passed else "FAIL"
        print(f"[{status}] {doc.check} ({params}) residual={doc.residual}")
    failed = [doc for doc in docs if not doc.passed]
    assert not failed, f"{check_id}: {len(failed)} configuration(s) failed: " + "; ".join(
        f"{d.check}{d.params} residual={d.residual}" for d in failed
    )


def test_suite_json_report_is_byte_stable(suite_docs):
    text = emit_report(suite_docs, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_JSON_SHA256
