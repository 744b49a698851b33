"""The acceptance suite: every criterion at its contract size, one line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
pass/fail lines; the same checks back the CLI verb  polypoisson suite.
The suite runs once per module: the per-criterion tests read its reports,
and one test pins the sha256 of its JSON report.
"""

import hashlib

import pytest
from test_coord_reduction import double_last_diagonal_word, drop_smallest_entry, flip_kernel_first_word

from polypoisson import acceptance, coord_reduction, exchange_algebra, gen_nu, lattice_ops
from polypoisson.acceptance import CHECKS, run_suite
from polypoisson.cli import emit_report
from polypoisson.lattice_ops import PerSeq

SEED = 2024

# sha256 of emit_report(run_suite(SEED), "json"). A deliberate change to the
# report updates this pin and says so in CHANGES.md.
SUITE_JSON_SHA256 = "b37d257454b228bbab970278bc7f9fcb79455b6dd2978c1e3c677ac90c605c1c"


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


# checks on exact kernels or in floats, which draw no sample to count
UNSAMPLED = ("01_ybe", "08_linearity_choice", "14_integrator_drift")
SAMPLE_KEYS = {"trials", "polygons", "samples", "points", "certificate", "case"}


def test_every_sampled_row_says_what_it_sampled(suite_docs):
    assert set(UNSAMPLED) <= {cid for cid, _ in CHECKS}
    silent = [
        (doc.check, doc.params)
        for doc in suite_docs
        if not SAMPLE_KEYS & doc.params.keys() and doc.check.split(":")[0] not in UNSAMPLED
    ]
    assert not silent


def test_linearity_choice_negative_control(monkeypatch):
    # criterion 8 with phi^(k) swapped for phi^(k') of the wrong order k' =
    # k mod (nu - 1) + 1: the a^(k) a^(k) coefficient quad_coeff(nu, k,
    # phi^(k'), N) no longer vanishes.  At nu = 2 there is no other k.
    real = lattice_ops.phi_special
    monkeypatch.setattr(acceptance, "phi_special", lambda nu, k, N: real(nu, k % (nu - 1) + 1, N))
    got = {(d.params["nu"], d.params["N"]): (d.residual, d.passed) for d in acceptance.check_linearity_choice(0)}
    assert got == {(nu, N): ("0", True) if nu == 2 else ("2", False) for nu in (2, 3, 4, 5) for N in (7, 9, 11)}


def test_exchange_kernel_negative_control(monkeypatch):
    # criteria 5, 7 and 8 read the exchange kernels E_jk from the one formula
    # lattice_ops._exchange_kernels: with L (one, over L) added at index 1 of
    # every _closed_ints output, the named quotient brackets no longer match
    # the chain rule, and the Casimir kernels and a^(k) a^(k) coefficients
    # no longer vanish
    real = lattice_ops._closed_ints

    def bumped(nu, s, p, L, *outers):
        return [[x + L * (m == 1) for m, x in enumerate(ints)] for ints in real(nu, s, p, L, *outers)]

    monkeypatch.setattr(lattice_ops, "_closed_ints", bumped)
    docs = acceptance.check_closed_forms(0)
    assert [(d.params["tensor"], d.residual, d.passed) for d in docs] == [
        ("murho", "2685/16", False),
        ("abrho", "10496/21", False),
    ]
    docs = acceptance.check_casimir_choice(0) + acceptance.check_linearity_choice(0)
    assert len(docs) == 3 + 12
    assert all((d.residual, d.passed) == ("1", False) for d in docs)


def test_toda_to_ftv_negative_control(monkeypatch):
    # criterion 9 with the closed form ftv_u(beta) read at beta_0 + 1: the
    # Dirac-reduced Toda bracket at rho = beta no longer matches it
    real = coord_reduction.closed_tensor

    def shifted(name, N, phi=None, beta=None):
        if name == "ftv_u":
            beta = PerSeq(N, (beta[0] + 1,) + tuple(beta[m] for m in range(1, N)))
        return real(name, N, phi, beta)

    monkeypatch.setattr(coord_reduction, "closed_tensor", shifted)
    docs = acceptance.check_toda_to_ftv(0)
    assert [(d.params["N"], d.params["beta"], d.residual, d.passed) for d in docs] == [
        (N, beta, "1", False) for N in (5, 7) for beta in ("one", "random")
    ]


def test_pushforward_negative_control(monkeypatch):
    # criterion 10 with ftv_S missing its last word, the second one with a
    # field inverse: S = u u' no longer carries ftv_u onto ftv_S
    real = coord_reduction.closed_tensor

    def lossy(name, N, phi=None, beta=None):
        T = real(name, N, phi, beta)
        if name == "ftv_S":
            T.words[0, 0].pop()
        return T

    monkeypatch.setattr(coord_reduction, "closed_tensor", lossy)
    docs = acceptance.check_pushforward(0)
    assert [(d.residual, d.passed) for d in docs] == [("10", False), ("10", False), ("1", False)]


def test_closed_forms_negative_control(monkeypatch):
    # criterion 5 with the sign of the (0, 0, +1) linear word flipped, the
    # (k 2D)(f x) word of {mu, mu} and of {a, a}, the only one there that
    # starts with a kernel: the closed forms no longer match the chain-rule
    # brackets.  murho and abrho are quotient_tensor at nu = 2 and 3.
    monkeypatch.setattr(coord_reduction, "quotient_tensor", flip_kernel_first_word(coord_reduction.quotient_tensor))
    docs = acceptance.check_closed_forms(0)
    assert [(d.params["tensor"], d.residual, d.passed) for d in docs] == [
        ("murho", "358", False),
        ("abrho", "8070975/48209", False),
    ]


def test_extended_toda_compat_negative_control(monkeypatch):
    # criterion 11 with the kernel of P2's last (0, 0) word, a linear word
    # (f b)(k -D^-1), doubled: P1 and P2 are no longer compatible.  Swapping
    # phi would not do: the quotient bracket is affine in phi, so any two of
    # its members span a pencil of members, and only a changed word is red.
    real = acceptance.closed_tensor

    def bumped(name, N, **kwargs):
        T = real(name, N, **kwargs)
        return double_last_diagonal_word(T) if name == "P2" else T

    monkeypatch.setattr(acceptance, "closed_tensor", bumped)
    (doc,) = acceptance.check_extended_toda_compat(0)
    assert (doc.residual, doc.passed) == ("1", False)
    # with P2 whole but its smallest entry dropped, the pencil is red too
    monkeypatch.setattr(acceptance, "closed_tensor", lambda name, N: drop_smallest_entry(real(name, N)) if name == "P2" else real(name, N))
    (doc,) = acceptance.check_extended_toda_compat(0)
    assert not doc.passed


def test_symbolic_rows_draw_no_field_point(monkeypatch, suite_docs):
    # criteria 11 and 12 and theorem:spectral at nu 2-3 certify every field
    # point at their N: they say so, name no points, and run with every
    # random_fields draw refused
    symbolic = [d for d in suite_docs if d.check.split(":")[0] in ("11_extended_toda_compat", "12_pencil_deformations")]
    assert len(symbolic) == 4
    assert all(d.params["certificate"] == "symbolic" and "points" not in d.params for d in symbolic)

    def refused(*args, **kwargs):
        raise AssertionError("a symbolic check drew a field point")

    for module in (coord_reduction, acceptance, gen_nu):
        monkeypatch.setattr(module, "random_fields", refused, raising=False)
    docs = acceptance.check_extended_toda_compat(SEED) + acceptance.check_pencil_deformations(SEED)
    assert [d.residual for d in docs] == ["0"] * 4
    for nu, N in ((2, 5), (3, 7)):
        rep = gen_nu.check_theorem(nu, N, seed=SEED)
        assert rep.all_pass()
        assert rep.spectral == {"verdict": "pass", "residual": "0", "note": "tensor-level shift", "certificate": "symbolic"}


def test_momentum_negative_control(monkeypatch):
    # criterion 3 with the momentum coefficient one too large at m - n = 1
    # mod N: {w_m, V_n} no longer matches c_{m-n} w_m V_n there
    real = exchange_algebra.momentum_formula_coeff

    def bumped(spec, m, n):
        return real(spec, m, n) + ((m - n) % spec.N == 1)

    monkeypatch.setattr(exchange_algebra, "momentum_formula_coeff", bumped)
    docs = acceptance.check_momentum(0)
    assert [(d.params["nu"], d.params["N"], d.residual, d.passed) for d in docs] == [
        (2, 5, "116/3", False),
        (2, 7, "968/7", False),
        (3, 5, "19946180/64893", False),
        (3, 7, "1005309/365", False),
    ]


def test_projective_negative_control(monkeypatch):
    # criterion 6 with R[1][nu], the (0, 1), (1, 0) entry, negated in the
    # closed form only: the chain-rule tables, built from the unchanged
    # spec, no longer match it.  A non-odd phi would not do, since the
    # projective bracket is phi-independent for every phi.
    real = acceptance.default_rc

    def flipped(nu):
        R, C = real(nu)
        R[1][nu] = -R[1][nu]
        return R, C

    monkeypatch.setattr(acceptance, "default_rc", flipped)
    docs = acceptance.check_projective(0)
    assert [(d.params["nu"], d.residual, d.passed) for d in docs] == [(2, "50", False), (3, "30", False)]


def test_integrator_drift_negative_control(monkeypatch):
    # criterion 14 with the fourth-order step swapped for a first-order
    # Euler step: the fine drift is far above 1e-8 and a 10x larger step
    # raises it only 10x, not the 1e4x of a fourth-order method
    def euler(vf, start, dt, steps, invariants):
        state = {name: list(vals) for name, vals in start.items()}
        inv0 = invariants(state)
        drift = [0.0] * len(inv0)
        for _ in range(steps):
            k = vf(state)
            state = {name: [x + dt * v for x, v in zip(state[name], k[name])] for name in state}
            drift = [max(d, abs(ic - i0) / max(abs(i0), 1e-30)) for d, i0, ic in zip(drift, inv0, invariants(state))]
        return [], {"steps": steps, "dt": dt, "max_relative_drift": drift}

    monkeypatch.setattr(acceptance, "integrate", euler)
    (doc,) = acceptance.check_integrator_drift(0)
    assert (doc.params["ratio"], doc.params["drift_fine"], doc.passed) == ("10.0", "3.874e-03", False)
