from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polypoisson import gen_nu
from polypoisson.cli import run_command
from polypoisson.coord_reduction import closed_tensor, field_gradients
from polypoisson.exchange_algebra import BracketSpec, _PiTable, random_polygon
from polypoisson.gen_nu import (
    _hat_ints,
    _numeric_casimir_residual,
    _w_alk_outer,
    casimir_coeffs,
    check_theorem,
    hat_consistency,
    quad_coeff,
)
from polypoisson.lattice_ops import (
    Kernel,
    OddKernel,
    PerSeq,
    _closed_ints,
    phi_special,
    random_odd_kernel,
    shift_kernel,
    sign,
)
from polypoisson.linalg import _int_pairings, _scaled
from test_lattice_ops import reference_convolve

F = Fraction


def reference_hats(nu, k, phi, N):
    """The four raw window sums as the literal double sums over (l, r), in Fractions."""
    width = N - 1
    ks = [l for l in range(nu + 1) if l != k]

    def delta(j):
        return 1 if j == 0 else 0

    def hat(j, ls, rs, e=1):
        acc = Fraction(0)
        for l in ls:
            acc += sign(j - e * l) - e * delta(j - e * l)
            for r in rs:
                acc += phi[j + e * (r - l)] + e * delta(j + e * (r - l))
        return acc

    js = range(-width, width + 1)
    return (
        {j: hat(j, range(nu), range(nu)) for j in js},
        {j: hat(j, ks, range(nu)) for j in js},
        {j: hat(j, ks, range(nu), e=-1) for j in js},
        {j: hat(j, ks, ks) + 2 * (1 <= j <= nu - k) for j in js},
    )


def hats(nu, k, phi):
    """The four raw window sums (ww, w_alk, alk_w, alk_alk) of ``_hat_ints``
    over |j| <= N - 1, as {j: Fraction}."""
    (p,), L = _scaled([phi.seq.values])
    got = _hat_ints(nu, k, p, L)
    assert all(type(x) is int for h in got for x in h.values())
    return tuple({j: F(x, L) for j, x in h.items()} for h in got)


def w_alk_minus_ww_closed(nu, k, phi):
    """(D^-nu - D^-k)(D-1)^-1 [(D^nu - 1) phi + (D^nu + 1) delta] from ``_closed_ints``."""
    (p,), L = _scaled([phi.seq.values])
    (ints,) = _closed_ints(nu, 0, p, L, _w_alk_outer(nu, k))
    return Kernel(PerSeq(len(p), tuple(F(x, L) for x in ints)))


def test_hats_equal_the_double_sum_reference():
    # the difference-count sums equal the literal double sums at every k,
    # for N = nu + 2, 2 nu + 1 and 2 nu + 2 (gcd(nu, N) > 1 among them), for
    # a random odd phi and for every phi^(k)
    rng = Random(6)
    specials = 0
    for nu in range(2, 7):
        for N in (nu + 2, 2 * nu + 1, 2 * nu + 2):
            odd = random_odd_kernel(N, rng)
            for k in range(nu):
                phis = [odd, phi_special(nu, k, N)]
                specials += 1
                for phi in phis:
                    assert hats(nu, k, phi) == reference_hats(nu, k, phi, N), (nu, N, k)
    assert specials == 60


def reference_closed(outer, s, nu, phi, N):
    """outer(D) [(D^nu - D^s) phi + (D^nu + D^s) delta] by dense Fraction convolutions."""
    inner = reference_convolve(shift_kernel({nu: 1, s: -1}, N), phi.seq)
    delta_part = shift_kernel({nu: 1, s: 1}, N).seq.values
    inner = PerSeq(N, tuple(x + y for x, y in zip(inner.values, delta_part)))
    return Kernel(reference_convolve(shift_kernel(outer, N), inner))


def w_alk_prefactor(nu, k):
    """(D^-nu - D^-k)(D-1)^-1 = -D^-nu (1 + D + ... + D^(nu-k-1))."""
    return {r - nu: -1 for r in range(nu - k)}


def reference_hat_consistency(nu, k, phi, N, w_alk_pref=None):
    """hat_consistency from the literal double sums and Fraction closed forms."""
    ww, w_alk, alk_w, alk_alk = reference_hats(nu, k, phi, N)
    diff = reference_closed(w_alk_pref or w_alk_prefactor(nu, k), 0, nu, phi, N)
    k00 = reference_closed({-nu: 1, 0: -1}, 0, nu, phi, N)
    lim = N - 1 - nu
    res = [w_alk[j] - ww[j] - diff[j] for j in range(-lim, lim + 1)]
    res += [2 * ww[j] - ww[j + 1] - ww[j - 1] - k00[j] for j in range(1 - lim, lim)]
    if k >= 1:
        quad = reference_closed({-nu: 1, -k: -1}, k, nu, phi, N)
        k0k = reference_closed({-nu: 1, -k: -1}, 0, nu, phi, N)
        res += [alk_alk[j] - w_alk[j] - alk_w[j] + ww[j] - quad[j] for j in range(-lim, lim + 1)]
        res += [(w_alk[j + 1] - ww[j + 1]) - (w_alk[j] - ww[j]) - k0k[j] for j in range(1 - lim, lim)]
    return max(map(abs, res), default=F(0))


@st.composite
def kernel_cases(draw):
    """(nu, k, phi, N): phi zero, sparse or dense, odd or not, N in nu + 2..2 nu + 4
    (even N and gcd(nu, N) > 1 among them), or phi^(k) where it exists."""
    nu = draw(st.integers(2, 5))
    k = draw(st.integers(0, nu - 1))
    N = draw(st.integers(nu + 2, 2 * nu + 4))
    shape = draw(st.sampled_from(["zero", "sparse", "dense", "odd", "special"]))
    coeff = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    vals = [F(0)] * N
    if shape == "sparse":
        for s in draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=2)):
            vals[s] = draw(coeff)
    elif shape == "dense":
        vals = draw(st.lists(coeff, min_size=N, max_size=N))
    elif shape == "odd":
        for j in range(1, (N + 1) // 2):
            vals[j] = draw(coeff)
            vals[N - j] = -vals[j]
    elif shape == "special":
        return nu, k, phi_special(nu, k, N), N
    return nu, k, Kernel(PerSeq(N, tuple(vals))), N


@given(kernel_cases())
@example((4, 0, phi_special(4, 0, 12), 12))
def test_kernel_identities_equal_fraction_reference(case):
    nu, k, phi, N = case

    def expect(outer, s):
        return reference_closed(outer, s, nu, phi, N).seq.values

    assert w_alk_minus_ww_closed(nu, k, phi).seq.values == expect(w_alk_prefactor(nu, k), 0)
    k00, k0k = casimir_coeffs(nu, phi, N)
    assert [K.seq.values for K in (k00, *k0k.values())] == [expect({-nu: 1, -j: -1}, 0) for j in range(nu)]
    if k >= 1:
        assert quad_coeff(nu, k, phi, N).seq.values == expect({-nu: 1, -k: -1}, k)
    assert hat_consistency(nu, k, phi, N) == reference_hat_consistency(nu, k, phi, N) == 0


def test_hat_consistency_negative_control(monkeypatch):
    # the w_alk - ww prefactor with its D^-nu coefficient -1 changed to -2, in
    # the int route (gen_nu._w_alk_outer) and in the Fraction reference alike:
    # both read the same nonzero residual, for an odd phi, a non-odd one and phi^(k)
    real = gen_nu._w_alk_outer

    def bumped(nu, k):
        return {**real(nu, k), -nu: -2}

    monkeypatch.setattr(gen_nu, "_w_alk_outer", bumped)
    rng = Random(9)
    for nu, k, N in ((2, 1, 7), (3, 0, 9), (4, 2, 11)):
        skew = Kernel(PerSeq(N, tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(N))))
        for phi in (random_odd_kernel(N, rng), skew, phi_special(nu, k, N)):
            res = gen_nu.hat_consistency(nu, k, phi, N)
            assert res == reference_hat_consistency(nu, k, phi, N, bumped(nu, k)) != 0, (nu, k, N)


def test_hat_consistency_builds_one_fraction(monkeypatch):
    phi = phi_special(5, 2, 11)
    real = Fraction.__new__
    made = []

    def spy(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    res = hat_consistency(5, 2, phi, 11)
    monkeypatch.undo()
    assert res == 0
    assert len(made) == 1


def test_ww_literal_sum_forms_agree():
    # the (sigma - 1)/(phi + 1) rewriting equals the raw three-sum form
    nu, N = 2, 7
    phi = random_odd_kernel(N, Random(0))
    ww = hats(nu, 0, phi)[0]

    def delta(j):
        return 1 if j == 0 else 0

    for j in range(-(N - 1), N):
        raw = F(0)
        for l in range(nu):
            raw += sign(j - l)
            for r in range(nu):
                raw += phi[j + r - l]
            for r in range(1, nu):
                raw += delta(j + r - l)
        assert ww[j] == raw


def test_hats_zero_phi_example():
    ww = hats(2, 0, Kernel(PerSeq.constant(5, 0)))[0]
    # deep negative offsets: the two (sigma - delta) terms are -1 each and
    # every delta in the (phi + delta) sums is off
    assert ww[-4] == -2
    assert ww[0] == (0 - 1) + (-1 - 0) + 2  # sigma terms minus deltas plus identity sums
    assert ww[4] == 2  # antisymmetric to ww[-4]... delta sums vanish there too


def test_hat_consistency_refuses_an_empty_window():
    # below N = nu + 2 the window |j| <= N - 1 - nu holds offset 0 at most, so
    # a residual 0 would certify nothing: at (3, 3) it was 0 for any phi
    rng = Random(4)
    for nu, N in ((2, 3), (3, 3), (3, 4)):
        for k in range(nu):
            for phi in (phi_special(nu, k, N), random_odd_kernel(N, rng)):
                with pytest.raises(ValueError, match=r"^the raw window sums need N >= nu \+ 2$"):
                    hat_consistency(nu, k, phi, N)
    assert hat_consistency(3, 1, phi_special(3, 1, 5), 5) == 0


def test_hat_consistency_random_phi():
    rng = Random(1)
    for nu, N in ((2, 7), (3, 9), (4, 11)):
        phi = random_odd_kernel(N, rng)
        for k in range(nu):
            assert hat_consistency(nu, k, phi, N) == 0


def test_w_alk_minus_ww_closed_matches_window():
    nu, k, N = 3, 1, 9
    phi = random_odd_kernel(N, Random(2))
    ww, w_alk, _, _ = hats(nu, k, phi)
    closed = w_alk_minus_ww_closed(nu, k, phi)
    for j in range(-(N - 1 - nu), N - nu):
        assert w_alk[j] - ww[j] == closed[j]


def test_quad_coeff_zero_phi():
    got = quad_coeff(2, 1, Kernel(PerSeq.constant(5, 0)), 5)
    assert got.seq.values == shift_kernel({-1: 1, 1: -1}, 5).seq.values


def test_quad_coeff_vanishes_for_special_phi():
    assert quad_coeff(2, 1, phi_special(2, 1, 5), 5).seq.values == (F(0),) * 5
    assert quad_coeff(5, 3, phi_special(5, 3, 7), 7).seq.values == (F(0),) * 7
    assert quad_coeff(3, 2, phi_special(3, 2, 11), 11).seq.values == (F(0),) * 11


def test_quad_coeff_rejects_k0():
    with pytest.raises(ValueError):
        quad_coeff(3, 0, Kernel(PerSeq.constant(5, 0)), 5)


@pytest.mark.parametrize("N", [7, 11])
@pytest.mark.parametrize("fn", ["hat_consistency", "quad_coeff", "casimir_coeffs"])
def test_kernel_identities_reject_phi_of_another_period(fn, N):
    # this period-9 phi with N = 7 once gave hat_consistency a false residual
    # 27/4, and with N = 11 an IndexError, while quad_coeff and
    # casimir_coeffs returned period-9 kernels
    phi = random_odd_kernel(9, Random(10))
    args = {"hat_consistency": (3, 1, phi, N), "quad_coeff": (3, 1, phi, N), "casimir_coeffs": (3, phi, N)}[fn]
    with pytest.raises(ValueError, match=f"^phi has period 9, not {N}$"):
        getattr(gen_nu, fn)(*args)


def test_every_phi_reader_names_the_two_periods():
    # BracketSpec and the three kernel identities share one period check
    phi = random_odd_kernel(9, Random(10))
    calls = (
        lambda: BracketSpec.standard(3, 7, phi),
        lambda: quad_coeff(3, 1, phi, 7),
        lambda: casimir_coeffs(3, phi, 7),
        lambda: hat_consistency(3, 1, phi, 7),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^phi has period 9, not 7$"):
            call()


def test_casimir_coeffs_zero_phi_example():
    k00, _ = casimir_coeffs(2, Kernel(PerSeq.constant(5, 0)), 5)
    assert k00.seq.values == shift_kernel({-2: 1, 2: -1}, 5).seq.values


def test_casimir_coeffs_vanish_for_phi0():
    for nu, N in ((2, 5), (3, 7), (4, 7)):
        k00, k0k = casimir_coeffs(nu, phi_special(nu, 0, N), N)
        assert k00.seq.values == (F(0),) * N
        assert all(K.seq.values == (F(0),) * N for K in k0k.values())


def test_check_theorem_small_orders():
    for nu, N in ((2, 7), (3, 5), (3, 7)):
        rep = check_theorem(nu, N, seed=0)
        assert rep.all_pass()
        assert all(c["verdict"] == "pass" for c in rep.cases)
        assert rep.casimir["verdict"] == "pass"
        assert rep.spectral["verdict"] == "pass"
        assert rep.spectral["certificate"] == "symbolic" and "points" not in rep.spectral
        assert rep.nu == nu and rep.N == N


@pytest.mark.parametrize("nu", [2, 3])
def test_check_theorem_spectral_negative_controls(monkeypatch, nu):
    real_quotient_tensor = gen_nu.quotient_tensor

    def dropped(order, phi):
        T = real_quotient_tensor(order, phi).to_poly()
        del T.entries[min(T.entries)]
        return T

    def quadratic(order, phi):
        # a phi other than phi^(k) leaves the bracket quadratic in a^(k)
        return real_quotient_tensor(order, random_odd_kernel(phi.N, Random(3)))

    for control, residual in ((dropped, None), (quadratic, "1")):
        monkeypatch.setattr(gen_nu, "quotient_tensor", control)
        rep = check_theorem(nu, 7, seed=0)
        assert rep.spectral["verdict"] == "fail"
        assert residual in (None, rep.spectral["residual"])
        assert all(c["verdict"] == "pass" for c in rep.cases)
        assert rep.casimir["verdict"] == "pass"


def test_check_theorem_order4():
    rep = check_theorem(4, 9, seed=0)
    assert rep.all_pass()
    assert len(rep.cases) == 3
    assert all(c["verdict"] == "pass" for c in rep.cases)
    # above nu = 3 the tensor sweep is not run, and the row says so
    assert rep.spectral == {
        "verdict": "skipped",
        "note": "not run above nu = 3: the tensor sweep costs several times the rest of the check",
    }


def test_check_theorem_has_no_skip_branch_for_phi(monkeypatch, capsys):
    # phi^(k) has a closed form for every (nu, k, N >= 3) (see phi_special), so
    # an error from it is an error of check_theorem and of the theorem verb,
    # never a skipped row
    real = gen_nu.phi_special

    def unsolvable(nu, k, N):
        if k >= 1:
            raise ValueError("no odd periodic kernel satisfies the equation")
        return real(nu, k, N)

    monkeypatch.setattr(gen_nu, "phi_special", unsolvable)
    with pytest.raises(ValueError, match="no odd periodic kernel"):
        check_theorem(2, 7, seed=0)
    assert run_command(["theorem", "--nu", "2", "--N", "7"]) == 2
    assert capsys.readouterr().err == "error: no odd periodic kernel satisfies the equation\n"


def test_check_theorem_order6():
    rep = check_theorem(6, 7, seed=0)
    assert rep.all_pass()
    assert all(c["verdict"] == "pass" for c in rep.cases)
    assert rep.casimir["verdict"] == "pass"
    assert rep.casimir["numeric_residual"] == "0"


def test_numeric_casimir_residual_negative_control():
    # an odd phi other than phi^(0) leaves {a^(0), a^(j)} nonzero; the exact
    # residuals were computed by the Fraction chain rule before the int one
    phi = random_odd_kernel(7, Random(5))
    want = {2: F(65455, 528), 3: F(672382995393357, 2819809817816), 4: F(128193821545914018, 328525399108445)}
    for nu, residual in want.items():
        got = _numeric_casimir_residual(nu, 7, phi, 1, 0)
        assert type(got) is Fraction and got == residual
        assert _numeric_casimir_residual(nu, 7, phi_special(nu, 0, 7), 1, 0) == 0


def dense_casimir_residual(nu, N, phi, polygons, seed):
    """Reference: every field gradient built densely and paired against every a^(0) gradient."""
    rng = Random(seed)
    spec = BracketSpec.standard(nu, N, phi)
    res = F(0)
    for _ in range(polygons):
        W = random_polygon(nu, N, rng)
        grads = field_gradients(W, [f"a{j}" for j in range(nu)])
        pi = _PiTable(spec, W.coordinates())
        for (_, df), row in zip(grads, _int_pairings(grads[:N], pi.ints, grads)):
            res = max([res] + [F(abs(a), df * dg * pi.L * pi.den**2) for (_, dg), a in zip(grads, row) if a])
    return res


def test_numeric_casimir_residual_matches_dense_pairing():
    # pairing a^(0) against each site's nu covectors H_n[a] and mixing by K_n
    # gives the dense pairing's exact residual: 0 at phi^(0) for coprime
    # (nu, N), the obstruction where gcd(nu, N) > 1, and at a random odd phi
    for nu, N in ((2, 7), (3, 7), (4, 7), (4, 9), (5, 11), (3, 6), (4, 8), (6, 12)):
        phi0 = phi_special(nu, 0, N)
        want = dense_casimir_residual(nu, N, phi0, 2, 1)
        assert (want != 0) == (gcd(nu, N) > 1), (nu, N)
        assert _numeric_casimir_residual(nu, N, phi0, 2, 1) == want, (nu, N)
    phi = random_odd_kernel(9, Random(8))
    want = dense_casimir_residual(4, 9, phi, 2, 3)
    assert want != 0 and _numeric_casimir_residual(4, 9, phi, 2, 3) == want


def test_casimir_obstruction_is_2g_over_N_on_a_grid():
    # the casimir_coeffs kernels at phi^(0): all zero when g = gcd(nu, N) = 1;
    # otherwise each is g-periodic and the largest |E_0k| is exactly 2 g / N,
    # the size the check_theorem note gives
    for nu in range(2, 9):
        for N in range(3, 25):
            g = gcd(nu, N)
            k00, k0k = casimir_coeffs(nu, phi_special(nu, 0, N), N)
            kernels = [k00, *k0k.values()]
            if g == 1:
                assert all(v == 0 for K in kernels for v in K.seq.values), (nu, N)
                continue
            assert all(K[m + g] == K[m] for K in kernels for m in range(N)), (nu, N)
            assert max(K.seq.max_abs() for K in kernels) == F(2 * g, N), (nu, N)


def test_check_theorem_noncoprime_reports_casimir_obstruction():
    # gcd(3, 9) = 3: the leading field genuinely fails to be a Casimir and
    # the defect has the exact shift-invariant size 2 gcd / N
    rep = check_theorem(3, 9, seed=0)
    assert rep.casimir["verdict"] == "fail"
    assert rep.casimir["residual"] == "2/3"
    assert "obstruction" in rep.casimir["note"]
    assert all(c["verdict"] == "pass" for c in rep.cases)


def test_check_theorem_short_period():
    # N < nu: kernel-level checks still run, polygon sampling is skipped
    rep = check_theorem(5, 4, seed=0)
    assert rep.all_pass()
    assert rep.casimir["numeric_residual"].startswith("skipped")


def test_check_theorem_linearity_note_says_when_window_sums_are_skipped():
    # hat_consistency needs N >= nu + 2; below it each linearity row says so
    note = "raw window sums not compared: needs N >= nu + 2"
    for nu, N in ((6, 7), (5, 4)):
        assert [c["note"] for c in check_theorem(nu, N, seed=0).cases] == [note] * (nu - 1), (nu, N)
    assert [c["note"] for c in check_theorem(4, 9, seed=0).cases] == [""] * 3


def test_hats_dataclass_combination():
    nu, k, N = 2, 1, 7
    phi = phi_special(2, 1, N)
    ww, w_alk, alk_w, alk_alk = hats(nu, k, phi)
    closed = quad_coeff(nu, k, phi, N)
    # alk_alk - w_alk - alk_w + ww: the a^(k) a^(k) coefficient
    for j in range(-(N - 1 - nu), N - nu):
        assert alk_alk[j] - w_alk[j] - alk_w[j] + ww[j] == closed[j]
