import hashlib
import json

import pytest

from polypoisson import cli
from polypoisson.acceptance import ReportDoc
from polypoisson.cli import emit_report, run_command


def test_verify_ybe_exit_zero(capsys):
    assert run_command(["verify-ybe", "--nu", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "residual=0" in out


def test_unknown_verb_is_usage_error(capsys):
    assert run_command(["frobnicate"]) == 2


def test_bad_period_is_usage_error(capsys):
    assert run_command(["verify-w", "--N", "2"]) == 2


def test_phi_prints_kernel(capsys):
    assert run_command(["phi", "--nu", "2", "--k", "1", "--N", "5"]) == 0
    out = capsys.readouterr().out
    assert "(0, -3/5, -1/5, 1/5, 3/5)" in out


def test_verify_w_all_checks(capsys):
    assert run_command(["verify-w", "--nu", "2", "--N", "5", "--phi", "random", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    for check in ("antisymmetry", "jacobi", "momentum", "quasiperiodicity"):
        assert f"verify-w:{check}" in out


def test_verify_w_jacobi_reports_its_trials(capsys):
    assert run_command(["verify-w", "--nu", "2", "--N", "5", "--check", "jacobi", "--trials", "3", "--format", "json"]) == 0
    (doc,) = json.loads(capsys.readouterr().out)
    assert doc["check"] == "verify-w:jacobi" and doc["params"]["trials"] == 3
    assert run_command(["verify-w", "--nu", "2", "--N", "5", "--check", "momentum", "--format", "json"]) == 0
    assert "trials" not in json.loads(capsys.readouterr().out)[0]["params"]


def test_derive_writes_tensor_json(tmp_path, capsys):
    out = tmp_path / "toda.json"
    assert run_command(["derive", "--name", "toda", "--N", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["form"] == "op" and doc["N"] == 5
    assert doc["bracket_scale"] == "1/2"
    out2 = tmp_path / "murho.json"
    assert run_command(["derive", "--name", "murho", "--nu", "2", "--k", "1", "--N", "5", "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["form"] == "poly" and doc2["bracket_scale"] == "1"


def test_derive_without_out_reports_no_file(capsys):
    # with no --out the tensor is built and written nowhere, so the report
    # names no out; stdout stays one JSON document
    assert run_command(["derive", "--name", "toda", "--N", "5", "--format", "json"]) == 0
    (doc,) = json.loads(capsys.readouterr().out)
    assert doc["check"] == "derive:toda" and doc["params"] == {"N": 5} and doc["passed"]
    assert run_command(["derive", "--name", "toda", "--N", "5"]) == 0
    assert "out=" not in capsys.readouterr().out


def test_reduce_dirac_and_pushforward(capsys):
    assert run_command(["reduce-dirac", "--N", "5", "--beta", "random", "--trials", "3"]) == 0
    assert run_command(["pushforward", "--N", "7", "--trials", "3"]) == 0


def test_theorem_report_json(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run_command(["theorem", "--nu", "3", "--N", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["nu"] == 3 and len(doc["cases"]) == 2
    assert all(c["verdict"] == "pass" for c in doc["cases"])


def test_theorem_casimir_params_say_why(capsys):
    # gcd(nu, N) > 1: the failure carries the documented obstruction and the
    # sampled residual next to the kernel-level one; exit 1 is kept
    assert run_command(["theorem", "--nu", "2", "--N", "4", "--format", "json"]) == 1
    (doc,) = [d for d in json.loads(capsys.readouterr().out) if d["check"] == "theorem:casimir"]
    assert doc["params"]["note"].startswith("known obstruction: gcd(nu, N) = 2 > 1")
    assert doc["params"]["numeric_residual"] == "432/5" and not doc["passed"]
    assert run_command(["theorem", "--nu", "3", "--N", "7", "--format", "json"]) == 0
    (doc,) = [d for d in json.loads(capsys.readouterr().out) if d["check"] == "theorem:casimir"]
    assert doc["params"] == {"N": 7, "numeric_residual": "0", "nu": 3, "polygons": 2}


# sha256 of the `theorem --nu nu --N N --out` files.  (2, 5) and (3, 7)
# certify the quotient tensors symbolically in their spectral check; at (4, 9),
# (5, 11) and (6, 12) the spectral row is skipped, with a note saying why.
# Every casimir row names the number of polygons it sampled.  A deliberate
# change to the theorem report must update these pins and say so.
THEOREM_2_5_SHA256 = "6bd0cb9226594c3bb5e1886d6d44442f40052fc1691e34fb670cc4b7bd3fe87c"
THEOREM_3_7_SHA256 = "e892e8d9b7bf4659b8f3cb1c728eb6da528e52526f29611cfcd69d38a1effffa"
THEOREM_4_9_SHA256 = "7d4f86b670c2ca071f1fddf42b857b5f6ce7dcf5ffc658852e6b7b8bcf801f0c"
THEOREM_5_11_SHA256 = "7dc98c8408855b3dd2b6c4564aa7c23f09149a529938928530702f87b32663e1"
# (6, 12) fails: gcd(6, 12) > 1 leaves the Casimir kernel residual 1 and a
# nonzero numeric residual, so the kernel identities run on nonzero values
THEOREM_6_12_SHA256 = "423af06cddd870b6bde0926769179fa6fb757ffb5f95909777f8275407735ffa"


def _theorem_out_sha256(tmp_path, nu: int, N: int, code: int = 0) -> str:
    out = tmp_path / f"theorem_{nu}_{N}.json"
    assert run_command(["theorem", "--nu", str(nu), "--N", str(N), "--out", str(out)]) == code
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_theorem_out_is_byte_stable(tmp_path, capsys):
    assert _theorem_out_sha256(tmp_path, 4, 9) == THEOREM_4_9_SHA256


def test_theorem_5_11_out_is_byte_stable(tmp_path, capsys):
    assert _theorem_out_sha256(tmp_path, 5, 11) == THEOREM_5_11_SHA256


def test_failing_theorem_6_12_out_is_byte_stable(tmp_path, capsys):
    assert _theorem_out_sha256(tmp_path, 6, 12, code=1) == THEOREM_6_12_SHA256


@pytest.mark.parametrize(
    "nu, N, digest", [(2, 5, THEOREM_2_5_SHA256), (3, 7, THEOREM_3_7_SHA256)], ids=("nu2-N5", "nu3-N7")
)
def test_theorem_out_with_closed_tensor_is_byte_stable(nu, N, digest, tmp_path, capsys):
    assert _theorem_out_sha256(tmp_path, nu, N) == digest


# sha256 of the `derive --name ... --N 5 --out` files (P0 at N = 7): murho
# and abrho are written expanded ("poly" form), the closed forms as words
# ("op" form).  A deliberate change to either wire format must update these
# pins and say so.
DERIVE_SHA256 = {
    "murho": (["--nu", "2", "--k", "1"], "62ba6ddf9b4cf9cb4ed619ed95d872a07d1945a5f62330e3facc60ff8e213f80"),
    "abrho": (["--nu", "3", "--k", "1"], "fded14e45838ed5332c2d9418790666354c34624a76ed25281cf1bb51d3e575f"),
    "toda": ([], "8ca72f19f4b46d3e2c39c5235753ddec4cd09a30915c57701db1e96faecd8cf4"),
    "ftv_u": ([], "3c3287c2e39822bb84ee2f893d59bc445282ba705ad2c6d4aee6e10d5b81479d"),
    "ftv_S": ([], "5efa66c8e928887f829f1fc2dbd18ca6b48a5640d95747496c1af630cfb72d3d"),
    "P1": ([], "6c763145dbb6cb1d4eb74aa1b804f877e142b18656afd0fb8c1c67e12fe2f1a1"),
    "P2": ([], "a41b9cf9ef7022348a8ed3f8669c17803932371a880b5d9d2aa9df126d6f6fc6"),
    "P0": (["--N", "7"], "6ed41806bb1275b3103ea9da872d769ee124bafba8b15d6fbf9131fe9102b82b"),
}


@pytest.mark.parametrize("name", list(DERIVE_SHA256))
def test_derive_out_is_byte_stable(name, tmp_path, capsys):
    extra, digest = DERIVE_SHA256[name]
    out = tmp_path / f"{name}.json"
    assert run_command(["derive", "--name", name, "--N", "5", *extra, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the `--format json --seed 0` report of each verb that has no
# other pin.  A deliberate change to one of these reports must update its
# pin and say so.
VERB_REPORT_SHA256 = {
    "verify-ybe": (["verify-ybe", "--nu", "3"], "b0dda06b4025118c6e1abd9a843b17b11b70deb9e7f12e3df0fffb9a2da3feda"),
    "verify-w-nu2": (
        ["verify-w", "--nu", "2", "--N", "7", "--phi", "random"],
        "1066aebf8c9db9375bdbce835bac99cc03223ad99561c526807b3a360c58eb5e",
    ),
    "verify-w-nu3": (["verify-w", "--nu", "3", "--N", "7"], "da02ba79e4a7ac98779c6e66908381fa2c5c1aae9d77601d4e5e42a9978e0560"),
    "reduce-dirac": (
        ["reduce-dirac", "--N", "5", "--beta", "random"],
        "73d67c46f3183a67df53a5de686082b5b351bfb0b989a0d8fbf049bcf09322f6",
    ),
    "pushforward": (["pushforward", "--N", "7"], "e038bdb97d56549c91830a4aea7a656bf4de8465faf83704f23d43e99e9e5e2b"),
    "compat": (["compat", "--N", "5"], "0d89544a7026b3f8a4f3279df92c1143aa9aa7ee0693d4d0342737ce356ea8ae"),
    "flow": (["flow"], "2e69c02f0df88b2b475751ca3e8ac2b60dda17bc61a983f576dce6bb0d79bce2"),
}


@pytest.mark.parametrize("case", list(VERB_REPORT_SHA256))
def test_verb_report_is_byte_stable(case, capsys):
    argv, digest = VERB_REPORT_SHA256[case]
    assert run_command([*argv, "--format", "json", "--seed", "0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_derive_op_form_for_word_tensor(tmp_path, capsys):
    out = tmp_path / "ftv_S.json"
    assert run_command(["derive", "--name", "ftv_S", "--N", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["form"] == "op" and doc["fields"] == ["S"]


def test_flow_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert run_command(["flow", "--steps", "10", "--dt", "0.001", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,field,site,value"
    assert len(lines) == 1 + 11 * 2 * 3  # 11 snapshots x 2 fields x 3 sites
    drift = json.loads((tmp_path / "traj.csv.drift.json").read_text())
    assert drift["steps"] == 10


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--steps", "0"],
        ["flow", "--steps", "-3"],
        ["flow", "--dt", "0", "--steps", "10"],
        ["pushforward", "--trials", "0"],
    ],
)
def test_vacuous_flow_is_usage_error(argv, capsys):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and "PASS" not in captured.out


def _seq_file(tmp_path, doc):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(doc))
    return f"file:{path}"


PERIOD_7_PHI = {"N": 7, "values": ["0", "1", "-1", "2", "-2", "1", "-1"]}
PERIOD_7_BETA = {"N": 7, "values": ["1"] * 7}
ZERO_BETA = {"N": 5, "values": ["1", "2", "0", "1", "1"]}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["derive", "--name", "murho", "--N", "5", "--phi"], PERIOD_7_PHI, "period 7, not --N 5"),
        (["reduce-dirac", "--N", "5", "--beta"], PERIOD_7_BETA, "period 7, not --N 5"),
        (["derive", "--name", "ftv_u", "--N", "5", "--beta"], PERIOD_7_BETA, "period 7, not --N 5"),
        (["reduce-dirac", "--N", "5", "--beta"], ZERO_BETA, "nonvanishing"),
        (["derive", "--name", "murho", "--N", "5", "--phi"], {"foo": 1}, "malformed"),
        (["reduce-dirac", "--N", "5", "--beta"], [1, 2], "malformed"),
    ],
)
def test_bad_sequence_file_is_usage_error(argv, doc, message, tmp_path, capsys):
    assert run_command(argv + [_seq_file(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "PASS" not in captured.out


# a period that is not a JSON integer, or a JSON boolean as a value, is no
# sequence document; read as ints, they and these values (a true in place of
# the second) would make a valid odd phi and beta
PHI_VALUES, BETA_VALUES = ["0", "1", "2/3", "-2/3", "-1"], ["1", "1", "2", "1/3", "1"]
SEQ_FLAGS = (["verify-w", "--N", "5", "--phi"], PHI_VALUES), (["reduce-dirac", "--N", "5", "--beta"], BETA_VALUES)


@pytest.mark.parametrize("argv, values", SEQ_FLAGS, ids=["phi", "beta"])
@pytest.mark.parametrize("period, true_value", [(5.7, False), ("5", False), (5, True)], ids=["N=5.7", "N='5'", "true"])
def test_a_sequence_file_that_is_not_strict_json_is_usage_error(argv, values, period, true_value, tmp_path, capsys):
    doc = {"N": period, "values": values[:1] + [True] + values[2:] if true_value else values}
    assert run_command(argv + [_seq_file(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed sequence document") and len(captured.err.splitlines()) == 1
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv, values", SEQ_FLAGS, ids=["phi", "beta"])
def test_a_sequence_file_of_p_q_strings_is_read(argv, values, tmp_path, capsys):
    assert run_command(argv + [_seq_file(tmp_path, {"N": 5, "values": values})]) == 0
    assert "FAIL" not in capsys.readouterr().out


ZERO_DENOMINATOR = {"N": 5, "values": ["0", "1", "1/0", "-1", "1"]}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-w", "--N", "5", "--phi"],
        ["derive", "--name", "murho", "--N", "5", "--phi"],
        ["reduce-dirac", "--N", "5", "--beta"],
    ],
)
def test_zero_denominator_in_a_sequence_file_is_usage_error(argv, tmp_path, capsys):
    assert run_command(argv + [_seq_file(tmp_path, ZERO_DENOMINATOR)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "zero denominator" in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out


def test_compat_certifies_the_requested_period(capsys):
    assert run_command(["compat", "--N", "7", "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [d["params"]["N"] for d in docs] == [7]


def test_compat_even_period_is_singular(capsys):
    # the Cayley kernel (1 + D)^-1 of P2 does not exist at even N
    assert run_command(["compat", "--N", "4"]) == 2
    captured = capsys.readouterr()
    assert "singular" in captured.err and "PASS" not in captured.out


def test_singular_operator_reports_its_nullity(capsys):
    # 1 + D + D^2 (the geometric kernel of P0) kills both cube roots of unity
    assert run_command(["derive", "--name", "P0", "--N", "3"]) == 2
    captured = capsys.readouterr()
    assert "nullspace dimension 2" in captured.err and "PASS" not in captured.out


def test_report_determinism(capsys):
    run_command(["reduce-dirac", "--N", "5", "--seed", "42", "--format", "json"])
    first = capsys.readouterr().out
    run_command(["reduce-dirac", "--N", "5", "--seed", "42", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    run_command(["reduce-dirac", "--N", "5", "--seed", "43", "--format", "json"])
    other = capsys.readouterr().out
    assert other != first  # params identical but sampled points differ


def test_emit_report_formats():
    docs = [
        ReportDoc("demo", {"N": 5}, "0", True, 0, 0.01),
        ReportDoc("demo2", {"N": 5}, "1/3", False, 0, 0.02),
    ]
    js = emit_report(docs, "json")
    parsed = json.loads(js)
    assert parsed[1]["residual"] == "1/3" and parsed[1]["passed"] is False
    assert "elapsed" not in json.dumps(parsed)  # timing kept out of stable formats
    csv_text = emit_report(docs, "csv")
    assert csv_text.splitlines()[0] == "check,params,residual,passed,seed"
    text = emit_report(docs, "text")
    assert "[FAIL] demo2" in text
    with pytest.raises(ValueError):
        emit_report(docs, "yaml")


def test_empty_report_is_valid_json():
    assert json.loads(emit_report([], "json")) == []


def test_failing_check_propagates_exit_code(monkeypatch, capsys):
    def fake(cfg):
        return [ReportDoc("forced", {}, "1", False, cfg.seed, 0.0)]

    monkeypatch.setitem(cli._DISPATCH, "verify-ybe", fake)
    assert run_command(["verify-ybe"]) == 1
