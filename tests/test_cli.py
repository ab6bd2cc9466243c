"""Command-line surface: outputs, exit codes, determinism."""

import json

import pytest

from omfree.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_weights_e7(capsys):
    code, out = run(capsys, "weights", "E7")
    assert code == 0
    assert out.strip() == "4 6 10 12 14 16 18 22 24 30"


def test_table_b3(capsys):
    code, out = run(capsys, "table", "B3")
    assert code == 0
    assert out.strip() == "(0,1) (2,1) (4,1) (6,1)"


def test_table_a1(capsys):
    code, out = run(capsys, "table", "A1")
    assert out.strip() == "(0,1) (2,1)"


def test_weights_json_has_config(capsys):
    code, out = run(capsys, "weights", "E7", "--json")
    payload = json.loads(out)
    assert payload["weights"] == [4, 6, 10, 12, 14, 16, 18, 22, 24, 30]
    assert payload["config"]["system"] == "E7"
    assert "tool_version" in payload["config"]


def test_json_output_is_deterministic(capsys):
    _, out1 = run(capsys, "hilbert", "A1", "--order", "20", "--json")
    _, out2 = run(capsys, "hilbert", "A1", "--order", "20", "--json")
    assert out1 == out2


def test_bound(capsys):
    code, out = run(capsys, "bound", "C8", "-k", "14")
    assert code == 0
    assert out.strip() == "6"


def test_identity_check(capsys):
    code, out = run(capsys, "identity-check", "A1", "--order", "40")
    assert code == 0
    assert out.strip() == "equal"


def test_hurwitz_check(capsys):
    code, out = run(capsys, "hurwitz-check", "--max", "40")
    assert code == 0
    assert out.strip() == "40/40 agree"


def test_unknown_system_is_usage_error(capsys):
    code = main(["weights", "E9"])
    assert code == 64


def test_e8_is_usage_error(capsys):
    code = main(["weights", "E8"])
    assert code == 64


def test_eisenstein_dump(capsys):
    code, out = run(capsys, "eisenstein", "E7", "-k", "4", "--prec", "4", "--json")
    payload = json.loads(out)
    comps = payload["form"]["components"]
    assert comps[0]["terms"][0] == [0, 1, 1, 1]


def test_pullback_dump(capsys):
    code, out = run(capsys, "pullback", "D8", "-k", "4", "--nq", "2", "--json")
    payload = json.loads(out)
    assert payload["jacobi_form"]["index"] == 24
    assert payload["jacobi_form"]["coefficients"]["0,0"] == [1, 1]
    assert payload["config"]["vector_norm"] == "24"


def test_pullback_custom_vector(capsys):
    code, out = run(capsys, "pullback", "E6", "-k", "4", "--vector", "1,0,0,0,0,0", "--nq", "2", "--json")
    payload = json.loads(out)
    assert payload["jacobi_form"]["index"] == 1
    assert payload["config"]["vector_norm"] == "1"


def test_pullback_vector_with_leading_minus(capsys):
    # a separate value starting with '-' must not be read as an option
    code, out = run(capsys, "pullback", "D8", "-k", "8", "--vector", "-2,1,0,0,0,0,0,0", "--nq", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["vector"] == [-2, 1, 0, 0, 0, 0, 0, 0]
    assert payload["jacobi_form"]["index"] == 7


def test_lift_dump_keys(capsys):
    code, out = run(capsys, "lift", "E7", "-k", "4", "--nq", "2", "--nxi", "2", "--json")
    payload = json.loads(out)
    coeffs = payload["paramodular_form"]["coefficients"]
    assert "0,0,0" in coeffs
    assert payload["paramodular_form"]["level"] == 12


def test_verify_e14_small(capsys):
    code, out = run(capsys, "verify-e14", "--nq", "2", "--nxi", "2")
    assert code == 0
    assert "1330560 2640 -11088" in out


def test_certify_small(capsys):
    code, out = run(capsys, "certify", "D8", "--wmax", "8", "--nq", "2", "--nxi", "2")
    assert code == 0
    assert "weight 8: rank 3 vs bound 3 -> ok" in out


@pytest.mark.parametrize("flag", ["--nq", "--nxi"])
def test_certify_precision_flags_come_in_pairs(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "D8", "--wmax", "4", flag, "2"])
    assert exc.value.code == 2
    other = "--nxi" if flag == "--nq" else "--nq"
    assert f"{flag} requires {other}" in capsys.readouterr().err


@pytest.mark.parametrize("nq,nxi,flag", [("0", "0", "--nq"), ("2", "0", "--nxi"), ("-1", "2", "--nq")])
def test_certify_precision_below_one_is_usage_error(capsys, nq, nxi, flag):
    # certify also exits 2 on an inconclusive result, so the message tells the two apart
    with pytest.raises(SystemExit) as exc:
        main(["certify", "D8", "--wmax", "4", "--nq", nq, "--nxi", nxi, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"{flag} must be at least 1" in captured.err
    assert "usage:" in captured.err
    assert captured.out == ""


def test_output_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "weights.json"
    code = main(["weights", "E6", "--json", "--output", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["weights"] == [4, 6, 7, 10, 12, 15, 16, 18, 24]


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMFREE_OUTDIR", str(tmp_path))
    code = main(["weights", "E6", "--output", "w.txt"])
    assert code == 0
    assert (tmp_path / "w.txt").read_text().strip() == "4 6 7 10 12 15 16 18 24"


def test_certify_json_deterministic(capsys):
    _, out1 = run(capsys, "certify", "D8", "--wmax", "6", "--nq", "2", "--nxi", "2", "--json")
    _, out2 = run(capsys, "certify", "D8", "--wmax", "6", "--nq", "2", "--nxi", "2", "--json")
    assert out1 == out2
