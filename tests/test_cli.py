"""Command-line surface: outputs, exit codes, determinism."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omfree import cli, weil
from omfree.classical import ScalarForm
from omfree.cli import main
from omfree.qseries import QSeries


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


def test_mathematical_failure_exits_65(capsys, monkeypatch):
    real = weil.gamma0_2_eisenstein_basis

    def perturbed(k, prec):
        *rest, last = real(k, prec)
        bumped = last.series + QSeries.monomial(1, 1, last.series.truncation)
        return rest + [ScalarForm(last.weight, last.level, bumped)]

    monkeypatch.setattr(weil, "gamma0_2_eisenstein_basis", perturbed)
    assert main(["eisenstein", "D8", "-k", "8"]) == 65
    assert "not in the span of the level-2 Eisenstein basis" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["pullback", "lift"])
@pytest.mark.parametrize(
    "vector",
    [
        ("--vector=",),
        ("--vector", ""),
        ("--vector=4,2,3,4,,1,3,2,4",),
        ("--vector", ",4,2,3,4,1,3,2,4"),
        ("--vector=4,2,3,4,1,3,2,4,",),
    ],
)
def test_empty_vector_is_usage_error(capsys, command, vector):
    # an empty --vector is rejected, not read as "take the case vector", and so
    # is an empty field, not dropped from the vector
    code = main([command, "D8", "-k", "8", *vector, "--nq", "2"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    text = vector[-1].removeprefix("--vector=")
    if text:
        assert captured.err == f"error: --vector {text!r} has an empty field\n"
    else:
        assert captured.err == "error: --vector is empty; omit it to take the case vector\n"


@pytest.mark.parametrize("command", ["pullback", "lift"])
@pytest.mark.parametrize("field", ["x", "3.5"])
def test_non_integer_vector_field_is_usage_error(capsys, command, field):
    text = f"4,2,{field},4,1,3,2,4"
    code = main([command, "D8", "-k", "8", f"--vector={text}", "--nq", "2"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err == f"error: --vector {text!r} has a field that is not an integer: {field!r}\n"


@pytest.mark.parametrize("text", ["4,2,3,4,1,3,2,4", "4 2 3 4 1 3 2 4", "4, 2, 3, 4, 1, 3, 2, 4"])
def test_vector_separators(capsys, text):
    code, out = run(capsys, "pullback", "D8", "-k", "8", "--vector", text, "--nq", "2", "--json")
    assert code == 0
    assert json.loads(out)["config"]["vector"] == [4, 2, 3, 4, 1, 3, 2, 4]


def test_lift_along_a_root_is_siegel_e4(capsys):
    # along a root Q(v) = 1, so the lift of E_{4,1} is a Siegel modular form of
    # degree 2: the Maass lift of E_{4,1}, which is the Siegel Eisenstein series
    # E4 (Eichler and Zagier, section 6) over its constant term 240; the values
    # are E4's classical coefficients at the forms [n, r/2; r/2, M]
    argv = ("lift", "E7", "-k", "4", "--vector", "1,0,0,0,0,0,0", "--nq", "1", "--nxi", "1", "--json")
    code, out = run(capsys, *argv)
    assert code == 0
    form = json.loads(out)["paramodular_form"]
    assert (form["weight"], form["level"]) == (4, 1)
    scaled = {key: 240 * Fraction(num, den) for key, (num, den) in form["coefficients"].items()}
    assert scaled == {
        "0,0,0": 1,
        "1,0,0": 240,
        "0,0,1": 240,
        "1,0,1": 30240,
        "1,1,1": 13440,
        "1,-1,1": 13440,
        "1,2,1": 240,
        "1,-2,1": 240,
    }


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
    assert exc.value.code == 64
    other = "--nxi" if flag == "--nq" else "--nq"
    assert f"{flag} requires {other}" in capsys.readouterr().err


@pytest.mark.parametrize("nq,nxi,flag", [("0", "0", "--nq"), ("2", "0", "--nxi"), ("-1", "2", "--nq")])
def test_certify_precision_below_one_is_usage_error(capsys, nq, nxi, flag):
    # a usage error exits 64; certify exits 2 only on an inconclusive result
    with pytest.raises(SystemExit) as exc:
        main(["certify", "D8", "--wmax", "4", "--nq", nq, "--nxi", nxi, "--json"])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert f"{flag} must be at least 1" in captured.err
    assert "usage:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["pullback", "D8", "-k", "8", "--nq", "-1", "--json"], "--nq"),
        (["pullback", "D8", "-k", "8", "--nq", "0"], "--nq"),
        (["lift", "D8", "-k", "8", "--nq", "-1", "--nxi", "2"], "--nq"),
        (["lift", "D8", "-k", "8", "--nxi", "0"], "--nxi"),
        (["verify-e14", "--nq", "0", "--nxi", "2"], "--nq"),
        (["verify-e14", "--nq", "2", "--nxi", "0", "--json"], "--nxi"),
        (["eisenstein", "D8", "-k", "8", "--prec", "-1"], "--prec"),
        (["eisenstein", "E6", "-k", "8", "--prec", "0"], "--prec"),
        (["eisenstein", "E7", "-k", "8", "--prec", "0", "--json"], "--prec"),
        # a bound below one would check no class number and still report agreement
        (["hurwitz-check", "--max", "-3"], "--max"),
        (["hurwitz-check", "--max", "0", "--json"], "--max"),
    ],
)
def test_precision_below_one_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert f"{flag} must be at least 1" in captured.err
    assert "usage:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["hilbert", "A1", "--order", "-1"], "--order"),
        (["identity-check", "A1", "--order", "-1"], "--order"),
        (["certify", "D8", "--wmax", "-1", "--json"], "--wmax"),
    ],
)
def test_negative_order_or_wmax_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert f"{flag} must be at least 0" in captured.err
    assert "usage:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["certify", "A1"], "invalid choice: 'A1'"),
        (["certify", "D8", "--wmax", "x"], "invalid int value: 'x'"),
        (["weights", "E6", "--colour"], "unrecognized arguments: --colour"),
    ],
)
def test_argparse_errors_exit_64(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert message in captured.err
    assert "usage:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["certify", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_output_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "weights.json"
    code = main(["weights", "E6", "--json", "--output", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["weights"] == [4, 6, 7, 10, 12, 15, 16, 18, 24]


def test_output_file_unwritable_is_rejected_input(tmp_path, capsys):
    # a missing parent directory is a usage error, not a verification mismatch
    target = tmp_path / "missing" / "weights.json"
    code = main(["weights", "E6", "--json", "--output", str(target)])
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMFREE_OUTDIR", str(tmp_path))
    code = main(["weights", "E6", "--output", "w.txt"])
    assert code == 0
    assert (tmp_path / "w.txt").read_text().strip() == "4 6 7 10 12 15 16 18 24"


def test_certify_json_deterministic(capsys):
    _, out1 = run(capsys, "certify", "D8", "--wmax", "6", "--nq", "2", "--nxi", "2", "--json")
    _, out2 = run(capsys, "certify", "D8", "--wmax", "6", "--nq", "2", "--nxi", "2", "--json")
    assert out1 == out2


# sha256 of the stdout of `eisenstein E7 -k K --prec 26 --json`, recorded before the class numbers
# moved to shared integer tables (tangent-number Bernoulli numbers, one character table per
# discriminant, one class-number row per N); the inputs of every E7 generator stay byte-identical.
E7_EISENSTEIN_SHA256 = {
    4: "a2c9d879bbec4ad5695d07633390c7c7b7d5682f5523631b9ae613c0261f19e8",
    6: "4a3915a7bc4c8af4da14a4dd374460fe204ca27f91eb9ecb370b4f1b429f6733",
    10: "aae75845976ca1c4eec0ce6074d156562258ec526efbc989a7b549af981559e7",
    12: "48c28ef2cac5159a0ac5eaf197080d5ba864c2c81df10917c589341dd9940845",
    14: "48cdf2ff0081dcaa5c79d937295324af4bb9bc48861b12da5eb4fdd41fe2c2bd",
    16: "d5a30dcbf171edc7fbc26c0d1d91352f7dac91143a5f38be01c91304ad3694b4",
    18: "fcb77cb42b93dfb1076178d3e8ea6f54154bb5757e88ddd20dd0056a0a87ad7b",
    22: "52ace1c600b7843a43a3ad5a28a0362006a0675c93cb5bfd96869a66e93ffdba",
    24: "14b656045ad1bcf9bca053bc465b80beb48ff7d3fd23d06cc906f9fae56e9afd",
    30: "274b40f475344dffc99881a1b2bc616ef22e46799ac761e4b9dc374944f0239b",
}

# sha256 of the stdout of `eisenstein D8 -k K --orbit O --prec 26 --json` for every D8 generator
# and E14,1, and of `eisenstein E6 -k K --prec 26 --json` for every E6 Eisenstein row, recorded
# before the level-2 basis became one memoised expansion of E_k.
D8_EISENSTEIN_SHA256 = {
    (4, 0): "93a42e4945265ab34d7f1b6ee71ec99c50bfded368d3fe5a14f81f0a23857066",
    (6, 0): "263431a772aa9d735e6d421fa41e1b3b012be59eba6a73f2bfed1652e1d61d56",
    (8, 0): "197e6d6beea902c786d217c8bf82e52035b07e86e78fe404be12ba0361f36cb7",
    (8, 1): "e4594e0dffc841b753b70841fc672f1902922dcfa8f0b0184dd97219ae719238",
    (10, 0): "ec8a95e5fb965ca0b3966a55fa83a1b500db688056b70109db681b2a545fd2ed",
    (10, 1): "ee5dd6897c1eea4e0eba88e0da6df5c5148910e4f706e5c355e8bddcfcb7ef20",
    (12, 0): "48ba5e5dea6bb3432fad4b02b15ca687b6fa6b411f804af4abbf1b82c2852f00",
    (12, 1): "cfbc3026039f46e92d518034d3512c89bb32a1869c5c67ab146c8b7fd5f9417a",
    (14, 0): "4d29535cb87907bec810ec05813fc9c57b80197076a6b2deae4ced0f8c477b47",
    (14, 1): "716d6cb4fc89e729bf1bd84da9c61689b4af0bd04136522236962a2eaf021796",
    (16, 0): "633a65027ce705f3d82d44ba404440a7fcbf79ac35c41c40b8260746d371672d",
    (18, 0): "9c56137c352bd3e97373aa320ea4a368cf419db63e970fb818924fa9d248b9cc",
}
E6_EISENSTEIN_SHA256 = {
    4: "1714212dba66ef1fdbdfefe86917dce4dbecb90921ac3b79da96d2761a6e316c",
    6: "76cc10cf55e158560fee54c6f3d3a03f32ddf28b6ad4cbcba881ee7df1fd42b6",
    10: "91d927d3fd91156bd15f84b99c4045b18e6b418df97744e229a19610ccbd3cd5",
    12: "65097d5f75aeb27d63c442648a696d1166eb139cfcf24d166d47eedf91aad355",
    16: "86cb84b0f5e37c062cf9f44d38bfa367a0ee1d30c20ac102faaf5d016e413f8e",
    18: "b4080f478002e8b710b53e0fb378d185622a06a4445390b22cb166bf6fbdc740",
    24: "6cb67949af81cb89921da8630a4f5331397bcca6544e55ba1d43b6e8586d74aa",
}

# sha256 of the stdout of more `--json` commands, recorded before q-series moved onto integer
# numerators: the D8 and E6 Eisenstein inputs, the E6 certificate (its odd generators M7 and M15
# are built on eta^8), and the first seed-1 direction of the D8 pullback sweep benchmark.
GOLDEN_JSON_SHA256 = {
    **{str(k): (("eisenstein", "E7", "-k", str(k), "--prec", "26"), h) for k, h in E7_EISENSTEIN_SHA256.items()},
    **{
        f"eisenstein-D8-k{k}-orbit{o}-prec26": (("eisenstein", "D8", "-k", str(k), "--orbit", str(o), "--prec", "26"), h)
        for (k, o), h in D8_EISENSTEIN_SHA256.items()
    },
    **{
        f"eisenstein-E6-k{k}-prec26": (("eisenstein", "E6", "-k", str(k), "--prec", "26"), h)
        for k, h in E6_EISENSTEIN_SHA256.items()
    },
    "eisenstein-D8-k6": (
        ("eisenstein", "D8", "-k", "6", "--prec", "9"),
        "1eb65c82869dc21b1af7066198fd41231b286ac186c2006c71fd21e297577d49",
    ),
    "eisenstein-D8-k10-orbit1": (
        ("eisenstein", "D8", "-k", "10", "--orbit", "1", "--prec", "9"),
        "95a825f0e32c3eeb825bc7288aad14a950b5fea867c712ff655220f07f1083b1",
    ),
    "eisenstein-E6-k8": (
        ("eisenstein", "E6", "-k", "8", "--prec", "5"),
        "e59d7dc6638667c1516daa8cbb6a7aa569d8580f6c2f94bb4ba013c8a9f2c532",
    ),
    "certify-E6": (
        ("certify", "E6", "--wmax", "24"),
        "8df284b4eb05df88d68936328487ae37b614faceb0bff1225e74f0ac0708370c",
    ),
    "pullback-D8-sweep": (
        ("pullback", "D8", "-k", "8", "--vector=-2,1,3,3,3,-3,-1,-3", "--nq", "14"),
        "500c37a32b840a16d28aaf0bcbb8a312c118177e9bbf0072407193d8b3b298ac",
    ),
    # recorded before the dual-coset counts moved from the translates' prefix tree to their
    # minimal trellis: E6 pullback coefficients, and a D8 orbit-1 pullback
    "pullback-E6-k10-nq6": (
        ("pullback", "E6", "-k", "10", "--nq", "6"),
        "81c3d5cf419b2bf7a937e3d73b74fd4990a3c4f784aedac15450e94b6c857cd5",
    ),
    "pullback-D8-k10-orbit1-nq10": (
        ("pullback", "D8", "-k", "10", "--orbit", "1", "--nq", "10"),
        "c636f915261a4223b28ea488b778457ece1036d0ec2be3b275cc296f0bea16e1",
    ),
    # recorded before generator rows became (v, nq) -> JacobiForm recipes and the weak
    # Jacobi dimensions became sums over generator monomials of one index
    **{
        "-".join(argv): (argv, h)
        for argv, h in (
            (("verify-e14",), "1ed996c32858b810d6ac2c421bc7a03e9b81c1e07a797053f40b566b98b0b21c"),
            (
                ("lift", "D8", "-k", "10", "--orbit", "1", "--nq", "3", "--nxi", "3"),
                "d6a25a95ac934fd4d03703f80555ada924f0da7e75179daff84947fa0f0baa9e",
            ),
            (
                ("lift", "E7", "-k", "30", "--nq", "2", "--nxi", "2"),
                "5fb6593b6a269e93c498807e47c77efa265bbbbc5c8087886fc8296a8521314e",
            ),
            (
                ("pullback", "E7", "-k", "30", "--nq", "6"),
                "7649e9531644a943ffe748a01d976a86cee6bd5760596a7dab739728337157d0",
            ),
            (
                ("certify", "D8", "--wmax", "18", "--nq", "4", "--nxi", "4"),
                "36fe69399bcf2774de89a5cf8476b773138e459bcd8a5f796c3d21312b6eb7da",
            ),
            (
                ("certify", "E7", "--wmax", "30", "--nq", "5", "--nxi", "5"),
                "a8e8b4ad4c731569c25e869b65afe32cc94233b1df76906cfd3268d159f8cc86",
            ),
            (("bound", "C8", "-k", "30"), "6f0a9b4730a0746a6e6a045c3f7e86f84db85aee762fc01c39d1d3de60491b78"),
            (("identity-check", "E7"), "d74a99f9fcfd6033da6a44978621e595408886eb570d980a95ff99b4e1b3ff0d"),
        )
    },
}


@pytest.fixture
def json_writer_checked(monkeypatch):
    """Check every payload the CLI writes against ``json.dumps`` itself, before its text is hashed."""
    writer = cli._json_text

    def checked(value, pad=""):
        text = writer(value, pad)
        if not pad:  # the whole payload, not one of the writer's own recursive calls
            assert text == json.dumps(value, indent=2, sort_keys=True)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)


@pytest.mark.parametrize("case", list(GOLDEN_JSON_SHA256))
def test_golden_json_is_byte_identical(capsys, json_writer_checked, case):
    argv, digest = GOLDEN_JSON_SHA256[case]
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: Outputs of the commands whose exact solves, ranks and kernels run on
#: ``qseries.express_in_basis`` and integer numerator rows: (argv, exit code,
#: stdout sha256), recorded while those were built from ``Fraction`` rows.
#: The D8 certificate at (2, 2) is the only output with relations.
EXACT_SOLVE_PINS = (
    (
        ("certify", "D8", "--wmax", "18", "--nq", "2", "--nxi", "2"),
        2,
        "bee327b3b860e056148ede385add2b099123d326ccb52f40bdc0ba0a0d7d92a9",
    ),
    (("verify-e14", "--nq", "3", "--nxi", "3"), 0, "5b7568d711cb662bc79edb77ef74f0489a96aa3f8c832752f474ac192e0b3e7d"),
    (("verify-e14", "--nq", "1", "--nxi", "1"), 1, "31ef2408da8b101026191f90ab6b9b2e6cd2a43c72a013663648417860ffad04"),
)


@pytest.mark.parametrize("argv, exit_code, digest", EXACT_SOLVE_PINS, ids=["certify-D8-2", "verify-e14-3", "verify-e14-1"])
def test_exact_solve_outputs_are_pinned(capsys, json_writer_checked, argv, exit_code, digest):
    code, out = run(capsys, *argv, "--json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    payload = json.loads(out)
    if argv[0] == "certify":
        assert len(payload["report"]["certificate"]["relations"]) == 5
    elif exit_code:
        assert payload["result"]["status"] == "underdetermined"


_JSON_TEXT = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t", "é€𝄞"])
_JSON_SCALARS = (
    st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-(2**64))
    | st.booleans()
    | st.none()
    | st.floats()
    | _JSON_TEXT
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [[], ()]}, [True, 1, False], {"k": (1, -2, 2**70)}, {1: "a", 10: [2.5, None], 2: ()},
])
def test_json_writer_matches_json_dumps_on_empty_and_mixed_containers(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)
