import io
import json
import os
from fractions import Fraction

import pytest

from ellgen import cli
from ellgen.cohring import LinearClass, RingPresentation, Manifold

MANIFESTS = os.path.join(os.path.dirname(__file__), "..", "manifests")


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def manifest(name):
    return os.path.join(MANIFESTS, name)


def test_compute_cp2_o1_pell2_table():
    code, text = run(
        ["compute", "--input", manifest("cp2_o1.json"), "--genus", "pell2", "--order", "20"]
    )
    assert code == 0
    lines = text.splitlines()
    assert "q^0: -1/8" in lines
    assert "q^{1/2}: -1" in lines


def test_compute_trivial_bundle_pell_all_zero():
    code, text = run(
        ["compute", "--input", manifest("cp2_trivial.json"), "--genus", "pell", "--order", "8"]
    )
    assert code == 0
    rows = [line for line in text.splitlines() if line.startswith("q^")]
    assert len(rows) == 9
    assert all(line.endswith(": 0") for line in rows)


def test_compute_cp4_ahat():
    code, text = run(["compute", "--input", manifest("cp4.json"), "--genus", "ahat"])
    assert code == 0
    assert text.strip() == "3/128"


def test_compute_json_payload():
    code, text = run(
        [
            "compute",
            "--input",
            manifest("cp2_o1.json"),
            "--genus",
            "pell2",
            "--order",
            "4",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["kind"] == "pell2"
    assert payload["method"] == "theta_product"
    assert payload["weight"] == 2
    assert payload["group"] == "Gamma_up0_2"
    assert payload["checks"] == []
    coeffs = {item["power"]: item["value"] for item in payload["coefficients"]}
    assert coeffs["0"] == "-1/8"
    assert coeffs["1/2"] == "-1/1"
    # every number of the text output appears as an exact fraction string
    assert len(coeffs) == 5


def test_compute_definition_method_agrees():
    argv = ["compute", "--input", manifest("cp2_rank2.json"), "--genus", "pell1", "--order", "8"]
    code_t, text_t = run(argv + ["--method", "theta"])
    code_d, text_d = run(argv + ["--method", "definition"])
    assert code_t == code_d == 0
    table = lambda t: [l for l in t.splitlines() if l.startswith("q^")]
    assert table(text_t) == table(text_d)


def test_missing_manifest_is_input_error():
    code, _ = run(["compute", "--input", "no_such_file.json", "--genus", "pell"])
    assert code == cli.EXIT_INPUT


def test_bad_manifest_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"manifold": "CP2", "bundle": {"rank": 2, "roots": [{"x": "1"}]}}')
    code, _ = run(["compute", "--input", str(path), "--genus", "pell"])
    assert code == cli.EXIT_INPUT


def test_guard_violation_exit_code(tmp_path):
    data = {
        "manifold": "CP2",
        "bundle": {"rank": 7, "roots": [{"x": "1"}] * 7, "twist_b": {}},
        "order": 4,
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    code, _ = run(["decompose", "--input", str(path), "--kind", "W"])
    assert code == cli.EXIT_GUARD


def test_unsupported_rank_exit_code():
    code, _ = run(["cancel12", "--rank", "6"])
    assert code == cli.EXIT_UNSUPPORTED


def test_cancel12_outputs():
    code, text = run(["cancel12", "--rank", "2"])
    assert code == 0
    assert "equal: yes" in text
    code, text = run(["cancel12", "--rank", "2", "--no-relation"])
    assert code == 0
    assert "equal: no" in text
    assert "residual divisible by (s2T - s2E): yes" in text


def test_verify_jacobi():
    code, text = run(["verify", "--suite", "jacobi", "--order", "20"])
    assert code == 0
    assert "pass" in text


def test_verify_half_period():
    code, text = run(["verify", "--suite", "half-period", "--input", manifest("cp2_o1.json")])
    assert code == 0


def test_verify_consistency():
    code, text = run(
        ["verify", "--suite", "consistency", "--input", manifest("cp2_rank2.json"), "--order", "12"]
    )
    assert code == 0
    assert sum(1 for l in text.splitlines() if l.startswith("pass ")) == 4


def test_verify_theta_laws():
    code, text = run(["verify", "--suite", "theta-laws"])
    assert code == 0
    assert sum(1 for l in text.splitlines() if l.startswith("pass ")) == 8


def test_verify_s_transform_matched_passes():
    code, text = run(
        ["verify", "--suite", "s-transform", "--input", manifest("cp2_matched.json")]
    )
    assert code == 0
    assert "expected rank factor 2^l = 8" in text
    assert "best-fitting q-power prefactor exponent: 0" in text


def test_verify_s_transform_unmatched_fails():
    # O(1) does not match the tangent curvature square; the law must fail
    code, text = run(
        ["verify", "--suite", "s-transform", "--input", manifest("cp2_o1.json"), "--order", "40"]
    )
    assert code == cli.EXIT_VERIFY_FAILED
    assert "verification failed" in text


def test_decompose_table():
    code, text = run(
        ["decompose", "--input", manifest("cp2_trivial.json"), "--kind", "W", "--order", "2"]
    )
    assert code == 0
    assert "gch == closed form: yes" in text
    head = text.split("n = 1:")[0]
    assert "m =   0" in head and "m =   1" in head


def test_decompose_b_kind_trivial_scalar_table():
    code, text = run(
        ["decompose", "--input", manifest("cp2_trivial.json"), "--kind", "B", "--order", "4"]
    )
    assert code == 0
    # scalar table: the first half-step rows carry weights -1 and +1
    assert "n = 1:" in text
    assert "m =  -1  virtual rank -1" in text
    assert "m =   1  virtual rank -1" in text


def test_manifest_round_trip(tmp_path):
    man = cli.load_manifest(manifest("cp2_rank2.json"))
    path = tmp_path / "copy.json"
    cli.save_manifest(man, str(path))
    again = cli.load_manifest(str(path))
    assert again == man


def test_manifest_round_trip_custom_presentation(tmp_path):
    pres = RingPresentation(
        generators=(("a", 2), ("p", 4)),
        top_degree=8,
        vanishing_monomials=((3, 0),),
        integration_table=(((2, 1), Fraction(1, 2)), ((4, 0), Fraction(3))),
    )
    a = LinearClass.generator(pres, "a")
    manifold = Manifold(name="custom", presentation=pres, dimension=8, tangent_roots=(a, a))
    from ellgen.bundleops import ProjBundle

    man = cli.Manifest(
        manifold=manifold,
        bundle=ProjBundle(rank=1, roots=(a.scale(Fraction(-2, 3)),), twist_b=a.scale(2)),
        order=10,
    )
    path = tmp_path / "custom.json"
    cli.save_manifest(man, str(path))
    again = cli.load_manifest(str(path))
    assert again == man


def test_env_default_order(tmp_path, monkeypatch):
    data = {"manifold": "CP2", "bundle": {"rank": 1, "roots": [{"x": "1"}], "twist_b": {}}}
    path = tmp_path / "noorder.json"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("ELLGEN_ORDER_DEFAULT", "6")
    code, text = run(["compute", "--input", str(path), "--genus", "pell2"])
    assert code == 0
    rows = [line for line in text.splitlines() if line.startswith("q^")]
    assert len(rows) == 7


def _bad_input(capsys, argv):
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("order", ["abc", 12.7, True], ids=["string", "float", "bool"])
def test_non_integer_manifest_order_is_input_error(tmp_path, capsys, order):
    data = {"manifold": "CP2", "bundle": {"rank": 1, "roots": [{"x": "1"}]}, "order": order}
    path = tmp_path / "order.json"
    path.write_text(json.dumps(data))
    _bad_input(capsys, ["compute", "--input", str(path), "--genus", "pell2"])


def test_negative_order_flag_is_input_error(capsys):
    _bad_input(
        capsys,
        ["compute", "--input", manifest("cp2_o1.json"), "--genus", "pell2", "--order", "-3"],
    )


def test_zero_denominator_root_is_input_error(tmp_path, capsys):
    data = {"manifold": "CP2", "bundle": {"rank": 1, "roots": [{"x": "1/0"}]}, "order": 4}
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(data))
    _bad_input(capsys, ["compute", "--input", str(path), "--genus", "pell2"])


def test_negative_env_default_order_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("ELLGEN_ORDER_DEFAULT", "-1")
    _bad_input(capsys, ["verify", "--suite", "jacobi"])


def test_verify_jacobi_default_order(monkeypatch):
    monkeypatch.setenv("ELLGEN_ORDER_DEFAULT", "6")
    code, text = run(["verify", "--suite", "jacobi"])
    assert code == 0
    assert "pass jacobi product identity to order 6" in text
