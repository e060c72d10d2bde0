import io
import json
import os
from fractions import Fraction

import pytest

from ellgen import cli
from ellgen.bundleops import ProjBundle
from ellgen.cohring import LinearClass, Manifold, RingPresentation, builtin_manifold

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


def load_literal(tmp_path, data):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return cli.load_manifest(str(path))


def test_manifest_loads_a_builtin_manifold(tmp_path):
    data = {
        "manifold": "CP2",
        "bundle": {"rank": 2, "roots": [{"x": "1"}, {"x": "-1/2"}], "twist_b": {"x": "1/2"}},
        "order": 12,
    }
    cp2 = builtin_manifold("CP2")
    x = LinearClass.generator(cp2.presentation, "x")
    half = Fraction(1, 2)
    expected = cli.Manifest(
        manifold=cp2,
        bundle=ProjBundle(rank=2, roots=(x, x.scale(-half)), twist_b=x.scale(half)),
        order=12,
    )
    assert load_literal(tmp_path, data) == expected


def test_manifest_loads_a_custom_presentation(tmp_path):
    data = {
        "manifold": {
            "name": "custom",
            "generators": [["a", 2], ["p", 4]],
            "top_degree": 8,
            "vanishing_monomials": [{"a": 3}],
            "integration_table": [[{"a": 2, "p": 1}, "1/2"], [{"p": 2}, "3"]],
            "tangent_roots": [{"a": "1"}, {"a": "1"}],
        },
        "bundle": {"rank": 1, "roots": [{"a": "-2/3"}], "twist_b": {"a": "2"}},
        "order": 10,
    }
    pres = RingPresentation(
        generators=(("a", 2), ("p", 4)),
        top_degree=8,
        vanishing_monomials=((3, 0),),
        integration_table=(((2, 1), Fraction(1, 2)), ((0, 2), Fraction(3))),
    )
    a = LinearClass.generator(pres, "a")
    manifold = Manifold(name="custom", presentation=pres, dimension=8, tangent_roots=(a, a))
    man = cli.Manifest(
        manifold=manifold,
        bundle=ProjBundle(rank=1, roots=(a.scale(Fraction(-2, 3)),), twist_b=a.scale(2)),
        order=10,
    )
    assert load_literal(tmp_path, data) == man


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


def test_default_order_is_read_per_call(monkeypatch):
    # the parser is built once; each call must still read its own environment
    for order in ("6", "4"):
        monkeypatch.setenv("ELLGEN_ORDER_DEFAULT", order)
        code, text = run(["verify", "--suite", "jacobi"])
        assert code == 0
        assert f"pass jacobi product identity to order {order}" in text
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "theta-laws", "--tau", "0.5-1j"],
        ["verify", "--suite", "s-transform", "--input", manifest("cp2_matched.json"),
         "--tau", "0.5-1j"],
        ["verify", "--suite", "theta-laws", "--tau", "0.3"],
        ["verify", "--suite", "theta-laws", "--tol", "-1"],
        ["verify", "--suite", "theta-laws", "--tol", "0"],
        ["verify", "--suite", "theta-laws", "--tol", "nan"],
        ["verify", "--suite", "theta-laws", "--tol", "inf"],
    ],
    ids=["tau-lower-half-plane", "tau-lower-half-plane-s", "tau-real", "tol-negative",
         "tol-zero", "tol-nan", "tol-inf"],
)
def test_bad_verify_numeric_input_is_input_error(capsys, argv):
    _bad_input(capsys, argv)


@pytest.mark.parametrize(
    "extra",
    [["--tau", "0.1j"], ["--order", "4"]],
    ids=["tau-near-real-axis", "order-too-short"],
)
def test_truncation_tail_too_large_is_guard_violation(capsys, extra):
    argv = ["verify", "--suite", "s-transform", "--input", manifest("cp2_matched.json")]
    code, _ = run(argv + extra)
    err = capsys.readouterr().err
    assert code == cli.EXIT_GUARD
    assert err.startswith("guard violation: truncation tail")
    assert "Traceback" not in err


def _custom_manifest(**changes):
    manifold = {
        "name": "custom",
        "generators": [["a", 2], ["p", 4]],
        "top_degree": 8,
        "vanishing_monomials": [{"a": 3}],
        "integration_table": [[{"a": 2, "p": 1}, "1/2"]],
        "tangent_roots": [{"a": "1"}, {"a": "1"}],
    }
    bundle = {"rank": 1, "roots": [{"a": "1"}], "twist_b": {}}
    for key, value in changes.items():
        (bundle if key == "rank" else manifold)[key] = value
    return {"manifold": manifold, "bundle": bundle, "order": 2}


def test_custom_manifest_reference_is_accepted(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(_custom_manifest()))
    code, _ = run(["compute", "--input", str(path), "--genus", "pell2"])
    assert code == 0


@pytest.mark.parametrize(
    "changes",
    [
        {"vanishing_monomials": [{"a": -1}]},
        {"vanishing_monomials": [{"a": 2.9}]},
        {"vanishing_monomials": [{"a": True}]},
        {"vanishing_monomials": [5]},
        {"integration_table": [[{"a": 2, "p": 1.0}, "1/2"]]},
        {"generators": [["a", 2.0], ["p", 4]]},
        {"generators": [["a", True], ["p", 4]]},
        {"top_degree": 8.0},
        {"top_degree": True},
        {"rank": 1.5},
        {"rank": True},
        {"rank": "1"},
    ],
    ids=[
        "exponent-negative", "exponent-float", "exponent-bool", "monomial-not-object",
        "table-exponent-float", "degree-float", "degree-bool", "top-degree-float",
        "top-degree-bool", "rank-float", "rank-bool", "rank-string",
    ],
)
def test_non_integer_custom_manifest_field_is_input_error(tmp_path, capsys, changes):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(_custom_manifest(**changes)))
    _bad_input(capsys, ["compute", "--input", str(path), "--genus", "pell2"])


@pytest.mark.parametrize(
    "extra",
    [["--tau", "0.1j"], ["--order", "4"]],
    ids=["tau-near-real-axis", "order-too-short"],
)
def test_guard_violation_leaves_stdout_empty(capsys, extra):
    # the s-transform report is printed only once the numeric check has run
    argv = ["verify", "--suite", "s-transform", "--input", manifest("cp2_matched.json")]
    code, text = run(argv + extra)
    captured = capsys.readouterr()
    assert code == cli.EXIT_GUARD
    assert text == ""
    assert captured.out == ""


def _short_root_manifests(tmp_path):
    # builtin `free` lists no tangent roots; the custom manifold lists two in
    # dimension 8
    free = {
        "manifold": "free",
        "bundle": {"rank": 2, "roots": [{"s1E": "1"}, {"s1E": "-1/2"}], "twist_b": {"s1E": "1/3"}},
        "order": 6,
    }
    custom = {
        "manifold": {
            "name": "custom",
            "generators": [["a", 2], ["b", 2]],
            "top_degree": 8,
            "integration_table": [[{"a": 2, "b": 2}, "1"]],
            "tangent_roots": [{"a": "1"}, {"b": "1"}],
        },
        "bundle": {"rank": 1, "roots": [{"a": "1", "b": "1"}], "twist_b": {"a": "1/2"}},
        "order": 6,
    }
    paths = []
    for name, data in (("free", free), ("custom", custom)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return paths


def test_consistency_on_short_tangent_root_lists(tmp_path, capsys):
    for path in _short_root_manifests(tmp_path):
        code, text = run(["verify", "--suite", "consistency", "--input", path])
        assert code == cli.EXIT_OK
        assert sum(1 for l in text.splitlines() if l.startswith("pass ")) == 4
        assert text.splitlines()[-1] == "all checks passed"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("genus", ["pell", "pell1", "pell2", "pell3"])
def test_definition_method_on_short_tangent_root_lists(tmp_path, capsys, genus):
    nonzero = []
    for path in _short_root_manifests(tmp_path):
        argv = ["compute", "--input", path, "--genus", genus]
        code_t, text_t = run(argv + ["--method", "theta"])
        code_d, text_d = run(argv + ["--method", "definition"])
        assert code_t == code_d == cli.EXIT_OK
        rows = lambda t: [l for l in t.splitlines() if l.startswith("q^")]
        assert len(rows(text_d)) == 7
        assert rows(text_t) == rows(text_d)
        nonzero.append(any(not l.endswith(": 0") for l in rows(text_d)))
    assert nonzero == [False, genus != "pell"]
    assert capsys.readouterr().err == ""


def test_consistency_on_free_exits_cleanly(tmp_path):
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    free = _short_root_manifests(tmp_path)[0]
    proc = subprocess.run(
        [sys.executable, "-m", "ellgen.cli", "verify", "--suite", "consistency", "--input", free],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == cli.EXIT_OK
    assert proc.stdout.splitlines()[-1] == "all checks passed"


DUPLICATE_MANIFOLDS = {
    "generator": {"generators": [["a", 2], ["a", 2]], "top_degree": 4,
                  "integration_table": [[{"a": 2}, "1"]]},
    "integration_monomial": {"generators": [["a", 2]], "top_degree": 4,
                             "integration_table": [[{"a": 2}, "1"], [{"a": 2}, "3"]]},
}


@pytest.mark.parametrize("case", sorted(DUPLICATE_MANIFOLDS))
@pytest.mark.parametrize("argv", [["compute", "--genus", "ahat"],
                                  ["verify", "--suite", "consistency"]], ids=["compute", "verify"])
def test_duplicate_manifold_names_are_input_errors(tmp_path, capsys, case, argv):
    data = {"manifold": DUPLICATE_MANIFOLDS[case], "order": 2,
            "bundle": {"rank": 1, "roots": [{"a": "1"}]}}
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(data))
    code, text = run(argv[:1] + ["--input", str(path)] + argv[1:])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert text == ""
    assert err.startswith("input error:") and "distinct" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["compute", "--genus", "ahat"],
                                  ["verify", "--suite", "consistency"]], ids=["compute", "verify"])
def test_unit_vanishing_monomial_is_an_input_error(tmp_path, capsys, argv):
    # a vanishing monomial with every exponent 0 would declare 1 = 0
    manifold = {"generators": [["a", 2]], "top_degree": 4, "vanishing_monomials": [{}],
                "integration_table": [[{"a": 2}, "1"]]}
    data = {"manifold": manifold, "order": 2, "bundle": {"rank": 1, "roots": [{"a": "1"}]}}
    path = tmp_path / "unit_relation.json"
    path.write_text(json.dumps(data))
    code, text = run(argv[:1] + ["--input", str(path)] + argv[1:])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert text == ""
    assert err.startswith("input error:") and "vanishing monomial" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, target",
    [
        (["compute", "--input", manifest("cp2_o1.json"), "--genus", "pell1"], "pell"),
        (["verify", "--suite", "consistency", "--input", manifest("cp2_o1.json")], "pell"),
        (["decompose", "--input", manifest("cp2_o1.json"), "--kind", "W"], "graded_decompose"),
        (["cancel12", "--rank", "2"], "cancellation12_check"),
    ],
    ids=["compute", "verify", "decompose", "cancel12"],
)
def test_an_allocation_failure_is_guard_violation(capsys, monkeypatch, argv, target):
    # what an order too large to allocate raises, without allocating it
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, out_of_memory)
    code, text = run(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_GUARD
    assert text == "" and captured.out == ""
    assert captured.err == "guard violation: out of memory\n"


def test_manifest_order_leaves_the_environment_unread(capsys, monkeypatch):
    # ELLGEN_ORDER_DEFAULT applies only to manifests without an "order"
    monkeypatch.setenv("ELLGEN_ORDER_DEFAULT", "abc")
    assert cli.load_manifest(manifest("cp4_rank2.json")).order == 24
    code, text = run(["compute", "--input", manifest("cp4_rank2.json"), "--genus", "pell1",
                      "--order", "4"])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert len([line for line in text.splitlines() if line.startswith("q^")]) == 5


def test_vanishing_integration_key_is_an_input_error(tmp_path, capsys):
    # a^4 has the top degree, but a^3 = 0 makes it vanish: its weight could never be read
    manifold = {"generators": [["a", 2]], "top_degree": 8, "vanishing_monomials": [{"a": 3}],
                "integration_table": [[{"a": 4}, "3"]]}
    path = tmp_path / "vanishing_key.json"
    path.write_text(json.dumps({"manifold": manifold, "order": 2}))
    code, text = run(["compute", "--input", str(path), "--genus", "ahat"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert text == ""
    assert err == "input error: bad manifold spec: integration table key a^4 vanishes\n"


TOP_USAGE = "usage: ellgen [-h] {compute,verify,decompose,cancel12} ...\n"
COMPUTE_USAGE = (
    "usage: ellgen compute [-h] --input INPUT --genus\n"
    "                      {ahat,pell,pell1,pell2,pell3,witten}\n"
    "                      [--method {definition,theta}] [--order ORDER] [--json]\n"
)
CHOICES = "(choose from 'compute', 'verify', 'decompose', 'cancel12')"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["compute", "--input", "m.json", "--genus", "pell2", "--bogus"],
         TOP_USAGE + "ellgen: error: unrecognized arguments: --bogus\n"),
        (["verify", "--suite", "jacobi", "--bogus", "1"],
         TOP_USAGE + "ellgen: error: unrecognized arguments: --bogus 1\n"),
        (["compute", "--genus", "pell2"],
         COMPUTE_USAGE + "ellgen compute: error: the following arguments are required: --input\n"),
        (["compute", "--input", "m.json", "--genus", "pell2", "--order", "abc"],
         COMPUTE_USAGE + "ellgen compute: error: argument --order: invalid int value: 'abc'\n"),
        (["bogus"],
         TOP_USAGE + f"ellgen: error: argument command: invalid choice: 'bogus' {CHOICES}\n"),
        (["comp", "--input", "m.json"],
         TOP_USAGE + f"ellgen: error: argument command: invalid choice: 'comp' {CHOICES}\n"),
        ([], TOP_USAGE + "ellgen: error: the following arguments are required: command\n"),
    ],
    ids=["unknown-flag", "unknown-flag-and-value", "missing-input", "bad-order", "unknown-command",
         "abbreviated-command", "no-arguments"],
)
def test_argparse_errors(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at the terminal width
    with pytest.raises(SystemExit) as exc:
        run(argv)
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_INPUT
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize(
    "argv, help_text",
    [
        (["compute", "--help"], COMPUTE_USAGE + (
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --input INPUT         manifest JSON file\n"
            "  --genus {ahat,pell,pell1,pell2,pell3,witten}\n"
            "  --method {definition,theta}\n"
            "  --order ORDER\n"
            "  --json\n")),
        (["-h"], TOP_USAGE + (
            "\n"
            "Exact q-series computations of twisted elliptic genera.\n"
            "\n"
            "positional arguments:\n"
            "  {compute,verify,decompose,cancel12}\n"
            "    compute             compute one genus from a manifest\n"
            "    verify              run a verification suite\n"
            "    decompose           print a determinant-weight table\n"
            "    cancel12            degree-12 cancellation identity\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n")),
    ],
    ids=["compute", "top-level"],
)
def test_argparse_help(capsys, monkeypatch, argv, help_text):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out == help_text
    assert captured.err == ""
