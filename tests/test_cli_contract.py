"""The CLI exit-code contract: every manifest gives a result or a documented
exit code (0 ok, 1 verification failed, 2 input, 3 guard, 4 unsupported),
never a traceback."""

import contextlib
import io
import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellgen import cli, qseries

MANIFESTS = os.path.join(os.path.dirname(__file__), "..", "manifests")

CP2 = {
    "manifold": "CP2",
    "bundle": {"rank": 2, "roots": [{"x": "1"}, {"x": "-1/2"}], "twist_b": {"x": "1/3"}},
    "order": 4,
}
CUSTOM = {
    "manifold": {
        "name": "custom",
        "generators": [["a", 2], ["p", 4]],
        "top_degree": 8,
        "vanishing_monomials": [{"a": 3}],
        "integration_table": [[{"a": 2, "p": 1}, "1/2"]],
        "tangent_roots": [{"a": "1"}, {"a": "-1"}],
    },
    "bundle": {"rank": 1, "roots": [{"a": "1"}], "twist_b": {"a": "1/2"}},
    "order": 4,
}
# a ring whose only generator vanishes: every class is zero, and so is every integral
POINT = {
    "manifold": {"generators": [["a", 2]], "top_degree": 0},
    "bundle": {"rank": 1, "roots": [{"a": "1"}]},
}
BASES = {"CP2": CP2, "custom": CUSTOM, "point": POINT}

COMMANDS = (
    ["compute", "--genus", "pell1", "--method", "theta"],
    ["compute", "--genus", "pell", "--method", "definition"],
    ["verify", "--suite", "consistency"],
    ["verify", "--suite", "half-period"],
    ["verify", "--suite", "s-transform"],
    ["decompose", "--kind", "W"],
)


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def run_manifest(data, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return run(argv[:1] + ["--input", path] + argv[1:])


def _paths(node, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def replaced(base, path, value):
    data = json.loads(json.dumps(base))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


POSITIONS = [(name, path) for name, base in BASES.items() for path in _paths(base)]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([10**400, -(10**30), 0, -1, 2])
    | st.floats()
    | st.sampled_from(["1e400", "nan", "inf", "1/0", "-1e400", "1/2", "x", "a", "", "2**8"])
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "a", "p", "rank"]) | st.text(max_size=3), inner,
                      max_size=3),
    max_leaves=6,
)


@given(st.sampled_from(POSITIONS), json_values, st.integers(min_value=0, max_value=6))
@example(("CP2", ("bundle", "twist_b")), ["x"], 4)
@example(("custom", ("manifold", "tangent_roots", 0)), None, 2)
@example(("CP2", ("bundle", "roots", 0, "x")), "1e400", 6)
@example(("point", ("bundle", "rank")), 1, 4)
@settings(max_examples=80, deadline=None)
def test_any_manifest_value_gives_a_documented_exit_code(position, value, order):
    name, path = position
    data = replaced(BASES[name], path, value)
    for argv in COMMANDS:
        code, _ = run_manifest(data, argv + ["--order", str(order)])
        assert isinstance(code, int) and code in range(5), argv


# -- linear classes that are not objects ---------------------------------------


def _assert_input_error(capsys, data):
    code, text = run_manifest(data, ["compute", "--genus", "pell1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert text == ""
    assert err.startswith("input error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [["x"], "x", 1, None], ids=["list", "string", "int", "null"])
def test_non_object_twist_is_input_error(capsys, value):
    _assert_input_error(capsys, replaced(CP2, ("bundle", "twist_b"), value))


@pytest.mark.parametrize("value", [["x"], "x", 1, None], ids=["list", "string", "int", "null"])
def test_non_object_bundle_root_is_input_error(capsys, value):
    _assert_input_error(capsys, replaced(CP2, ("bundle", "roots", 1), value))


@pytest.mark.parametrize("value", [["a"], "a", 1, None], ids=["list", "string", "int", "null"])
def test_non_object_tangent_root_is_input_error(capsys, value):
    _assert_input_error(capsys, replaced(CUSTOM, ("manifold", "tangent_roots", 0), value))


# -- samples the truncated series cannot evaluate --------------------------------


def _assert_guard_violation(capsys, code, text):
    captured = capsys.readouterr()
    assert code == cli.EXIT_GUARD
    assert text == "" and captured.out == ""
    assert captured.err.startswith("guard violation: truncation tail")
    assert "Traceback" not in captured.err


def test_sample_mapped_onto_the_unit_circle_is_guard_violation(capsys):
    # S sends tau = 1e300 i to Im = 1e-300, where |u| rounds to 1
    matched = os.path.join(MANIFESTS, "cp2_matched.json")
    code, text = run(["verify", "--suite", "s-transform", "--input", matched, "--tau", "1e300j"])
    _assert_guard_violation(capsys, code, text)


def test_coefficient_beyond_the_float_range_is_guard_violation(capsys):
    data = replaced(CP2, ("bundle", "roots", 0, "x"), "1e400")
    code, text = run_manifest(data, ["verify", "--suite", "s-transform"])
    _assert_guard_violation(capsys, code, text)


# -- theta-law samples the numeric products cannot evaluate ----------------------


def _assert_tau_input_error(capsys, tau):
    code, text = run(["verify", "--suite", "theta-laws", "--tau", tau])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert text == "" and captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_theta_laws_at_a_huge_imaginary_part_is_input_error(capsys):
    # at Im(tau v) = 1e19, e^(2 pi i tau v) underflows to 0 in the S-law image
    _assert_tau_input_error(capsys, "1e20j")


def test_theta_laws_at_a_huge_real_part_is_input_error(capsys):
    # -1/tau at tau = 1e300 + i has an imaginary part that underflows to 0
    _assert_tau_input_error(capsys, "1e300+1j")


# -- theta-law samples beyond the reach of the 60-term products ------------------


@pytest.mark.parametrize("tau", ["0.5+1e-300j", "0.3+0.05j"], ids=["q-rounds-to-one", "slow-decay"])
def test_theta_laws_with_a_large_tail_is_guard_violation(capsys, tau):
    # |q| rounds to 1 at Im(tau) = 1e-300, where every product is exactly 0 and
    # every law would pass; at Im(tau) = 0.05 the truncation error, not the
    # law, makes the theta1 S-law miss --tol
    code, text = run(["verify", "--suite", "theta-laws", "--tau", tau])
    _assert_guard_violation(capsys, code, text)


# -- a refused --input suite writes nothing to stdout ---------------------------

NO_BUNDLE = {"manifold": "CP2", "order": 4}


@pytest.mark.parametrize(
    "suite, data, extra, code",
    [
        ("consistency", None, [], cli.EXIT_INPUT),
        ("consistency", NO_BUNDLE, [], cli.EXIT_INPUT),
        ("consistency", CP2, ["--order", "26"], cli.EXIT_GUARD),
        ("half-period", None, [], cli.EXIT_INPUT),
        ("half-period", NO_BUNDLE, [], cli.EXIT_INPUT),
        ("s-transform", None, [], cli.EXIT_INPUT),
        ("s-transform", NO_BUNDLE, [], cli.EXIT_INPUT),
    ],
    ids=["consistency-no-input", "consistency-no-bundle", "consistency-order-guard",
         "half-period-no-input", "half-period-no-bundle", "s-transform-no-input",
         "s-transform-no-bundle"],
)
def test_refused_input_suite_leaves_stdout_empty(capsys, suite, data, extra, code):
    argv = ["verify", "--suite", suite] + extra
    got, text = run(argv) if data is None else run_manifest(data, argv)
    captured = capsys.readouterr()
    assert got == code
    assert text == "" and captured.out == ""
    prefix = "input error: " if code == cli.EXIT_INPUT else "guard violation: "
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1


# -- rationals too large to parse or to print ------------------------------------

CP4 = dict(CP2, manifold="CP4")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("base, value", [(CP4, "1e1100"), (CP2, "1e5000"), (CP2, "-1e601"),
                                         (CP2, "9" * 601), (CP2, "1/" + "3" * 601),
                                         (CP2, "1e-700")],
                         ids=["1e1100-cp4", "1e5000-cp2", "exponent-601", "long-numerator",
                              "long-denominator", "tiny"])
def test_rational_beyond_the_digit_bound_is_input_error(capsys, base, value, json_flag):
    data = replaced(base, ("bundle", "roots", 0, "x"), value)
    code, text = run_manifest(data, ["compute", "--genus", "pell1"] + json_flag)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert text == "" and captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "600 digits" in captured.err


def test_huge_exponent_is_refused_before_it_is_expanded(capsys):
    data = replaced(CP2, ("bundle", "roots", 0, "x"), "1e99999999")
    start = time.perf_counter()
    code, text = run_manifest(data, ["compute", "--genus", "pell1"])
    assert time.perf_counter() - start < 5
    assert code == cli.EXIT_INPUT and text == ""
    assert capsys.readouterr().err.startswith("input error: ")


def test_rational_at_the_digit_bound_is_accepted():
    value = "9" * qseries.RATIONAL_DIGITS + "/" + "7" * qseries.RATIONAL_DIGITS
    code, text = run_manifest(replaced(CP2, ("bundle", "twist_b", "x"), value),
                              ["compute", "--genus", "pell1"])
    assert code == cli.EXIT_OK and text


def test_integer_longer_than_the_int_string_limit_is_input_error(capsys):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(CP2).replace('"-1/2"', "1" * 5000))
        code, text = run(["compute", "--input", path, "--genus", "pell1"])
    assert code == cli.EXIT_INPUT and text == ""
    assert capsys.readouterr().err.startswith("input error: cannot read manifest")


def test_manifest_nested_too_deep_to_decode_is_input_error(capsys):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(CP2)[:-1] + ', "extra": ' + "[" * 100000 + "]" * 100000 + "}")
        code, text = run(["compute", "--input", path, "--genus", "pell1"])
    assert code == cli.EXIT_INPUT and text == ""
    assert capsys.readouterr().err.startswith("input error: cannot read manifest")


# a root and a twist near the bound: the fourth power of the shifted root on
# CP4 has about 4800 digits, past the interpreter's default int -> str limit
HUGE = replaced(replaced(CP4, ("bundle", "roots", 0, "x"), "1e599"),
                ("bundle", "twist_b", "x"), "1e-599")
# on a ring of top degree 12 the sixth power has about 7200 digits
HUGE_CUSTOM = {
    "manifold": {"name": "a6", "generators": [["a", 2]], "top_degree": 12,
                 "vanishing_monomials": [{"a": 7}], "integration_table": [[{"a": 6}, "1"]],
                 "tangent_roots": [{"a": "1"}]},
    "bundle": {"rank": 1, "roots": [{"a": "1e599"}], "twist_b": {"a": "1e-599"}},
}


@pytest.mark.parametrize("data, argv", [
    (HUGE, ["compute", "--genus", "pell1"]),
    (HUGE, ["compute", "--genus", "pell1", "--json"]),
    (HUGE_CUSTOM, ["decompose", "--kind", "W", "--order", "2"]),
], ids=["compute-text", "compute-json", "decompose"])
def test_coefficient_too_large_to_print_is_guard_violation(capsys, data, argv):
    if not 0 < sys.get_int_max_str_digits() < 4800:
        pytest.skip("the interpreter prints integers of 4800 digits")
    code, text = run_manifest(data, argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_GUARD
    assert text == "" and captured.out == ""
    assert captured.err.startswith("guard violation: ")
    assert "Traceback" not in captured.err


# -- rationals that are not strings ----------------------------------------------


@pytest.mark.parametrize("path", [("bundle", "roots", 0, "x"), ("bundle", "twist_b", "x")],
                         ids=["root", "twist"])
@pytest.mark.parametrize("value", [1e-400, 0.5, True, False, None, ["1"], {"x": "1"}],
                         ids=["float-underflow", "float", "true", "false", "null", "list",
                              "object"])
def test_rational_that_is_not_a_string_or_an_integer_is_input_error(capsys, path, value):
    _assert_input_error(capsys, replaced(CP2, path, value))


def test_non_string_integration_weight_is_input_error(capsys):
    data = replaced(CUSTOM, ("manifold", "integration_table", 0, 1), 0.5)
    _assert_input_error(capsys, data)


def test_integer_rationals_are_accepted():
    assert qseries.parse_rational(-3) == -3
    assert qseries.parse_rational(" 1e2 ") == 100
    assert qseries.parse_rational("1e400") == 10**400
    with pytest.raises(ValueError):
        qseries.parse_rational(True)
    code, text = run_manifest(replaced(CP2, ("bundle", "roots", 0, "x"), 1),
                              ["compute", "--genus", "pell1"])
    assert code == cli.EXIT_OK and text


# -- orders no series can have ----------------------------------------------------


@pytest.mark.parametrize("where", ["manifest", "environment"])
def test_order_beyond_the_longest_series_is_input_error(capsys, monkeypatch, where):
    if where == "manifest":
        data = dict(CP2, order=sys.maxsize + 1)
    else:
        monkeypatch.setenv("ELLGEN_ORDER_DEFAULT", str(10**30))
        data = {key: value for key, value in CP2.items() if key != "order"}
    _assert_input_error(capsys, data)


# -- arbitrary command lines ---------------------------------------------------

MATCHED = os.path.join(MANIFESTS, "cp2_matched.json")
SUBCOMMANDS = (
    ["compute", "--genus", "pell1"],
    ["compute", "--genus", "pell", "--method", "definition"],
    ["compute", "--genus", "witten"],
    ["decompose", "--kind", "W"],
    ["cancel12", "--rank", "2"],
    ["cancel12", "--rank", "3"],
) + tuple(["verify", "--suite", suite] for suite in sorted(cli._SUITES))


@given(
    st.sampled_from(SUBCOMMANDS),
    st.sampled_from([None, MATCHED, os.path.join(MANIFESTS, "cp2_rank2.json"), "missing.json"]),
    st.sampled_from([None, "-1", "x", "2", str(10**30), str(2**63)]),
    st.sampled_from([None, "0", "nan", "inf", "-1", "1e-30", "1e-8"]),
    st.sampled_from([None, "0j", "nan+1j", "1e308+1j", ",", "0.3+0.05j", "0.2+0.9j,1.1j"]),
)
@example(["verify", "--suite", "jacobi"], None, str(10**30), None, None)
@example(["compute", "--genus", "pell1"], MATCHED, str(10**30), None, None)
@example(["verify", "--suite", "theta-laws"], None, None, "nan", "1e308+1j")
@settings(max_examples=60, deadline=None)
def test_any_command_line_gives_a_documented_exit_code(subcommand, path, order, tol, tau):
    argv = list(subcommand)
    # only verify takes --tol and --tau: elsewhere argparse would refuse every draw
    verify = subcommand[0] == "verify"
    for flag, value in (("--input", path), ("--order", order),
                        ("--tol", tol if verify else None), ("--tau", tau if verify else None)):
        if value is not None:
            argv += [flag, value]
    out = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as stray, \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv, out=out)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in range(5), argv
    if code >= cli.EXIT_INPUT:
        assert out.getvalue() == "" and stray.getvalue() == "", argv
