"""The CLI exit-code contract: every manifest gives a result or a documented
exit code (0 ok, 1 verification failed, 2 input, 3 guard, 4 unsupported),
never a traceback."""

import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellgen import cli

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
BASES = {"CP2": CP2, "custom": CUSTOM}

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
