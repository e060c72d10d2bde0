"""CLI output paths: the `compute --json` writer, refused method labels,
the single decomposition behind `decompose`, and a closed stdout pipe."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ellgen import bundleops, cli, qseries
from ellgen.qseries import HalfQSeries

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
MANIFESTS = os.path.join(ROOT, "manifests")
SRC = os.path.join(ROOT, "src")


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def manifest(name):
    return os.path.join(MANIFESTS, name)


_JSON_TEXT = st.text(max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _series(draw):
    order = draw(st.integers(0, 12))
    nums = draw(st.lists(st.integers(-(10**30), 10**30), min_size=order + 1,
                         max_size=order + 1))
    den = draw(st.sampled_from([1, 2, 6, 2**70 + 1]) | st.integers(1, 10**20))
    return qseries.from_numerators(order, tuple(nums), den)


def _reference_coefficients(series):
    return [
        {"power": str(Fraction(k, 2)), "value": f"{c.numerator}/{c.denominator}"}
        for k, c in enumerate(series.coeffs)
    ]


@given(
    series=_series(),
    names=st.lists(_JSON_TEXT, min_size=5, max_size=5),
    weight=st.integers(0, 64),
    with_bundle=st.booleans(),
    checks=st.lists(_JSON_VALUES, max_size=3),
)
@example(
    series=HalfQSeries.constant(Fraction(-3, 7), 0),
    names=['CP"2\\', "méthode", "Γ₀(2)", "x\ny", "\U0001d4b3"],
    weight=4, with_bundle=True, checks=[],
)
@example(series=HalfQSeries.zero(6), names=["a"] * 5, weight=0, with_bundle=False, checks=[])
@example(
    series=qseries.from_numerators(3, (-1, 0, 5, -2), 1),
    names=["k", "m", "g", "M", "b"], weight=2, with_bundle=True, checks=[{"n": [1, None]}],
)
# order 320: every odd coefficient zero; den = 1; a den that shares factors with
# only some numerators (those are reduced, the rest keep den)
@example(
    series=qseries.from_numerators(320, tuple([0 if k & 1 else k - 7 for k in range(321)]), 6),
    names=["pell1", "m", "g", "M", "b"], weight=4, with_bundle=True, checks=[],
)
@example(
    series=qseries.from_numerators(320, tuple(range(-160, 161)), 1),
    names=["pell2", "m", "g", "M", "b"], weight=4, with_bundle=True, checks=[],
)
@example(
    series=qseries.from_numerators(320, tuple([(-1) ** k * k**3 for k in range(321)]),
                                   2**4 * 3**5 * 5 * 7),
    names=["pell3", "m", "g", "M", "b"], weight=4, with_bundle=True, checks=[],
)
# a den too long to print whose every reduced coefficient prints: 1/a and 1/b
@example(
    series=qseries.from_numerators(1, (10**2500 + 3, 10**2500 + 1),
                                   (10**2500 + 1) * (10**2500 + 3)),
    names=["pell", "m", "g", "M", "b"], weight=4, with_bundle=True, checks=[],
)
def test_compute_json_matches_json_dumps(series, names, weight, with_bundle, checks):
    kind, method, group, manifold, bundle = names
    head = {"kind": kind, "method": method, "weight": weight, "group": group}
    if with_bundle:
        head.update(manifold=manifold, bundle=bundle)
    payload = dict(head, coefficients=series, checks=checks)
    reference = dict(head, coefficients=_reference_coefficients(series), checks=checks)
    assert cli.compute_json(payload) == json.dumps(reference, indent=2)


@pytest.mark.parametrize("series", [
    *(qseries.from_numerators(n, tuple((-1) ** k * (k * k + 3) for k in range(n + 1)), 12)
      for n in (0, 1, 2, 7)),
    HalfQSeries.zero(7),
    qseries.from_numerators(7, tuple(range(-4, 4)), 1),
    qseries.from_numerators(2, (-6, -4, -9), 6),
])
def test_coefficients_json_is_the_json_dumps_text(series):
    reference = json.dumps(_reference_coefficients(series), indent=2).replace("\n", "\n  ")
    assert cli._coefficients_json(series) == reference


def test_compute_json_custom_names_round_trip(tmp_path):
    gen = 'a"é\\'
    data = {
        "manifold": {
            "name": 'Möbius "\\" ∂',
            "generators": [[gen, 2], ["p", 4]],
            "top_degree": 8,
            "vanishing_monomials": [{gen: 3}],
            "integration_table": [[{gen: 2, "p": 1}, "1/2"]],
            "tangent_roots": [{gen: "1"}, {gen: "1"}],
        },
        "bundle": {"rank": 1, "roots": [{gen: "-3/2"}], "twist_b": {gen: "1/3"}},
        "order": 6,
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, text = run(["compute", "--input", str(path), "--genus", "pell1", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["manifold"] == data["manifold"]["name"]
    assert gen in payload["bundle"]
    assert text == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("genus", ["witten", "ahat"])
def test_definition_method_without_an_engine_is_input_error(capsys, genus):
    # only the twisted genera have a definition engine; the label must not lie
    code, text = run(["compute", "--input", manifest("cp4.json"), "--genus", genus,
                      "--method", "definition", "--json"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert text == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_decompose_builds_its_table_once(monkeypatch):
    calls = []
    original = bundleops.graded_decompose

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bundleops, "graded_decompose", counting)
    monkeypatch.setattr(cli, "graded_decompose", counting)
    code, text = run(
        ["decompose", "--input", manifest("cp2_trivial.json"), "--kind", "A", "--order", "4"]
    )
    assert code == 0
    assert "gch == closed form: yes" in text
    assert len(calls) == 1


def test_closed_pipe_exits_quietly():
    # about 240 kB of JSON: more than a pipe holds, so the writer must hit the
    # closed read end
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ellgen.cli", "compute", "--input", manifest("cp2_o1.json"),
         "--genus", "pell2", "--order", "4000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    with proc:
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert "Traceback" not in err.decode()
    assert err == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
