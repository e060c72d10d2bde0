"""README CLI commands against their recorded stdout and exit codes.

`golden/commands.json` lists each command; `golden/<name>.out` holds its
stdout byte for byte.  Commands marked `mask_floats` print rounding-level
float residuals that depend on libm and the CPU; for them every decimal
number is masked before the comparison, so the pass/fail lines and the
rest of the text still match exactly.
"""

import io
import json
import os
import re

import pytest

from ellgen import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN, "commands.json"), encoding="utf-8") as _fh:
    COMMANDS = json.load(_fh)

_DECIMAL = re.compile(r"[-+]?\d+\.\d+(?:e[-+]?\d+)?")


def _masked(text: str) -> str:
    return _DECIMAL.sub("<num>", text)


@pytest.mark.parametrize("case", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_readme_command_matches_recording(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("ELLGEN_ORDER_DEFAULT", raising=False)
    out = io.StringIO()
    code = cli.main(case["args"].split(), out=out)
    with open(os.path.join(GOLDEN, case["name"] + ".out"), "rb") as fh:
        expected = fh.read()
    assert code == case["exit"]
    if case.get("mask_floats"):
        assert _masked(out.getvalue()) == _masked(expected.decode("utf-8"))
    else:
        assert out.getvalue().encode("utf-8") == expected
