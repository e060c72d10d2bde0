"""The scripts the README runs work from a plain checkout: each one finds
ellgen next to itself, with no PYTHONPATH and from any working directory.
Cases that check only what `bench_kernels.py --only` selects run its `main`
in this process, with one batch of one call per case."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, cwd):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("name", ["worked_examples.py", "modularity_campaign.py"])
def test_script_runs_from_a_checkout(name, tmp_path):
    result = run_script(name, tmp_path)
    assert result.returncode == 0, result.stderr
    assert "FAIL" not in result.stdout
    assert "agrees: False" not in result.stdout


def test_worked_examples_print_the_cancellation_identity(tmp_path):
    lines = run_script("worked_examples.py", tmp_path).stdout.splitlines()
    imposed = [line for line in lines if "curvature relation imposed" in line]
    assert len(imposed) == 2
    assert all(line.endswith("equal = True") for line in imposed)


def test_bench_kernels_times_one_case(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_kernels.py"),
         "--only", "qseries.mul.dense.N20"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert list(record["kernels"]) == ["qseries.mul.dense.N20"]
    assert record["kernels"]["qseries.mul.dense.N20"] > 0
    assert record["exponents"] == {}


def test_bench_kernels_rejects_an_unmatched_case(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_kernels.py"), "--only", "no.such.case"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "no.such.case" in result.stderr


def bench_kernels_record(monkeypatch, capsys, only):
    """Exit status and JSON record of bench_kernels.main(["--only", only]),
    run in this process with REPEATS = 1 and BATCH_S = 0."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPTS / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "BATCH_S", 0)
    status = bench.main(["--only", only])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_bench_kernels_times_the_schur_suite_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cli.verify.schur")
    assert status == 0
    assert list(record["kernels"]) == ["cli.verify.schur"]
    assert record["kernels"]["cli.verify.schur"] > 0


def test_bench_kernels_times_the_sum_of_products_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cohring.sum_of_products")
    assert status == 0
    assert list(record["kernels"]) == ["cohring.sum_of_products.schur6"]
    assert record["kernels"]["cohring.sum_of_products.schur6"] > 0


def test_bench_kernels_times_the_ring_inverse_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cohring.invert")
    assert status == 0
    assert list(record["kernels"]) == ["cohring.invert.CP4.N80"]
    assert record["kernels"]["cohring.invert.CP4.N80"] > 0


def test_bench_kernels_times_the_graded_character_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "bundleops.gch")
    assert status == 0
    assert sorted(record["kernels"]) == ["bundleops.gch.B.rank3.N24", "bundleops.gch.W.rank3.N24",
                                         "bundleops.gch_closed_form.B.rank2.CP4.N80"]
    assert all(value > 0 for value in record["kernels"].values())


def test_bench_kernels_times_the_numeric_theta_product_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "theta.theta_numeric")
    assert status == 0
    assert list(record["kernels"]) == ["theta.theta_numeric.THETA.terms60"]
    assert record["kernels"]["theta.theta_numeric.THETA.terms60"] > 0


def test_bench_kernels_times_the_warm_theta_engine_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "genera.pell_theta")
    assert status == 0
    assert list(record["kernels"]) == ["genera.pell_theta.CP4.pell1.rank3.N320"]
    assert record["kernels"]["genera.pell_theta.CP4.pell1.rank3.N320"] > 0


def test_bench_kernels_times_the_exp_nilpotent_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cohring.exp_nilpotent")
    assert status == 0
    assert list(record["kernels"]) == ["cohring.exp_nilpotent.CP4.pell1.rank3.N320"]
    assert record["kernels"]["cohring.exp_nilpotent.CP4.pell1.rank3.N320"] > 0


def test_bench_kernels_times_the_factor_log_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "theta.factor_log")
    assert status == 0
    assert list(record["kernels"]) == ["theta.factor_log.THETA.z4.N320"]
    assert record["kernels"]["theta.factor_log.THETA.z4.N320"] > 0


def test_bench_kernels_times_the_pell_root_factor_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "genera.bundle_root_factor")
    assert status == 0
    assert list(record["kernels"]) == ["genera.bundle_root_factor.z4.N320.cold"]
    assert record["kernels"]["genera.bundle_root_factor.z4.N320.cold"] > 0


def test_bench_kernels_times_the_law_table_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "theta.transformation_law_table")
    assert status == 0
    assert list(record["kernels"]) == ["theta.transformation_law_table.default"]
    assert record["kernels"]["theta.transformation_law_table.default"] > 0


def test_bench_kernels_times_the_group_check_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "modcheck.check_group")
    assert status == 0
    assert list(record["kernels"]) == ["modcheck.check_group.Gamma0_2.CP4.N160"]
    assert record["kernels"]["modcheck.check_group.Gamma0_2.CP4.N160"] > 0


def test_bench_kernels_records_the_revision_and_the_bytecode_setting(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "theta.theta_numeric")
    assert status == 0
    assert record["bytecode_written"] is (not sys.dont_write_bytecode)
    if (ROOT / ".git" / "HEAD").is_file():
        assert re.fullmatch(r"[0-9a-f]{40}", record["revision"])
    else:
        assert record["revision"] == "unknown"
