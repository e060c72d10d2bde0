"""The scripts the README runs work from a plain checkout: each one finds
ellgen next to itself, with no PYTHONPATH and from any working directory,
and prints what `golden/<script>.out` records (decimals masked, as for the
README's CLI commands, since float residuals depend on libm and the CPU).
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

from test_golden_cli import _masked

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = ROOT / "tests" / "golden"


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
    expected = (GOLDEN / name).with_suffix(".out").read_text(encoding="utf-8")
    assert _masked(result.stdout) == _masked(expected)


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


def bench_kernels_record(monkeypatch, capsys, only, **replaced):
    """Exit status and JSON record of bench_kernels.main(["--only", only]),
    run in this process with REPEATS = 1, BATCH_S = 0 and the module's
    names in ``replaced`` replaced."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPTS / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name, value in {"REPEATS": 1, "BATCH_S": 0, **replaced}.items():
        monkeypatch.setattr(bench, name, value)
    status = bench.main(["--only", only])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_bench_kernels_prefers_the_case_named_to_the_cases_containing_it(monkeypatch, capsys):
    """A name equal to a case and contained in another times that case alone;
    a part of a name times every case that contains it."""
    def noop_table(tmp):
        return {name: lambda: (lambda: None) for name in ("a.case", "a.case.longer", "b.case")}

    for only, expected in (("a.case", ["a.case"]), ("a.case.", ["a.case.longer"]),
                           ("case", ["a.case", "a.case.longer", "b.case"])):
        status, record = bench_kernels_record(monkeypatch, capsys, only, case_table=noop_table)
        assert status == 0
        assert list(record["kernels"]) == expected


def test_bench_kernels_times_the_schur_suite_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cli.verify.schur")
    assert status == 0
    assert list(record["kernels"]) == ["cli.verify.schur"]
    assert record["kernels"]["cli.verify.schur"] > 0


def test_bench_kernels_times_the_sum_of_products_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cohring.sum_of_products.schur6")
    assert status == 0
    assert list(record["kernels"]) == ["cohring.sum_of_products.schur6"]
    assert record["kernels"]["cohring.sum_of_products.schur6"] > 0


def test_bench_kernels_times_the_schur_ring_exp_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(
        monkeypatch, capsys, "cohring.schur6.exp_nilpotent.generator")
    assert status == 0
    assert list(record["kernels"]) == ["cohring.schur6.exp_nilpotent.generator"]
    assert record["kernels"]["cohring.schur6.exp_nilpotent.generator"] > 0


def test_bench_kernels_times_the_schur_round_alone(monkeypatch, capsys):
    name = "bundleops.tensor_exterior_identity_check.round27"
    status, record = bench_kernels_record(monkeypatch, capsys, name)
    assert status == 0
    assert list(record["kernels"]) == [name]
    assert record["kernels"][name] > 0


def test_bench_kernels_times_the_power_sums_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cohring.power_sums.CP4.rank3.k4")
    assert status == 0
    assert list(record["kernels"]) == ["cohring.power_sums.CP4.rank3.k4"]
    assert record["kernels"]["cohring.power_sums.CP4.rank3.k4"] > 0


def test_bench_kernels_times_the_manifest_load_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cli.load_manifest.CP4.rank3")
    assert status == 0
    assert list(record["kernels"]) == ["cli.load_manifest.CP4.rank3"]
    assert record["kernels"]["cli.load_manifest.CP4.rank3"] > 0


def test_bench_kernels_times_the_parse_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cli.parse_args.compute")
    assert status == 0
    assert list(record["kernels"]) == ["cli.parse_args.compute"]
    assert record["kernels"]["cli.parse_args.compute"] > 0


def test_bench_kernels_times_the_ring_inverse_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cohring.invert.CP4.N80")
    assert status == 0
    assert list(record["kernels"]) == ["cohring.invert.CP4.N80"]
    assert record["kernels"]["cohring.invert.CP4.N80"] > 0


def test_bench_kernels_times_the_graded_character_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "bundleops.gch")
    assert status == 0
    assert sorted(record["kernels"]) == ["bundleops.gch.B.rank3.N24", "bundleops.gch.W.rank3.N24",
                                         "bundleops.gch.W.rank6.CP4.N24",
                                         "bundleops.gch_closed_form.B.rank2.CP4.N80"]
    assert all(value > 0 for value in record["kernels"].values())


def test_bench_kernels_times_the_weight_tables_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "bundleops.graded_decompose")
    assert status == 0
    assert list(record["kernels"]) == ["bundleops.graded_decompose.W.rank3.N24",
                                       "bundleops.graded_decompose.W.rank6.CP4.N24"]
    assert all(value > 0 for value in record["kernels"].values())


def test_bench_kernels_times_the_numeric_theta_product_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "theta.theta_numeric.THETA.terms60")
    assert status == 0
    assert list(record["kernels"]) == ["theta.theta_numeric.THETA.terms60"]
    assert record["kernels"]["theta.theta_numeric.THETA.terms60"] > 0


def test_bench_kernels_times_the_warm_theta_engine_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(
        monkeypatch, capsys, "genera.pell_theta.CP4.pell1.rank3.N320")
    assert status == 0
    assert list(record["kernels"]) == ["genera.pell_theta.CP4.pell1.rank3.N320"]
    assert record["kernels"]["genera.pell_theta.CP4.pell1.rank3.N320"] > 0


def test_bench_kernels_times_the_exp_nilpotent_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(
        monkeypatch, capsys, "cohring.exp_nilpotent.CP4.pell1.rank3.N320")
    assert status == 0
    assert list(record["kernels"]) == ["cohring.exp_nilpotent.CP4.pell1.rank3.N320"]
    assert record["kernels"]["cohring.exp_nilpotent.CP4.pell1.rank3.N320"] > 0


def test_bench_kernels_times_the_factor_log_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "theta.factor_log.THETA.z4.N320")
    assert status == 0
    assert list(record["kernels"]) == ["theta.factor_log.THETA.z4.N320"]
    assert record["kernels"]["theta.factor_log.THETA.z4.N320"] > 0


def test_bench_kernels_times_the_pell_root_factor_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(
        monkeypatch, capsys, "genera.bundle_root_factor.z4.N320.cold")
    assert status == 0
    assert list(record["kernels"]) == ["genera.bundle_root_factor.z4.N320.cold"]
    assert record["kernels"]["genera.bundle_root_factor.z4.N320.cold"] > 0


def test_bench_kernels_times_the_law_table_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(
        monkeypatch, capsys, "theta.transformation_law_table.default")
    assert status == 0
    assert list(record["kernels"]) == ["theta.transformation_law_table.default"]
    assert record["kernels"]["theta.transformation_law_table.default"] > 0


def test_bench_kernels_times_the_group_check_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(
        monkeypatch, capsys, "modcheck.check_group.Gamma0_2.CP4.N160")
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


def test_bench_kernels_times_the_closed_form_exp_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "bundleops.exp_class.CP4.rank2.N24")
    assert status == 0
    assert list(record["kernels"]) == ["bundleops.exp_class.CP4.rank2.N24"]
    assert record["kernels"]["bundleops.exp_class.CP4.rank2.N24"] > 0


def test_bench_kernels_times_the_decompose_command_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cli.decompose.W.rank2.N12")
    assert status == 0
    assert list(record["kernels"]) == ["cli.decompose.W.rank2.N12"]
    assert record["kernels"]["cli.decompose.W.rank2.N12"] > 0


def test_bench_kernels_times_the_cancel12_layers_alone(monkeypatch, capsys):
    status, record = bench_kernels_record(monkeypatch, capsys, "cancel")
    assert status == 0
    names = ["cli.cancel12.rank2", "genera.cancellation12_check.rank4.no_relation"]
    assert list(record["kernels"]) == names
    assert all(record["kernels"][name] > 0 for name in names)


def test_bench_kernels_pairs_two_checkouts_case_by_case(monkeypatch, capsys):
    """One pair of child processes, this checkout against itself: the first side
    alternates from pair to pair, so one pair starts with this side."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPTS / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "PAIRS", 1)
    assert bench.main(["--only", "qseries.mul.dense.N20", "--against", str(ROOT)]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert "kernels" not in record
    assert record["against_revision"] == record["revision"]
    pair = record["pairs"]["qseries.mul.dense.N20"]
    assert list(record["pairs"]) == ["qseries.mul.dense.N20"]
    assert pair["first_in_pair"] == ["this"]
    assert len(pair["this"]) == len(pair["against"]) == 1
    assert pair["this"][0] > 0 and pair["against"][0] > 0
    assert pair["this_faster_pairs"] in (0, 1)
    for side in ("this", "against"):  # one time is its own median and both quartiles
        t = pair[side][0]
        assert pair["quartiles"][side] == {"median": t, "q1": t, "q3": t}
        assert pair[f"{side}_median"] == t


def test_bench_kernels_pairs_report_each_sides_quartiles(monkeypatch, tmp_path):
    """Canned child times, four pairs: the sides alternate and each side's median and
    inclusive quartiles are those of its own four times."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPTS / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    times = {str(ROOT / "src"): iter([4.0, 1.0, 3.0, 2.0]),
             str(tmp_path / "src"): iter([10.0, 40.0, 20.0, 30.0])}
    monkeypatch.setattr(bench, "PAIRS", 4)
    monkeypatch.setattr(bench, "child_time", lambda name, src: next(times[str(src)]))
    pair = bench.paired(["case"], tmp_path)["case"]
    assert pair["first_in_pair"] == ["this", "against", "this", "against"]
    assert pair["this"] == [4.0, 1.0, 3.0, 2.0] and pair["this_faster_pairs"] == 4
    assert pair["quartiles"]["this"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert pair["quartiles"]["against"] == {"median": 25.0, "q1": 17.5, "q3": 32.5}
    assert pair["this_median"] == 2.5 and pair["against_median"] == 25.0


def test_bench_kernels_refuses_a_path_without_ellgen(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_kernels.py"), "--only", "qseries.mul.dense.N20",
         "--against", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "no ellgen package" in result.stderr


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def canned_run(jobs_per_s, job_p50_ms, correct=True, failed=0, revision="abc"):
    return {"correct": correct, "failed": failed, "revision": revision,
            "metrics": {"jobs_per_s": jobs_per_s, "job_p50_ms": job_p50_ms}}


def test_bench_pairs_summarizes_canned_runs(monkeypatch, capsys, tmp_path):
    """Three canned pairs, no benchmark run: each side's median and quartiles,
    the wins in each metric's direction with a tie for neither side, and the
    first side alternating from pair to pair."""
    pairs = load_bench_pairs()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    canned = {
        pairs.ROOT: iter([canned_run(160, 3.0, revision="new"), canned_run(170, 3.5, revision="new"),
                          canned_run(150, 2.9, revision="new")]),
        tmp_path.resolve(): iter([canned_run(120, 3.4, revision="old"),
                                  canned_run(170, 3.4, revision="old"),
                                  canned_run(125, 3.4, revision="old")]),
    }
    calls = []

    def fake_run_side(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        return next(canned[root])

    monkeypatch.setattr(pairs, "run_side", fake_run_side)
    status = pairs.main(["--against", str(tmp_path), "--workload", "schur-identity",
                         "--seed", "7919", "--pairs", "3"])
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 0 and record["all_correct"]
    assert [run["first"] for run in record["runs"]] == ["this", "against", "this"]
    assert [root == pairs.ROOT for root, *_ in calls] == [True, False, False, True, True, False]
    run_seconds = json.loads((pairs.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert {call[1:] for call in calls} == {("schur-identity", 7919, run_seconds)}
    assert record["seconds"] == run_seconds
    assert (record["revision"], record["against_revision"]) == ("new", "old")
    assert record["roots"] == {"this": str(pairs.ROOT), "against": str(tmp_path.resolve())}
    assert sorted(record["metrics"]) == ["job_p50_ms", "jobs_per_s"]
    jobs = record["metrics"]["jobs_per_s"]
    assert jobs["this"] == {"median": 160, "q1": 155, "q3": 165}
    assert jobs["against"] == {"median": 125, "q1": 122.5, "q3": 147.5}
    assert jobs["this_wins"] == 2  # 170 against 170 is a tie
    p50 = record["metrics"]["job_p50_ms"]
    assert p50["this"]["median"] == 3.0 and p50["against"]["median"] == 3.4
    assert p50["this_wins"] == 2  # lower is better: 3.0 and 2.9 win, 3.5 loses


def test_bench_pairs_fails_unless_every_run_is_correct():
    pairs = load_bench_pairs()
    end_to_end = [{"name": "jobs_per_s", "better": "higher"}]
    good = {"first": "this", "this": canned_run(2, 1), "against": canned_run(1, 1)}
    assert pairs.report([good], end_to_end)[1] == 0
    for bad in (canned_run(2, 1, correct=False), canned_run(2, 1, failed=3)):
        record, status = pairs.report([good, {**good, "against": bad}], end_to_end)
        assert status == 1 and not record["all_correct"]
        assert record["metrics"]["jobs_per_s"]["this"]["median"] == 2


def test_bench_pairs_times_a_cli_command_against_this_checkout(capsys):
    """Two one-shot pairs of one command, this checkout against itself: the outputs
    are byte-identical and the first side alternates."""
    pairs = load_bench_pairs()
    status = pairs.main(["--against", str(ROOT), "--cli", "cancel12 --rank 2", "--pairs", "2"])
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 0 and record["cli"] == "cancel12 --rank 2"
    assert record["identical"] == {"stdout": True, "stderr": True, "exit_code": True}
    assert [run["first"] for run in record["runs"]] == ["this", "against"]
    assert all(run[side]["exit_code"] == 0 and run[side]["wall_s"] > 0
               for run in record["runs"] for side in ("this", "against"))
    assert set(record["wall_s"]["this"]) == {"median", "q1", "q3"}
    assert record["wall_s"]["this_wins"] in (0, 1, 2)


def test_bench_pairs_refuses_a_path_without_the_benchmark(tmp_path, capsys):
    pairs = load_bench_pairs()
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--against", str(tmp_path), "--workload", "schur-identity", "--seed", "1"])
    assert exit_info.value.code == 2
    assert "no perfbench/run.py" in capsys.readouterr().err
