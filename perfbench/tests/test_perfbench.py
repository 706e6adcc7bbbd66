"""Tests of the benchmark itself, on the ``tiny`` workload sizes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from harness import percentile  # noqa: E402
from workloads import SIZES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None and "correct" not in result:
        result = None
    return proc.returncode, result, proc.stdout, proc.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    rc, result, out, err = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--size", "tiny",
    )
    assert rc == 0, out + err
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if trace == "0":
            assert reported["value"] > 0, metric["name"]
    host = json.loads(out.splitlines()[0])["host"]
    assert {"nproc", "python", "pyarrow", "workers"} <= set(host)


def copy_benchmark(tmp_path: Path) -> Path:
    """The benchmark and ``BENCHMARK.json``, without the program."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "perfbench"


def test_wrong_reference_digest_is_a_failure_not_a_crash(tmp_path):
    copied = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    wrong = copied / "references.json"
    references = json.loads(wrong.read_text())
    first = SIZES["tiny"]["mc-dense"].seeds(1)[0]
    references["mc-dense"]["tiny"]["1"][f"seed {first} plan_digest"] = "0" * 64
    wrong.write_text(json.dumps(references))
    rc, result, out, err = run_bench(
        "--workload", "mc-dense", "--seed", "1", "--seconds", "1",
        "--size", "tiny", cwd=tmp_path,
    )
    assert rc == 1
    assert result is not None, out + err
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert f"seed {first} plan_digest differs from the reference" in out
    assert "Traceback" not in err


def test_recorded_references_cover_default_and_held_out_seed():
    references = json.loads((BENCH / "references.json").read_text())
    for workload in WORKLOADS:
        assert {"1", "2"} <= set(references[workload]["full"]), workload


def test_recorded_digest_is_what_the_cli_prints_on_its_own():
    """The plain command, without the benchmark's artefact flags, prints
    the plan digest the benchmark recorded for each of its campaigns."""
    workload = SIZES["tiny"]["mc-dense"]
    campaign = workload.campaign
    references = json.loads((BENCH / "references.json").read_text())
    seeds = workload.seeds(1)
    assert len(seeds) == workload.campaigns > 1
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--seed", str(seed), "--workers", "1",
             "mc", "--replicas", str(campaign.replicas),
             "--horizon-ms", str(campaign.horizon_ms),
             "--expected-faults", str(campaign.expected_faults)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        digest = references["mc-dense"]["tiny"]["1"][f"seed {seed} plan_digest"]
        assert f"plan digest {digest[:16]}..." in proc.stdout


def test_campaign_seeds_of_distinct_run_seeds_are_disjoint():
    workload = SIZES["full"]["mc-dense"]
    seen: set[int] = set()
    for seed in range(1, 50):
        seeds = set(workload.seeds(seed))
        assert len(seeds) == workload.campaigns and not seeds & seen
        seen |= seeds


def test_without_the_program_the_benchmark_refuses(tmp_path):
    copy_benchmark(tmp_path)
    rc, result, _out, err = run_bench(
        "--workload", "mc-dense", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert rc != 0 and result is None
    assert "missing" in err


def test_benchmark_json_records_reasons_and_layer_targets():
    assert all(w["why"].strip() for w in SPEC["workloads"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert {"wall_s", "setup_s", "replicas_per_s", "cpu_s", "peak_rss_mb",
            "query_s", "whatif_s"} == end_to_end
    assert set(LAYERS) == {m["name"] for m in SPEC["per_layer"]}
    for name, target in LAYERS.items():
        assert set(target["moves"]) <= end_to_end, name
        assert target["on"] and set(target["on"]) <= set(WORKLOADS), name


def test_p90_needs_ten_samples_beyond_it():
    # 91 samples: the p90 sits on the 82nd, with 9 beyond it.
    assert percentile([1.0] * 91, 0.9) is None
    assert percentile([float(i) for i in range(92)], 0.9) == pytest.approx(81.9)
    assert percentile([float(i) for i in range(100)], 0.9) == pytest.approx(89.1)
