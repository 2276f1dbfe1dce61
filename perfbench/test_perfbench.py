"""The benchmark's own tests.

    python3 -m pytest -q perfbench

The traced-run test starts real passes: about a minute on two cores.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.QUOTAS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_runs_the_same_mix_on_other_inputs(workload):
    catalogue = workloads.load_catalogue(workload)
    first = workloads.select(workload, catalogue, 1)
    second = workloads.select(workload, catalogue, 2)
    assert len(first) == len(second) == sum(workloads.QUOTAS[workload].values())
    assert Counter(e["kind"] for e in first) == Counter(e["kind"] for e in second)
    assert {e["key"] for e in first} != {e["key"] for e in second}
    assert [e["key"] for e in first] == [
        e["key"] for e in workloads.select(workload, catalogue, 1)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_catalogue_matches_its_generator(workload):
    """The pinned catalogue holds generated candidates only: the whole
    grid of a fixed kind, and for a randomly drawn kind two entries per
    bin within the work cap."""
    generated = {c["key"]: c for c in workloads.candidates(workload)}
    counts = Counter(c["kind"] for c in generated.values())
    quotas = workloads.QUOTAS[workload]
    cap = workloads.WORK_CAP[workload]
    catalogue = workloads.load_catalogue(workload)
    for entry in catalogue:
        spec = generated[entry["key"]]
        assert (spec["kind"], spec["p"]) == (entry["kind"], entry["p"])
        if cap is not None and counts[entry["kind"]] > quotas[entry["kind"]]:
            assert entry["work"] <= cap
    pinned = Counter(entry["kind"] for entry in catalogue)
    for kind, quota in quotas.items():
        drawn = counts[kind] > quota
        assert pinned[kind] == quota * (workloads.CANDIDATES_PER_BIN if drawn else 1)


def test_prediction_table_covers_every_traced_function():
    assert set(layers.PREDICTED) == set(layers.FUNCTIONS)
    assert all(len(row) == len(layers.WORKLOADS) for row in layers.PREDICTED.values())
    assert tuple(WORKLOADS) == layers.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_counts_and_meets_predictions(workload):
    """A traced run checks the zero and nonzero predictions and that every
    count repeats exactly between its two traced passes; it reports
    ``correct`` false otherwise."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "11", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == set(layers.metric_units())
    assert result["metrics"]["trace.overhead_s"]["unit"] == "s"
