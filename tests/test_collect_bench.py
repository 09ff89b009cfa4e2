"""``benchmarks/collect_bench.py``: regression flags compare like with like."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "collect_bench.py"


@pytest.fixture(scope="module")
def collect_bench():
    spec = importlib.util.spec_from_file_location("collect_bench", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(value, workload):
    return {
        "label": "cache speedup (x)",
        "direction": "higher",
        "value": value,
        "workload": workload,
    }


def _obs_entry(value):
    return {
        "label": "obs overhead (fraction)",
        "direction": "lower",
        "value": value,
        "workload": "probe sweep",
    }


def test_same_workload_drop_is_flagged(collect_bench):
    entries = {"exec_probe_throughput": _entry(3.47, "full")}
    previous = {"exec_probe_throughput": _entry(9.99, "full")}
    flags = collect_bench.flag_regressions(entries, previous)
    assert len(flags) == 1
    assert "9.990 -> 3.470" in flags[0]
    assert entries["exec_probe_throughput"]["previous"] == 9.99


def test_other_workload_becomes_new_baseline(collect_bench):
    entries = {"exec_probe_throughput": _entry(3.47, "smoke")}
    previous = {"exec_probe_throughput": _entry(9.99, "full")}
    assert collect_bench.flag_regressions(entries, previous) == []
    entry = entries["exec_probe_throughput"]
    assert entry["value"] == 3.47
    assert "previous" not in entry and "relative_change" not in entry


def test_near_zero_headline_noise_is_not_flagged(collect_bench):
    """-0.004 -> 0.015 is a 0.019 absolute move, well inside the
    benchmark's 0.15 bound, though it is +520% relative."""
    entries = {"obs_overhead": _obs_entry(0.015)}
    previous = {"obs_overhead": _obs_entry(-0.004)}
    assert collect_bench.flag_regressions(entries, previous) == []
    entry = entries["obs_overhead"]
    assert entry["absolute_change"] == pytest.approx(0.019)
    assert "relative_change" not in entry


def test_near_zero_headline_past_its_bound_is_flagged(collect_bench):
    entries = {"obs_overhead": _obs_entry(0.20)}
    previous = {"obs_overhead": _obs_entry(0.01)}
    flags = collect_bench.flag_regressions(entries, previous)
    assert len(flags) == 1
    assert "0.010 -> 0.200" in flags[0]


def test_retired_benchmarks_have_no_headline(collect_bench):
    for name in (
        "batched_candidate_engine",
        "sim_cache_probe_workload",
        "snapshot_batch_probe_workload",
    ):
        assert name not in collect_bench.HEADLINES
