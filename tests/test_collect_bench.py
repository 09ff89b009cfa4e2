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
        "label": "mean per-probe speedup (x)",
        "direction": "higher",
        "value": value,
        "workload": workload,
    }


def test_same_workload_drop_is_flagged(collect_bench):
    entries = {"batched_candidate_engine": _entry(3.47, "full")}
    previous = {"batched_candidate_engine": _entry(9.99, "full")}
    flags = collect_bench.flag_regressions(entries, previous)
    assert len(flags) == 1
    assert "9.990 -> 3.470" in flags[0]
    assert entries["batched_candidate_engine"]["previous"] == 9.99


def test_other_workload_becomes_new_baseline(collect_bench):
    entries = {"batched_candidate_engine": _entry(3.47, "smoke")}
    previous = {"batched_candidate_engine": _entry(9.99, "full")}
    assert collect_bench.flag_regressions(entries, previous) == []
    entry = entries["batched_candidate_engine"]
    assert entry["value"] == 3.47
    assert "previous" not in entry and "relative_change" not in entry
