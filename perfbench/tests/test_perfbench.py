"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import layers  # noqa: E402
import loads  # noqa: E402
import run  # noqa: E402
from repro.service import RequestSpec, run_standalone  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestRequestLists:
    def test_same_seed_same_list(self):
        assert loads.burst_schedule(3, 20) == loads.burst_schedule(3, 20)
        assert loads.wide_selections(3, 13) == loads.wide_selections(3, 13)

    def test_other_seed_other_list(self):
        assert loads.burst_schedule(3, 20) != loads.burst_schedule(4, 20)
        assert loads.wide_selections(3, 6) != loads.wide_selections(4, 6)

    def test_longer_window_only_appends(self):
        short = loads.burst_schedule(5, 10)
        assert loads.burst_schedule(5, 30)[: len(short)] == short
        assert loads.wide_selections(5, 20)[:7] == loads.wide_selections(5, 7)

    def test_burst_shares_one_recipe(self):
        recipes = {
            (a.spec.seed, a.spec.calibration_seed, a.spec.drift_hours)
            for a in loads.burst_schedule(7, 20)
        }
        assert len(recipes) == 1


class TestTracedReplay:
    @pytest.mark.parametrize(
        "spec",
        [
            RequestSpec(program="GHZ_n4", drift_hours=2.0, seed=5),
            RequestSpec(
                program="BV_n4", drift_hours=4.0, opt_level=2, angel_seed=3
            ),
        ],
        ids=["GHZ_n4-L0", "BV_n4-L2"],
    )
    def test_staged_request_equals_run_standalone(self, spec):
        timings = layers.Timings()
        staged = layers.staged_request(spec, timings)
        reference = run_standalone(spec)
        assert checks.same_outcome(staged, reference)
        assert staged.device_time_us == reference.device_time_us
        assert checks.digest(staged) == checks.digest(reference)
        for name in ("device.calibrate_s", "compiler.layout_s"):
            assert timings.seconds[name] > 0
        assert timings.seconds["exec.probe_s"] > 0
        assert timings.counts["core.probes_run"] == reference.probes_run
        assert not checks.GateSupport().check(staged, spec.seed, spec.shots)
        if spec.opt_level:
            assert "compiler.optimize_s" in timings.seconds

    def test_staged_selection_equals_library_path(self):
        selection = loads.Selection(
            index=0, program="ghz", width=7, angel_seed=1, final_seed=9
        )
        context = loads.wide_setup()
        try:
            reference = loads.select_once(context, selection)
        finally:
            context.close()
        timings = layers.Timings()
        device, calibration = layers.build_device(
            loads.DEVICE_SEED,
            loads.CALIBRATION_SEED,
            loads.WIDE_DRIFT_HOURS,
            timings,
        )
        staged = layers.staged_selection(
            device, calibration, selection, timings
        )
        assert checks.same_outcome(staged, reference)
        assert not checks.GateSupport().check(
            staged, loads.DEVICE_SEED, loads.SHOTS
        )


class TestChecks:
    def test_wrong_counts_and_budget_are_caught(self):
        spec = RequestSpec(program="GHZ_n4", drift_hours=2.0)
        outcome = run_standalone(spec)
        support = checks.GateSupport()
        assert support.check(outcome, spec.seed, spec.shots) == []
        assert support.check(outcome, spec.seed, spec.shots + 1)
        short = dataclasses.replace(
            outcome, probes_run=outcome.probes_run - 1
        )
        assert support.check(short, spec.seed, spec.shots)


class TestMetrics:
    def test_names_units_and_keys(self):
        spec = _spec()
        assert set(spec) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer",
        }
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
        for metric in spec["end_to_end"]:
            assert metric["unit"]
            assert 0 < metric["bound"] <= 0.25
        assert {w["name"] for w in spec["workloads"]} == set(loads.WORKLOADS)
        assert "setup_s" in {m["name"] for m in spec["end_to_end"]}

    def test_layer_table_matches_declared_names(self):
        record = loads.Record(index=0, spec=None, device_time_us=5.0)
        timings = layers.Timings()
        replay = {
            "replayed": 1,
            "staged_wall_s": 2.0,
            "reference_wall_s": 2.0,
            "covered_s": 1.5,
            "device_builds": 1,
        }
        values = run.layer_metrics(
            "wide-search", [record], loads.LoopResult([record], 1.0),
            timings, replay,
        )
        declared = [name for name, _ in run.declared_metrics(True)]
        assert sorted(values) == sorted(declared)
        assert values["trace.unattributed_ratio"] == pytest.approx(0.25)

    def test_tail_is_highest_rank_with_ten_beyond(self):
        values = list(range(1, 41))
        value, percent = run.tail(values)
        assert value == 30 and percent == 75.0
        # Too few samples for a rank above the median: flagged, never
        # below the median.
        assert run.tail(list(range(21))) == (20, None)

    def test_tail_above_median_at_the_declared_run_length(self, monkeypatch):
        seconds = _spec()["run_seconds"]
        burst = len(loads.burst_schedule(0, seconds))

        # The closed loop with instant selections: it stops at the fewest
        # requests it will ever send.
        monkeypatch.setattr(loads, "select_once", lambda context, s: None)
        stats = types.SimpleNamespace(device_time_us=0.0)
        context = types.SimpleNamespace(
            executor=types.SimpleNamespace(stats=stats)
        )
        wide = len(loads.run_wide(context, 0, 0.0).records)
        for count in (burst, wide):
            assert count >= loads.MIN_REQUESTS
            values = [float(v) for v in range(count, 0, -1)]
            value, percent = run.tail(values)
            assert percent >= 75.0
            assert value > run.nearest_rank(values, 50)
