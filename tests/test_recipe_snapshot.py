"""Recipe snapshots: ``ExperimentContext.create`` builds each recipe once.

Every ``create`` call restores a private copy of its recipe's pickled
``(device, calibration service)`` pair. The oracle is the internal
build function, ``_build_recipe``, run directly: a restored context
must equal a direct build in physics, calibration records, clocks and
RNG streams, and whole compile requests must come out bit-identical
either way.
"""

import gc
import sys
import threading
import weakref
from dataclasses import replace

import pytest

from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device.presets import DEFAULT_PROFILE
from repro.exec import Job, get_executor
from repro.experiments import ExperimentContext
from repro.experiments import context as context_module
from repro.experiments.context import (
    _SNAPSHOT_ENTRIES,
    _Recipe,
    _SnapshotStore,
    _build_recipe,
)
from repro.programs import get_benchmark
from repro.service import AngelService, RequestSpec, run_standalone

_DRIFT = 2.0


def _recipe(**overrides) -> _Recipe:
    fields = dict(
        device_name="aspen-11",
        seed=11,
        calibration_seed=3,
        drift_hours=_DRIFT,
        drift_step_hours=3.0,
        profile_key=repr(DEFAULT_PROFILE),
        idle_noise=False,
        crosstalk_zz=0.0,
        sim_cache=True,
        batched_sim=True,
        clifford_fast_path=False,
        profile=DEFAULT_PROFILE,
    )
    fields.update(overrides)
    return _Recipe(**fields)


def _native_ghz(context):
    compiled = context.transpile(get_benchmark("GHZ_n4").build())
    sequence = NativeGateSequence.uniform(compiled.sites, "cz")
    return nativize(
        compiled.scheduled,
        sequence.as_site_map(),
        context.device.native_gates,
    )


def _state(device, service):
    """Everything a restored copy must reproduce (consumes RNG draws)."""
    return (
        device.parameter_fingerprint(),
        device.parameter_state(),
        device.clock_us,
        device.drift_epoch,
        service.data.two_qubit,
        service.data.single_qubit,
        service.data.readout,
        service._last_calibrated_us,
        tuple(device._drift_rng.random(8)),
        tuple(device._sample_rng.random(8)),
        tuple(service._rng.random(8)),
    )


def test_restored_context_equals_a_direct_build():
    context = ExperimentContext.create(drift_hours=_DRIFT)
    device, service = _build_recipe(_recipe())
    assert context.service.device is context.device
    assert _state(context.device, context.service) == _state(device, service)
    context.close()


@pytest.mark.parametrize("program", ["GHZ_n4", "QAOA_n5"])
@pytest.mark.parametrize("opt_level", [0, 2])
def test_run_standalone_matches_a_direct_build(monkeypatch, program, opt_level):
    spec = RequestSpec(
        program=program,
        shots=64,
        probe_shots=16,
        drift_hours=_DRIFT,
        opt_level=opt_level,
    )
    restored = run_standalone(spec)
    with monkeypatch.context() as patch:
        patch.setattr(context_module, "_restore", _build_recipe)
        direct = run_standalone(spec)
    assert restored.result.sequence == direct.result.sequence
    assert restored.result.reference_sequence == direct.result.reference_sequence
    assert restored.result.trace == direct.result.trace
    assert restored.final_counts == direct.final_counts
    assert restored.probes_run == direct.probes_run
    assert restored.device_time_us == direct.device_time_us


def test_using_a_restored_device_leaves_the_snapshot_alone():
    first = ExperimentContext.create(drift_hours=_DRIFT)
    first.device.advance_time(7.5 * 3_600e6)
    first.device.gate_params[
        next(iter(first.device.gate_params))
    ].depolarizing.process.value = 0.5
    first.service.full_calibration()
    first.executor.submit(Job(_native_ghz(first), 16, tag="measure"))
    first.close()
    second = ExperimentContext.create(drift_hours=_DRIFT)
    device, service = _build_recipe(_recipe())
    assert _state(second.device, second.service) == _state(device, service)
    assert second.device.execution_log == []
    second.close()


def test_every_key_field_selects_its_own_snapshot(monkeypatch):
    recorded = []
    base_blob = context_module._SNAPSHOTS.get(_recipe(), _build_recipe)

    class Recorder:
        def get(self, recipe, build):
            recorded.append(recipe)
            return base_blob

    monkeypatch.setattr(context_module, "_SNAPSHOTS", Recorder())
    coherent = dict(DEFAULT_PROFILE.coherent_scale, xy=1.2)
    variants = [
        {},
        {"device_name": "aspen-m-1"},
        {"seed": 12},
        {"calibration_seed": 4},
        {"drift_hours": _DRIFT + 1},
        {"drift_step_hours": 1.0},
        {"profile": replace(DEFAULT_PROFILE, coherent_scale=coherent)},
        {"idle_noise": True},
        {"crosstalk_zz": 0.01},
        {"sim_cache": False},
        {"batched_sim": False},
        {"clifford_fast_path": True},
    ]
    for overrides in variants:
        kwargs = dict(drift_hours=_DRIFT)
        kwargs.update(overrides)
        ExperimentContext.create(**kwargs).close()
    assert len(set(recorded)) == len(variants)
    # Settings applied after restore share the recipe's snapshot.
    for kwargs in (
        dict(backend="remote", fault_profile="light", fault_seed=5),
        dict(optimization_level=2, metrics=True),
        dict(parallel=True),
    ):
        ExperimentContext.create(drift_hours=_DRIFT, **kwargs).close()
    assert set(recorded[len(variants):]) == {recorded[0]}


def test_concurrent_creates_build_a_new_recipe_once(monkeypatch):
    builds = []

    def counting_build(recipe):
        builds.append(recipe)
        return _build_recipe(recipe)

    monkeypatch.setattr(context_module, "_build_recipe", counting_build)
    monkeypatch.setattr(
        context_module, "_SNAPSHOTS", _SnapshotStore(_SNAPSHOT_ENTRIES)
    )
    barrier = threading.Barrier(8)
    contexts = [None] * 8

    def worker(index):
        barrier.wait(timeout=30)
        contexts[index] = ExperimentContext.create(drift_hours=0.5)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert len({id(context.device) for context in contexts}) == 8
    states = [_state(context.device, context.service) for context in contexts]
    assert all(state == states[0] for state in states)
    for context in contexts:
        context.close()


def test_store_is_a_fixed_size_lru():
    assert context_module._SNAPSHOTS._max_entries == _SNAPSHOT_ENTRIES
    builds = []

    def build(recipe):
        builds.append(recipe.seed)
        return recipe.seed, None

    store = _SnapshotStore(2)
    for seed in (1, 2, 1, 3, 1, 2):
        store.get(_recipe(seed=seed), build)
        assert len(store._blobs) <= 2
    # 1 stays hot; 2 is evicted by 3 and rebuilt at the end.
    assert builds == [1, 2, 3, 2]


def test_failed_builds_are_not_stored():
    store = _SnapshotStore(2)

    def broken(recipe):
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError):
        store.get(_recipe(), broken)
    assert not store._blobs and not store._building


def test_closed_context_device_is_freed():
    context = ExperimentContext.create(drift_hours=_DRIFT)
    context.measured_success_rate(
        _native_ghz(context), {"0000": 0.5, "1111": 0.5}, shots=16
    )
    assert get_executor(context.device).stats.jobs == 1
    device_ref = weakref.ref(context.device)
    context.close()
    del context
    gc.collect()
    assert device_ref() is None


def test_finished_service_request_device_is_freed(monkeypatch):
    devices = []
    create = ExperimentContext.create.__func__

    def spy(cls, *args, **kwargs):
        context = create(cls, *args, **kwargs)
        devices.append(weakref.ref(context.device))
        return context

    monkeypatch.setattr(ExperimentContext, "create", classmethod(spy))
    spec = RequestSpec(
        program="GHZ_n4", shots=64, probe_shots=16, drift_hours=_DRIFT
    )
    service = AngelService(num_workers=2)
    try:
        outcome = service.submit("alice", spec).result(timeout=120)
        assert outcome.final_counts
        gc.collect()
        assert len(devices) == 1
        assert devices[0]() is None
    finally:
        service.close()
