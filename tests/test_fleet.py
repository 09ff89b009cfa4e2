"""The device fleet: replicas, the affinity-aware router, bit-equivalence.

The tentpole invariants, pinned here: a 1-replica fleet compile is
**bit-identical** (sequence, trace, final counts) to
:func:`~repro.service.run_standalone`, and a fixed request is
bit-identical regardless of how *other* tenants' batches are routed
across a {2, 4}-replica fleet — the reference for any fleet request is
``run_standalone(fleet.replicas[i].adjust(spec))`` for the replica it
ran on. On top of that: the router's stickiness/pinning/replay/score
policy, the replica ledger the router reads, the Backend facade's
accounting, per-replica dedup partitioning, and the ``fleet.*``
observability surface.
"""

from dataclasses import replace

import pytest

from repro.exceptions import ServiceError
from repro.fleet import (
    FleetBackend,
    FleetReplica,
    FleetRouter,
    FleetService,
    FleetSpec,
    ReplicaSpec,
)
from repro.service import AngelService, RequestSpec, run_standalone

#: Small, fast request specs (probe budgets matching the service tests).
_GHZ = RequestSpec(program="GHZ_n4", shots=64, probe_shots=16, drift_hours=0.5)
_BV = RequestSpec(program="BV_n4", shots=64, probe_shots=16, drift_hours=0.5)

_STANDALONE_CACHE = {}


def _reference(spec: RequestSpec):
    """Memoized standalone outcome for a spec (the ground truth)."""
    if spec not in _STANDALONE_CACHE:
        _STANDALONE_CACHE[spec] = run_standalone(spec)
    return _STANDALONE_CACHE[spec]


def _assert_bit_identical(outcome, reference) -> None:
    assert outcome.result.sequence == reference.result.sequence
    assert outcome.result.trace == reference.result.trace
    assert (
        outcome.result.reference_sequence
        == reference.result.reference_sequence
    )
    assert outcome.final_counts == reference.final_counts
    assert outcome.probes_run == reference.probes_run


# ---------------------------------------------------------------------------
# Replica specs: frozen recipes
# ---------------------------------------------------------------------------
class TestReplicaSpec:
    def test_identity_replica_leaves_spec_unchanged(self):
        spec = ReplicaSpec(index=0, name="replica-0")
        assert spec.is_identity
        assert spec.adjust(_GHZ) == _GHZ

    def test_adjust_rewrites_device_recipe(self):
        spec = ReplicaSpec(
            index=2,
            name="replica-2",
            seed_offset=2018,
            calibration_seed_offset=14,
            drift_offset_hours=3.0,
        )
        adjusted = spec.adjust(_GHZ)
        assert adjusted.seed == _GHZ.seed + 2018
        assert adjusted.calibration_seed == _GHZ.calibration_seed + 14
        assert adjusted.drift_hours == pytest.approx(
            _GHZ.drift_hours + 3.0
        )
        # No fault override => the request's own profile survives.
        assert adjusted.fault_profile == _GHZ.fault_profile
        assert adjusted.fault_seed == _GHZ.fault_seed

    def test_fault_profile_override(self):
        spec = ReplicaSpec(
            index=1,
            name="replica-1",
            fault_profile="flaky",
            fault_seed_offset=101,
        )
        adjusted = spec.adjust(_GHZ)
        assert adjusted.fault_profile == "flaky"
        assert adjusted.fault_seed == _GHZ.fault_seed + 101

    def test_validation(self):
        with pytest.raises(ServiceError):
            ReplicaSpec(index=-1, name="bad")
        with pytest.raises(ServiceError):
            ReplicaSpec(index=0, name="bad", calibration_window_hours=0.0)


class TestFleetSpec:
    def test_create_strides_and_identity_head(self):
        fleet = FleetSpec.create(3, stagger_hours=2.0)
        assert fleet.size == 3
        assert fleet.replicas[0].is_identity
        assert fleet.replicas[1].seed_offset == 1009
        assert fleet.replicas[2].seed_offset == 2018
        assert fleet.replicas[2].drift_offset_hours == pytest.approx(4.0)

    def test_fault_profiles_cycle_over_tail_replicas_only(self):
        fleet = FleetSpec.create(4, fault_profiles=("flaky", "slow"))
        assert fleet.replicas[0].fault_profile is None  # identity head
        assert fleet.replicas[1].fault_profile == "flaky"
        assert fleet.replicas[2].fault_profile == "slow"
        assert fleet.replicas[3].fault_profile == "flaky"

    def test_validation(self):
        with pytest.raises(ServiceError):
            FleetSpec.create(0)
        with pytest.raises(ServiceError):
            FleetSpec.create(2, seed_stride=0)
        with pytest.raises(ServiceError):
            FleetSpec(
                replicas=(ReplicaSpec(index=1, name="misnumbered"),)
            )
        with pytest.raises(ServiceError):
            FleetSpec(
                replicas=(
                    ReplicaSpec(index=0, name="drifted", seed_offset=7),
                )
            )


# ---------------------------------------------------------------------------
# Replica ledger: the signals the router reads
# ---------------------------------------------------------------------------
class TestFleetReplica:
    def test_batch_accounting(self):
        replica = FleetReplica(ReplicaSpec(index=0, name="replica-0"))
        assert replica.begin_batch(3) == 3
        assert replica.begin_batch(2) == 5
        replica.finish_batch(3, device_time_us=600.0)
        assert replica.queue_depth == 2
        replica.finish_batch(2, device_time_us=400.0)
        snapshot = replica.snapshot()
        assert snapshot["queue_depth"] == 0
        assert snapshot["peak_queue_depth"] == 5
        assert snapshot["jobs"] == 5
        assert snapshot["batches"] == 2
        assert snapshot["device_time_us"] == pytest.approx(1000.0)

    def test_affinity_is_bounded_lru(self):
        replica = FleetReplica(
            ReplicaSpec(index=0, name="replica-0"), affinity_capacity=4
        )
        replica.note_signature([b"a", b"b", b"c", b"d"])
        replica.note_signature([b"e"])  # evicts the oldest (b"a")
        assert replica.affinity([b"a"]) == 0.0
        assert replica.affinity([b"e"]) == 1.0
        assert replica.affinity([b"d", b"zz"]) == 0.5
        assert replica.affinity([]) == 0.0

    def test_freshness_staggers_and_wraps(self):
        fleet = FleetSpec.create(2, stagger_hours=1.0, window_hours=4.0)
        fresh = FleetReplica(fleet.replicas[0])
        staggered = FleetReplica(fleet.replicas[1])
        assert fresh.freshness() == pytest.approx(1.0)
        assert staggered.freshness() == pytest.approx(0.75)
        # Half an hour of device time ages the window linearly...
        fresh.finish_batch(1, device_time_us=0.5 * 3_600e6)
        assert fresh.freshness() == pytest.approx(1.0 - 0.5 / 4.0)
        # ...and a full window snaps back to freshly calibrated.
        fresh.finish_batch(1, device_time_us=3.5 * 3_600e6)
        assert fresh.freshness() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Router policy
# ---------------------------------------------------------------------------
class TestFleetRouter:
    def test_deterministic_tie_break_prefers_lowest_index(self):
        service = FleetService(4, dedup=False)
        binding = service.bind("t/1", "t", _GHZ)
        assert binding.index == 0
        assert binding.decision.reason == "balance"

    def test_sticky_binding_survives_ledger_changes(self):
        service = FleetService(3, dedup=False)
        first = service.bind("t/1", "t", _GHZ)
        # Pile load onto the bound replica: stickiness must still win.
        first.replica.begin_batch(50)
        again = service.router.place(
            service.replicas, "t/1", tenant="t"
        )
        assert again.replica == first.index
        assert again.reason == "sticky"
        assert service.router.counters()["sticky_hits"] == 1
        service.release(first)
        assert service.router.binding("t/1") is None

    def test_distinct_programs_spread_by_binding_load(self):
        service = FleetService(3, dedup=False)
        placed = [
            service.bind(f"t{i}/1", f"t{i}", spec).index
            for i, spec in enumerate(
                (_GHZ, _BV, replace(_GHZ, program="QAOA_n5"))
            )
        ]
        # No shared prefixes, equal freshness: each new binding is
        # pushed off the already-loaded replicas.
        assert placed == [0, 1, 2]

    def test_same_program_tenants_colocate_by_affinity(self):
        service = FleetService(3, dedup=False)
        first = service.bind("a/1", "a", _GHZ)
        second = service.bind("b/1", "b", _GHZ)
        assert second.index == first.index
        assert second.decision.reason == "affinity"

    def test_tenant_returns_to_its_previous_replica(self):
        service = FleetService(3, dedup=False)
        first = service.bind("a/1", "a", _BV)
        service.release(first)
        # New program (no prefix affinity), yet the tenant's history
        # pulls the request back to the same replica.
        second = service.bind("a/2", "a", replace(_GHZ, program="QAOA_n5"))
        assert second.index == first.index
        assert second.decision.reason == "affinity"
        assert not second.decision.migrated

    def test_pinning_overrides_and_counts_migration(self):
        service = FleetService(3, dedup=False)
        first = service.bind("a/1", "a", _GHZ)
        assert first.index == 0
        second = service.bind("a/2", "a", replace(_GHZ, replica=2))
        assert second.index == 2
        assert second.decision.reason == "pinned"
        assert second.decision.migrated
        assert service.router.counters()["migrations"] == 1

    def test_pin_out_of_range_rejected(self):
        service = FleetService(2, dedup=False)
        with pytest.raises(ServiceError):
            service.bind("a/1", "a", replace(_GHZ, replica=5))

    def test_replay_places_verbatim_and_validates_range(self):
        service = FleetService(3, dedup=False, replay={"a/1": 2})
        assert service.bind("a/1", "a", _GHZ).index == 2
        assert service.bind("a/1", "a", _GHZ).decision.reason == "sticky"
        bad = FleetService(3, dedup=False, replay={"a/1": 9})
        with pytest.raises(ServiceError):
            bad.bind("a/1", "a", _GHZ)
        # Unlisted keys fall back to live scoring.
        assert service.bind("b/1", "b", _BV).index in range(3)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ServiceError):
            FleetRouter().place([], "a/1")

    def test_placement_map_replays_identically(self):
        first = FleetService(3, dedup=False)
        keys = [("a/1", "a", _GHZ), ("b/1", "b", _BV), ("a/2", "a", _GHZ)]
        for key, tenant, spec in keys:
            first.bind(key, tenant, spec)
        recorded = first.placement_map()
        second = FleetService(3, dedup=False, replay=recorded)
        for key, tenant, spec in keys:
            assert second.bind(key, tenant, spec).index == recorded[key]
        assert second.placement_map() == recorded


# ---------------------------------------------------------------------------
# Backend facade
# ---------------------------------------------------------------------------
class _FakeResult:
    def __init__(self, duration_us):
        self.duration_us = duration_us


class _FakeBackend:
    name = "fake"

    def submit_batch(self, jobs, parallel=False):
        return [_FakeResult(10.0) for _ in jobs]

    def cache_stats(self):
        return {"hits": 7}


class _TolerantFakeBackend(_FakeBackend):
    def submit_batch_tolerant(self, jobs, parallel=False):
        # Last job fails (None slot), contributing no device time.
        return [_FakeResult(10.0) for _ in jobs[:-1]] + [None]


class TestFleetBackend:
    def test_accounts_batches_to_the_replica_ledger(self):
        replica = FleetReplica(ReplicaSpec(index=0, name="replica-0"))
        backend = FleetBackend(_FakeBackend(), replica)
        results = backend.submit_batch([object()] * 3)
        assert len(results) == 3
        assert replica.queue_depth == 0
        assert replica.peak_queue_depth == 3
        assert replica.jobs == 3
        assert replica.device_time_us == pytest.approx(30.0)
        assert backend.name == "fleet[replica-0]/fake"
        # Undefined attributes resolve on the wrapped backend (the
        # executor's diff-based stats absorption relies on this).
        assert backend.cache_stats() == {"hits": 7}

    def test_tolerant_path_only_when_inner_supports_it(self):
        replica = FleetReplica(ReplicaSpec(index=0, name="replica-0"))
        plain = FleetBackend(_FakeBackend(), replica)
        # The executor probes with getattr(); the facade must not
        # pretend to support per-job failure reporting.
        assert getattr(plain, "submit_batch_tolerant", None) is None
        tolerant = FleetBackend(_TolerantFakeBackend(), replica)
        results = tolerant.submit_batch_tolerant([object()] * 3)
        assert results[-1] is None
        assert replica.jobs == 3
        # Failed slots burn no device time.
        assert replica.device_time_us == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# Tentpole: fleet-vs-standalone bit-equivalence
# ---------------------------------------------------------------------------
def test_one_replica_fleet_matches_standalone():
    with AngelService(num_workers=2, fleet=1) as service:
        outcome = service.submit("alice", _GHZ).result(timeout=300)
        report = service.fleet_report()
    _assert_bit_identical(outcome, _reference(_GHZ))
    assert outcome.fleet_replica == 0
    assert report["size"] == 1
    assert report["replicas"][0]["jobs"] > 0
    assert report["replicas"][0]["device_time_us"] > 0


@pytest.mark.parametrize("fleet_size", [2, 4])
def test_pinned_request_invariant_under_other_traffic(fleet_size):
    fleet_spec = FleetSpec.create(fleet_size, stagger_hours=1.5)
    fixed = replace(_GHZ, replica=1)
    reference = _reference(fleet_spec.replicas[1].adjust(fixed))
    noise_mixes = (
        {},  # alone on the fleet
        {"noise-0": [_BV, _GHZ]},  # free-routed neighbours
        {  # neighbours pinned onto (and off) the fixed request's replica
            "noise-0": [replace(_BV, replica=1)],
            "noise-1": [replace(_GHZ, replica=0)],
        },
    )
    for noise in noise_mixes:
        with AngelService(num_workers=3, fleet=fleet_spec) as service:
            handles = [
                service.submit(tenant, spec)
                for tenant, specs in noise.items()
                for spec in specs
            ]
            outcome = service.submit("fixed", fixed).result(timeout=300)
            for handle in handles:
                handle.result(timeout=300)
        assert outcome.fleet_replica == 1
        _assert_bit_identical(outcome, reference)


def test_outcome_reference_is_the_adjusted_replica_spec():
    # Free routing: whatever replica the router picked, the outcome is
    # bit-identical to run_standalone on that replica's adjusted spec.
    fleet_spec = FleetSpec.create(3, stagger_hours=2.0)
    with AngelService(num_workers=2, fleet=fleet_spec) as service:
        outcomes = [
            service.submit(f"t{i}", spec).result(timeout=300)
            for i, spec in enumerate((_GHZ, _BV))
        ]
    for spec, outcome in zip((_GHZ, _BV), outcomes):
        adjusted = fleet_spec.replicas[outcome.fleet_replica].adjust(spec)
        _assert_bit_identical(outcome, _reference(adjusted))


# ---------------------------------------------------------------------------
# Dedup partitioning
# ---------------------------------------------------------------------------
def test_dedup_partitions_never_cross_replicas():
    pinned = replace(_GHZ, replica=1)
    with AngelService(num_workers=1, fleet=2) as service:
        solo = service.submit("solo", pinned).result(timeout=300)
    with AngelService(num_workers=1, fleet=2) as service:
        # Warm replica 0's partition with the same program first...
        service.submit("warm", replace(_GHZ, replica=0)).result(timeout=300)
        # ...then compile on replica 1: none of those publishes may leak.
        cross = service.submit("solo", pinned).result(timeout=300)
        stats = {row["partition"]: row for row in service.store_stats()}
        assert service.store is None  # no shared store in fleet mode
    assert cross.dedup_hits == solo.dedup_hits
    _assert_bit_identical(cross, solo)
    assert stats["replica-0"]["publishes"] > 0
    assert stats["replica-1"]["publishes"] > 0


def test_same_replica_requests_still_dedup():
    with AngelService(num_workers=1, fleet=2) as service:
        first = service.submit("a", replace(_GHZ, replica=0)).result(
            timeout=300
        )
        second = service.submit("b", replace(_GHZ, replica=0)).result(
            timeout=300
        )
        stats = {row["partition"]: row for row in service.store_stats()}
    _assert_bit_identical(first, _reference(_GHZ))
    _assert_bit_identical(second, _reference(_GHZ))
    assert second.dedup_hits > 0
    assert (
        first.dedup_hits + second.dedup_hits == stats["replica-0"]["hits"]
    )


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
def test_fleet_emits_spans_and_counters():
    from repro.obs import MetricsRegistry, Tracer
    from repro.obs import runtime as obs

    tracer = Tracer()
    registry = MetricsRegistry()
    previous = obs.install(tracer, registry)
    try:
        with AngelService(num_workers=1, fleet=2) as service:
            service.submit("alice", replace(_GHZ, replica=1)).result(
                timeout=300
            )
    finally:
        obs.uninstall(previous)
    dispatch = [s for s in tracer.spans if s.name == "fleet.dispatch"]
    assert dispatch
    assert {s.attributes["replica"] for s in dispatch} == {"replica-1"}
    assert all(s.attributes["jobs"] > 0 for s in dispatch)
    assert all(
        s.attributes["device_time_us"] >= 0.0 for s in dispatch
    )
    counters = registry.snapshot()["counters"]
    assert counters["fleet.placements"] == 1
    assert counters["fleet.placements.pinned"] == 1
    assert counters["fleet.replica.1.placements"] == 1
    assert counters["fleet.replica.1.jobs"] > 0
    assert "fleet.replica.0.jobs" not in counters


def test_fleet_report_shape():
    with AngelService(num_workers=1, fleet=2) as service:
        service.submit("alice", _GHZ).result(timeout=300)
        report = service.fleet_report()
    assert report["size"] == 2
    names = [replica["name"] for replica in report["replicas"]]
    assert names == ["replica-0", "replica-1"]
    for replica in report["replicas"]:
        assert {
            "queue_depth",
            "peak_queue_depth",
            "jobs",
            "batches",
            "device_time_us",
            "freshness",
            "store",
        } <= set(replica)
        assert replica["queue_depth"] == 0  # drained at rest
    router = report["router"]
    assert router["placements"] == 1
    assert 0.0 <= router["affinity_hit_ratio"] <= 1.0


def test_fleet_report_none_outside_fleet_mode():
    with AngelService(num_workers=1) as service:
        assert service.fleet_report() is None
        rows = service.store_stats()
    assert [row["partition"] for row in rows] == ["shared"]
