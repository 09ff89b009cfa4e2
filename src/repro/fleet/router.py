"""The fleet router: sticky, affinity-aware placement of probe work.

Placement happens once per request, at bind time, and covers *whole*
probe-batch groups: a request's CopyCat batches never split across
replicas, because the winning sequence is only meaningful against one
coherent device-clock trajectory. Three signals score a candidate
replica (all read from the :class:`~repro.fleet.replica.FleetReplica`
ledger):

* **queue depth** — in-flight probe jobs (load balancing, negative);
* **calibration-window freshness** — how recently the replica's
  staggered calibration cadence last fired (fresher calibration means
  the noise-adaptive reference sequence is better informed);
* **prefix-cache affinity** — overlap between the request's
  ``instruction_hash_chain`` prefix and the chains recently routed to
  the replica: co-locating same-prefix requests keeps
  lowering/prefix-state caches warm and makes the replica's dedup
  partition actually hit.

Two forms of stickiness sit above the score: a request already bound
stays bound (its device-clock trajectory must stay coherent), and a
tenant's next request prefers the tenant's previous replica (same
specs ⇒ same fingerprints ⇒ dedup). Routing a tenant away from its
previous replica is counted — and observable — as a **migration**.

The router records every :class:`PlacementDecision`; a recorded
``placement_map`` can be replayed verbatim (``replay=``) so a whole
serve run can be re-executed with identical routing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ServiceError
from ..obs import runtime as obs
from .replica import FleetReplica

__all__ = ["PlacementDecision", "FleetRouter"]


@dataclass(frozen=True)
class PlacementDecision:
    """One routing outcome: which replica, and why.

    ``reason`` is one of ``pinned`` (the request spec named a replica),
    ``replay`` (a recorded placement map supplied it), ``sticky`` (the
    request was already bound), ``affinity`` (prefix/tenant affinity
    dominated the score) or ``balance`` (queue depth / freshness did).
    """

    request_key: str
    tenant: Optional[str]
    replica: int
    reason: str
    migrated: bool = False
    scores: Tuple[float, ...] = field(default=())


class FleetRouter:
    """Scores replicas and keeps the sticky request/tenant bindings.

    Args:
        affinity_weight: Weight of the prefix-chain overlap score.
        queue_weight: Penalty per queued probe job.
        binding_weight: Penalty per request currently bound to the
            replica — the load signal that is already visible at bind
            time, before the request's first batch hits the queue.
        freshness_weight: Weight of calibration-window freshness.
        tenant_affinity_bonus: Additive bonus for the tenant's previous
            replica (keeps a tenant's identical specs co-located so the
            dedup partition hits).
        replay: Optional recorded ``{request_key: replica_index}`` map;
            listed requests are placed verbatim, unlisted requests fall
            back to scoring.
    """

    def __init__(
        self,
        affinity_weight: float = 2.0,
        queue_weight: float = 0.25,
        binding_weight: float = 0.5,
        freshness_weight: float = 0.25,
        tenant_affinity_bonus: float = 1.0,
        replay: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.affinity_weight = float(affinity_weight)
        self.queue_weight = float(queue_weight)
        self.binding_weight = float(binding_weight)
        self.freshness_weight = float(freshness_weight)
        self.tenant_affinity_bonus = float(tenant_affinity_bonus)
        self._replay = dict(replay) if replay is not None else None
        self._lock = threading.Lock()
        self._bindings: Dict[str, int] = {}
        self._tenant_last: Dict[str, int] = {}
        self.decisions: List[PlacementDecision] = []
        # Counters ----------------------------------------------------
        self.placements = 0
        self.sticky_hits = 0
        self.migrations = 0
        self.by_reason: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _score(
        self,
        replica: FleetReplica,
        signature: Sequence[bytes],
        tenant_last: Optional[int],
    ) -> Tuple[float, float]:
        """(total, affinity component) for one candidate replica."""
        affinity = self.affinity_weight * replica.affinity(signature)
        if tenant_last is not None and tenant_last == replica.index:
            affinity += self.tenant_affinity_bonus
        total = (
            affinity
            + self.freshness_weight * replica.freshness()
            - self.queue_weight * replica.queue_depth
            - self.binding_weight * replica.bindings
        )
        return total, affinity

    def place(
        self,
        replicas: Sequence[FleetReplica],
        request_key: str,
        tenant: Optional[str] = None,
        signature: Sequence[bytes] = (),
        pinned: Optional[int] = None,
    ) -> PlacementDecision:
        """Choose a replica for ``request_key`` (idempotent per key)."""
        if not replicas:
            raise ServiceError("cannot place on an empty fleet")
        with self._lock:
            bound = self._bindings.get(request_key)
            if bound is not None:
                self.sticky_hits += 1
                decision = PlacementDecision(
                    request_key, tenant, bound, "sticky"
                )
                self._note_locked(decision)
                self._emit(decision, len(replicas))
                return decision
            scores = tuple(
                self._score(
                    replica, signature, self._tenant_last.get(tenant or "")
                )
                for replica in replicas
            )
            if pinned is not None:
                if not 0 <= pinned < len(replicas):
                    raise ServiceError(
                        f"request {request_key!r} pinned to replica "
                        f"{pinned}, but the fleet has {len(replicas)} "
                        "replicas"
                    )
                index, reason = pinned, "pinned"
            elif self._replay is not None and request_key in self._replay:
                index = int(self._replay[request_key])
                if not 0 <= index < len(replicas):
                    raise ServiceError(
                        f"replayed placement {index} for "
                        f"{request_key!r} is out of range"
                    )
                reason = "replay"
            else:
                best = max(
                    range(len(replicas)),
                    # Deterministic tie-break: lowest index wins.
                    key=lambda i: (scores[i][0], -i),
                )
                index = best
                reason = "affinity" if scores[best][1] > 0.0 else "balance"
            migrated = (
                tenant is not None
                and tenant in self._tenant_last
                and self._tenant_last[tenant] != index
            )
            if migrated:
                self.migrations += 1
            self._bindings[request_key] = index
            if tenant is not None:
                self._tenant_last[tenant] = index
            decision = PlacementDecision(
                request_key,
                tenant,
                index,
                reason,
                migrated=migrated,
                scores=tuple(total for total, _ in scores),
            )
            self._note_locked(decision)
            self._emit(decision, len(replicas))
            return decision

    def _note_locked(self, decision: PlacementDecision) -> None:
        self.placements += 1
        self.by_reason[decision.reason] = (
            self.by_reason.get(decision.reason, 0) + 1
        )
        self.decisions.append(decision)

    def _emit(self, decision: PlacementDecision, fleet_size: int) -> None:
        obs.event(
            "fleet.place",
            request=decision.request_key,
            tenant=decision.tenant or "",
            replica=decision.replica,
            reason=decision.reason,
            migrated=decision.migrated,
        )
        registry = obs.active_registry()
        if registry is not None:
            registry.counter("fleet.placements").add(1)
            registry.counter(f"fleet.placements.{decision.reason}").add(1)
            registry.counter(
                f"fleet.replica.{decision.replica}.placements"
            ).add(1)
            if decision.migrated:
                registry.counter("fleet.migrations").add(1)
        if decision.migrated:
            obs.event(
                "fleet.migrate",
                tenant=decision.tenant or "",
                replica=decision.replica,
            )

    # ------------------------------------------------------------------
    def release(self, request_key: str) -> None:
        """Drop a finished request's sticky binding (tenant memory stays)."""
        with self._lock:
            self._bindings.pop(request_key, None)

    def binding(self, request_key: str) -> Optional[int]:
        with self._lock:
            return self._bindings.get(request_key)

    def placement_map(self) -> Dict[str, int]:
        """First placement per request key — replayable via ``replay=``."""
        with self._lock:
            placements: Dict[str, int] = {}
            for decision in self.decisions:
                placements.setdefault(decision.request_key, decision.replica)
            return placements

    @property
    def affinity_hit_ratio(self) -> float:
        """Fraction of placements served by stickiness or affinity."""
        with self._lock:
            if not self.placements:
                return 0.0
            hits = (
                self.by_reason.get("sticky", 0)
                + self.by_reason.get("affinity", 0)
            )
            return hits / self.placements

    def counters(self) -> Dict[str, object]:
        with self._lock:
            hits = (
                self.by_reason.get("sticky", 0)
                + self.by_reason.get("affinity", 0)
            )
            return {
                "placements": self.placements,
                "sticky_hits": self.sticky_hits,
                "migrations": self.migrations,
                "by_reason": dict(self.by_reason),
                "affinity_hit_ratio": (
                    hits / self.placements if self.placements else 0.0
                ),
            }
