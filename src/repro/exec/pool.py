"""A persistent, cache-aware worker pool for parallel batch execution.

The previous parallel path spun up a fresh ``ProcessPoolExecutor`` per
batch: the whole device was re-pickled into every worker each time, and
any channel/simulation-cache state a worker built was thrown away on
teardown — the PR 3 cache hierarchy only ever warmed in the parent.
:class:`WorkerPool` fixes all three costs at once:

* **Persistence** — workers are spawned once (lazily, on the first
  parallel batch) and live until :meth:`close`, the owning backend is
  garbage-collected, or interpreter exit (``weakref.finalize`` doubles
  as the atexit safety net). Each worker holds a long-lived device
  replica whose ChannelCache / SimulationCache warm across batches.
* **Epoch-delta synchronization** — instead of re-pickling the device
  per batch, the pool ships each worker only the parent's current
  ``drift_epoch`` plus the noise-parameter values that changed since
  that worker last synced (:meth:`~repro.device.device.
  RigettiAspenDevice.parameter_delta`). Workers apply the delta through
  :meth:`~repro.device.device.RigettiAspenDevice.
  apply_parameter_state`, which invalidates their caches exactly as the
  in-process ``advance_time`` contract does — a worker can never serve
  a stale-epoch distribution, and pooled counts stay bit-identical to
  the off-pool snapshot path.
* **Prefix-affinity scheduling** — jobs are grouped by their
  :func:`~repro.sim.circuit_compiler.instruction_hash_chain` so
  candidates sharing a CopyCat prefix (localized search's
  mass-replacement candidates differ at one link's sites) land on the
  same worker, where the worker's own
  :class:`~repro.sim.sim_cache.PrefixStateCache` replays the shared
  prefix once. Dispatch is chunked — one message per worker per batch —
  to amortize IPC; with affinity off, assignment falls back to
  round-robin.

The protocol is deliberately tiny: length-prefixed pickles over one
``multiprocessing.Pipe`` per worker. The pool counts every byte it
ships (``ship_bytes``) and harvests each worker's cache counters with
every reply, so ``--stats`` can show whether affinity is actually
paying.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import pickle
import weakref
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..obs import runtime as obs
from ..sim.circuit_compiler import instruction_hash_chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuit.circuit import QuantumCircuit
    from ..device.device import RigettiAspenDevice

__all__ = ["WorkerPool", "PoolRunInfo", "default_max_workers"]

#: Fraction of a job's chain that must match its predecessor on the
#: same worker for the placement to count as an affinity hit.
_AFFINITY_HIT_FRACTION = 0.5

#: Worker cache counters that are monotonic and therefore safe to
#: harvest as deltas into the parent's merged cache statistics. Gauges
#: (entry counts, resident bytes, epochs) are deliberately excluded.
_MONOTONIC_COUNTERS = (
    "hits",
    "misses",
    "evictions",
    "invalidations",
    "dist_hits",
    "dist_misses",
    "dist_evictions",
    "lower_hits",
    "lower_misses",
    "ops_replayed",
    "ops_skipped",
    "prefix_hits",
    "prefix_misses",
    "prefix_stores",
    "prefix_evictions",
    "sim_invalidations",
    "batch_dedup_hits",
    "batch_groups",
    "batch_candidates",
    "clifford_fast_hits",
    "clifford_fallbacks",
)


def default_max_workers() -> int:
    """Pool size when the caller does not pin one (capped: probe
    batches are small and the contraction kernel is memory-bound)."""
    return max(1, min(4, os.cpu_count() or 1))


class PoolRunInfo:
    """Per-batch accounting handed back to the owning backend.

    Attributes:
        affinity_hits: Jobs placed on a worker right after a job sharing
            at least half their instruction-prefix chain.
        ship_bytes: Bytes pickled and shipped to workers for this batch
            (sync deltas + chunked circuit payloads).
        cache_deltas: Summed monotonic cache-counter deltas harvested
            from the workers that ran this batch.
        epochs: Drift epoch each participating worker reported after
            computing — by construction all equal to the parent's epoch
            at dispatch time.
    """

    def __init__(self) -> None:
        self.affinity_hits = 0
        self.ship_bytes = 0
        self.cache_deltas: Dict[str, int] = {}
        self.epochs: List[int] = []


class _Worker:
    """Parent-side handle: a process, its pipe, and its sync state."""

    def __init__(self, process, connection, synced_state, synced_epoch):
        self.process = process
        self.connection = connection
        self.synced_state: Dict[Tuple, float] = synced_state
        self.synced_epoch: int = synced_epoch
        self.last_counters: Dict[str, int] = {}


class WorkerPool:
    """Persistent device-replica workers behind a LocalBackend.

    Args:
        device: The parent device; pickled once per worker at spawn
            (cache contents are stripped by the device's ``__getstate__``,
            so the payload is parameters + topology, not memo tables).
        num_workers: Pool size (``None`` = :func:`default_max_workers`).
        affinity: Group prefix-sharing jobs onto the same worker
            (otherwise round-robin).
    """

    def __init__(
        self,
        device: "RigettiAspenDevice",
        num_workers: Optional[int] = None,
        affinity: bool = True,
    ) -> None:
        self.device = device
        self.num_workers = int(num_workers or default_max_workers())
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.affinity = affinity
        self.ship_bytes = 0  # spawn payloads; per-batch bytes in RunInfo
        self.last_sync_epoch = device.drift_epoch
        self._closed = False
        context = multiprocessing.get_context()
        payload = pickle.dumps(device, protocol=pickle.HIGHEST_PROTOCOL)
        state = device.parameter_state()
        self._workers: List[_Worker] = []
        processes, connections = [], []
        try:
            for _ in range(self.num_workers):
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=_pool_worker_main,
                    args=(child_conn, payload),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.ship_bytes += len(payload)
                processes.append(process)
                connections.append(parent_conn)
                self._workers.append(
                    _Worker(
                        process,
                        parent_conn,
                        dict(state),
                        device.drift_epoch,
                    )
                )
        except BaseException:
            _shutdown_workers(processes, connections)
            raise
        # atexit + GC safety: tears the processes down even if close()
        # is never called (registered on the lists, not the pool, so
        # the finalizer holds no reference that would keep it alive).
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, processes, connections
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed or not self._finalizer.alive

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run(
        self, circuits: Sequence["QuantumCircuit"]
    ) -> Tuple[List[Dict[str, float]], PoolRunInfo]:
        """Exact distributions for *circuits* against the parent's
        current parameter snapshot, computed across the pool.

        Results come back in submission order regardless of scheduling.
        Raises whatever a worker's simulation raised; infrastructure
        failures (dead worker, broken pipe) surface as ``OSError`` /
        ``EOFError`` for the backend's fallback to catch.
        """
        if self.closed:
            raise OSError("worker pool is closed")
        info = PoolRunInfo()
        if not circuits:
            return [], info
        tracer = obs.active_tracer()
        epoch = self.device.drift_epoch
        state = self.device.parameter_state()
        assignment, info.affinity_hits = self._assign(circuits)
        self.last_sync_epoch = epoch
        busy: List[Tuple[_Worker, List[int]]] = []
        for slot, (worker, indices) in enumerate(
            zip(self._workers, assignment)
        ):
            if not indices:
                continue
            delta = {
                key: value
                for key, value in state.items()
                if worker.synced_state.get(key) != value
            }
            dispatch_span = (
                tracer.span(
                    "pool.dispatch",
                    worker=slot,
                    jobs=len(indices),
                    epoch=epoch,
                    delta_params=len(delta),
                )
                if tracer
                else obs.NULL_SPAN
            )
            with dispatch_span:
                message = pickle.dumps(
                    ("run", epoch, delta, [circuits[i] for i in indices]),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                worker.connection.send_bytes(message)
                if tracer:
                    dispatch_span.set(ship_bytes=len(message))
            info.ship_bytes += len(message)
            worker.synced_state = dict(state)
            worker.synced_epoch = epoch
            busy.append((slot, worker, indices))
        if tracer and info.affinity_hits:
            tracer.event(
                "pool.affinity",
                hits=info.affinity_hits,
                jobs=len(circuits),
            )
        distributions: List[Optional[Dict[str, float]]] = [None] * len(
            circuits
        )
        error: Optional[BaseException] = None
        for slot, worker, indices in busy:
            reply = pickle.loads(worker.connection.recv_bytes())
            if reply[0] == "error":
                # Drain the remaining replies before raising so the
                # pool stays usable for the next batch.
                error = error or reply[1]
                if tracer:
                    tracer.event(
                        "pool.worker_error",
                        worker=slot,
                        error=type(reply[1]).__name__,
                    )
                continue
            _, results, counters, worker_epoch = reply
            info.epochs.append(worker_epoch)
            if tracer:
                tracer.event(
                    "pool.reply",
                    worker=slot,
                    jobs=len(indices),
                    epoch=worker_epoch,
                )
            for index, distribution in zip(indices, results):
                distributions[index] = distribution
            for key, value in counters.items():
                previous = worker.last_counters.get(key, 0)
                info.cache_deltas[key] = (
                    info.cache_deltas.get(key, 0) + value - previous
                )
            worker.last_counters = dict(counters)
        if error is not None:
            raise error
        return list(distributions), info  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _assign(
        self, circuits: Sequence["QuantumCircuit"]
    ) -> Tuple[List[List[int]], int]:
        """Job indices per worker, plus the affinity-hit count.

        With affinity on, jobs are ordered by their instruction-hash
        chains — prefix-sharing candidates become lexicographic
        neighbours — and split into contiguous chunks balanced by chain
        length, one chunk per worker. Off (or trivially small batches),
        round-robin.
        """
        count = len(circuits)
        chunks: List[List[int]] = [[] for _ in range(self.num_workers)]
        if not self.affinity or count <= 1 or self.num_workers == 1:
            for index in range(count):
                chunks[index % self.num_workers].append(index)
            return chunks, 0
        chains = [instruction_hash_chain(c) for c in circuits]
        order = sorted(range(count), key=lambda i: chains[i])
        total = sum(max(1, len(chains[i])) for i in order)
        accumulated = 0
        for index in order:
            slot = min(
                self.num_workers - 1,
                self.num_workers * accumulated // total,
            )
            chunks[slot].append(index)
            accumulated += max(1, len(chains[index]))
        hits = 0
        for chunk in chunks:
            for previous, current in zip(chunk, chunk[1:]):
                shared = _common_prefix(chains[previous], chains[current])
                if shared >= _AFFINITY_HIT_FRACTION * max(
                    1, len(chains[current])
                ):
                    hits += 1
        return chunks, hits


def _common_prefix(a: Tuple[bytes, ...], b: Tuple[bytes, ...]) -> int:
    """Length of the shared instruction prefix of two hash chains."""
    shared = 0
    for left, right in zip(a, b):
        if left != right:
            break
        shared += 1
    return shared


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_counters(device: "RigettiAspenDevice") -> Dict[str, int]:
    """This replica's cumulative cache counters (monotonic keys only)."""
    merged: Dict[str, int] = {}
    if device.channel_cache is not None:
        merged.update(device.channel_cache.stats())
    if device.sim_cache is not None:
        merged.update(device.sim_cache.stats())
    merged["clifford_fast_hits"] = getattr(device, "clifford_fast_hits", 0)
    merged["clifford_fallbacks"] = getattr(device, "clifford_fallbacks", 0)
    return {
        key: int(merged[key]) for key in _MONOTONIC_COUNTERS if key in merged
    }


#: Thread-count setters of the OpenBLAS builds numpy ships or links.
_BLAS_THREAD_SETTERS = tuple(
    f"{prefix}openblas_set_num_threads{suffix}"
    for prefix in ("", "scipy_") for suffix in ("", "64_")
)


def _single_thread_blas() -> None:  # pragma: no cover
    """Run every OpenBLAS loaded in this process on one thread.

    The workers already share the host's cores; each OpenBLAS copy
    (numpy and scipy may bring one each) would otherwise keep a thread
    per core that spin-waits between a contraction's small GEMMs.
    Threaded GEMM splits the output, never a sum, so results do not
    change. Best effort: a no-op without ``/proc`` or OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split()[-1] for line in maps if "openblas" in line}
            )
    except OSError:
        return
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter(1)
                break


def _pool_worker_main(connection, payload: bytes) -> None:  # pragma: no cover
    """Worker loop: sync the epoch delta, compute distributions, reply.

    Runs in the child process (excluded from parent-side coverage).
    Simulation errors are reported back and the loop continues; a
    corrupt pipe or unpicklable reply tears the worker down, which the
    parent observes as EOF and degrades gracefully.
    """
    _single_thread_blas()
    device: "RigettiAspenDevice" = pickle.loads(payload)
    while True:
        try:
            message = pickle.loads(connection.recv_bytes())
        except (EOFError, OSError):
            break
        if message[0] == "close":
            break
        try:
            _, epoch, delta, circuits = message
            device.apply_parameter_state(epoch, delta)
            results = device.noisy_distribution_batch(circuits)
            reply = (
                "ok",
                results,
                _worker_counters(device),
                device.drift_epoch,
            )
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            try:
                reply = ("error", exc)
                pickle.dumps(reply)
            except Exception:
                reply = ("error", RuntimeError(repr(exc)))
        try:
            connection.send_bytes(
                pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
            )
        except (BrokenPipeError, OSError):
            break
    connection.close()


def _shutdown_workers(processes, connections) -> None:
    """Best-effort teardown shared by close(), GC, and atexit."""
    for connection in connections:
        try:
            connection.send_bytes(
                pickle.dumps(("close",), protocol=pickle.HIGHEST_PROTOCOL)
            )
        except Exception:
            pass
    for connection in connections:
        try:
            connection.close()
        except Exception:
            pass
    for process in processes:
        process.join(timeout=1.0)
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
