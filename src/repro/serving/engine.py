"""Execution engines: how the coordinator resolves per-shard work.

The service (:class:`~repro.serving.sharded.ShardedRecommendationService`,
one shard by default) fans one batched request out into independent
per-shard resolution tasks (cache lookups, one ``top_k_batch`` over the
misses, stores, stat recording).  *How* those tasks run is an execution
policy, not serving semantics, so it lives behind the
:class:`ExecutionEngine` interface.  Every engine's throughput is
measured wall clock:

* :class:`SerialEngine` — the tasks run in the coordinator thread, one
  after another.  This is the default.
* :class:`ThreadedEngine` — a persistent ``ThreadPoolExecutor`` with one
  worker per shard resolves the slices concurrently.  numpy releases the
  GIL inside BLAS, and per-shard service latency (the RPC hop a remote
  shard worker costs in a real deployment) overlaps across shards.
* :class:`ProcessEngine` — one persistent single-worker
  ``ProcessPoolExecutor`` **per shard**, so CPU-heavy scoring (MF dot
  products, NeuralCF forward passes) parallelises past the GIL.  Process
  workers share no memory with the coordinator, which changes the
  architecture rather than just the scheduling: the engine only moves
  picklable messages, and the sharded service replicates each shard's
  state into its worker and keeps it in lockstep through epoch-stamped
  replication events (see :mod:`repro.serving.replica`).  Because tasks
  are *routed* (shard ``i``'s work must reach the worker holding shard
  ``i``'s replica), the process engine exposes ``submit_to``/``broadcast``
  instead of the closure-based :meth:`ExecutionEngine.run`.
* :class:`AsyncEngine` — per-shard slices resolve as coroutines on an
  asyncio event loop, with the modelled per-slice RPC latency paid as
  an *awaited* ``asyncio.sleep`` instead of a blocking one.  Within one
  request the slice waits overlap exactly as the threaded engine's do;
  the difference is that :meth:`AsyncEngine.run_async` is awaitable, so
  an asyncio serving front (:mod:`repro.serving.async_front`) can keep
  *many requests* in flight on one loop and overlap their RPC waits
  across requests — the only way past the per-request RPC latency floor
  a closed-loop replay pays.  The synchronous :meth:`AsyncEngine.run`
  bridge (used by closed-loop callers and the conformance suite)
  submits the same coroutine to the engine's own background loop.

Every engine also accepts ``latency_s``, the modelled per-slice RPC
latency of a remote shard worker: the serial engine pays it once per
slice in sequence, the threaded engine sleeps it on each worker (waits
overlap across shards), and the async engine awaits it (waits overlap
across shards *and*, through the front, across requests).  The process
engine models it worker-side in ``replica.query_slice`` instead.

All engines resolve the same per-shard work and return results in task
order, so merged top-k output is bit-identical across engines — the
engine-conformance suite pins this for every recommender and shard
count (``tests/test_engine_conformance.py``).

The module also provides :class:`ReadWriteLock`, the coordination
primitive the service uses to let concurrent queries share the
model (readers) while injections and episode restores mutate it
exclusively (writers, with writer preference so a pending injection is
not starved by a stream of organic queries).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

from repro.errors import ConfigurationError

__all__ = [
    "ExecutionEngine",
    "SerialEngine",
    "ThreadedEngine",
    "ProcessEngine",
    "AsyncEngine",
    "make_engine",
    "ENGINES",
    "ReadWriteLock",
]

T = TypeVar("T")

#: Engine mode names accepted by ``ServingConfig.engine`` / ``make_engine``.
ENGINES = ("serial", "threaded", "process", "async")


class ExecutionEngine:
    """Strategy for running a list of independent per-shard tasks.

    Implementations must return one result per task, in task order, and
    propagate the first task exception to the caller.  Tasks touch only
    their own shard's state (each shard's lock confines its cache, quota
    windows, and counters to whichever engine thread resolves it), so
    engines need no knowledge of serving internals.

    ``shares_memory`` declares whether workers see the coordinator's
    objects directly.  When it is ``False`` (the process engine) the
    coordinator cannot hand workers closures over shared state — it must
    replicate shard state into the workers and route picklable messages
    with :meth:`submit_to`/:meth:`broadcast` instead of :meth:`run`.

    ``latency_s`` models the per-slice RPC hop a remote shard worker
    costs: each task pays it once before executing, in whatever way is
    idiomatic for the engine (sequential sleeps, per-worker sleeps, or
    awaited sleeps).  It is an execution concern — how waits schedule —
    which is why it lives here and not in the serving layer.
    """

    name: str = "?"
    #: Workers observe the coordinator's live objects (threads) rather
    #: than operating on a serialized replica (processes).
    shares_memory: bool = True
    #: Slices of one request may resolve at the same time (so shared
    #: lazy state must be rebuilt *before* fan-out, not raced during it).
    concurrent: bool = False

    def run(self, tasks: Sequence[Callable[[], T]], latency_s: float = 0.0) -> list[T]:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent; no-op for serial)."""

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialEngine(ExecutionEngine):
    """Resolve shard tasks sequentially in the calling thread.

    The modelled RPC latency is paid once per slice, in sequence — the
    historical cost profile of a coordinator that contacts its shards
    one after another.
    """

    name = "serial"

    def run(self, tasks: Sequence[Callable[[], T]], latency_s: float = 0.0) -> list[T]:
        if latency_s <= 0.0:
            return [task() for task in tasks]
        results = []
        for task in tasks:
            time.sleep(latency_s)
            results.append(task())
        return results


def _sleep_then_run(task: Callable[[], T], latency_s: float) -> T:
    """Pay the modelled RPC hop on the worker, then resolve the slice."""
    time.sleep(latency_s)
    return task()


class ThreadedEngine(ExecutionEngine):
    """Resolve shard tasks concurrently on a persistent worker pool.

    One worker per shard: a request never produces more than one task per
    shard, so ``n_workers`` threads are exactly enough to run every slice
    of a request at once, and the pool is reused across requests (thread
    startup is not paid on the query path).  Single-task requests skip
    the pool entirely — handing one task to the calling thread is cheaper
    than a submit/result round-trip and has identical semantics.
    """

    name = "threaded"
    concurrent = True

    def __init__(self, n_workers: int) -> None:
        if n_workers <= 0:
            raise ConfigurationError("ThreadedEngine needs a positive worker count")
        self.n_workers = n_workers
        self._pool = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="shard-worker"
        )
        self._closed = False

    def run(self, tasks: Sequence[Callable[[], T]], latency_s: float = 0.0) -> list[T]:
        if self._closed:
            raise ConfigurationError("ThreadedEngine is closed")
        if len(tasks) == 1:
            if latency_s > 0.0:
                time.sleep(latency_s)
            return [tasks[0]()]
        if latency_s > 0.0:
            futures = [
                self._pool.submit(_sleep_then_run, task, latency_s) for task in tasks
            ]
        else:
            futures = [self._pool.submit(task) for task in tasks]
        # Drain every sibling before surfacing a failure: the caller may
        # hold a lock covering all tasks (the sharded query's model read
        # lock), and releasing it while a slow sibling is still running
        # would let a subsequent writer mutate shared state under an
        # in-flight worker.  result() then re-raises the first (by task
        # order) failure in the caller.
        wait(futures)
        return [future.result() for future in futures]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # Safety net for services dropped without close() (e.g. a
        # config-selected threaded engine inside a long-lived experiment
        # prep): release the worker threads without blocking collection.
        try:
            if not self._closed:
                self._closed = True
                self._pool.shutdown(wait=False)
        except Exception:
            pass  # interpreter shutdown: executor internals may be gone


class ProcessEngine(ExecutionEngine):
    """Route per-shard work to one persistent worker *process* per shard.

    Unlike the threaded pool, a worker here owns a private address space:
    the sharded service installs a replica of the shard's state into it
    at pool start (see :mod:`repro.serving.replica`) and every subsequent
    interaction is a picklable message.  One single-worker
    ``ProcessPoolExecutor`` per shard — rather than one N-worker pool —
    is what makes routing deterministic: shard ``i``'s messages always
    land on the process holding shard ``i``'s replica.

    ``start_method`` defaults to ``fork`` where the platform offers it
    (workers start in milliseconds) and falls back to ``spawn``.  The
    serialization contract is identical under both: submitted functions
    and arguments always cross the process boundary through a pickled
    call pipe, so nothing can accidentally lean on inherited memory.
    Note for Python >= 3.12: forking after sibling pools have started
    their executor threads draws a ``DeprecationWarning`` (and 3.14
    changes the platform default); pass ``start_method="spawn"`` or
    ``"forkserver"`` there — everything else is start-method agnostic.
    """

    name = "process"
    shares_memory = False
    concurrent = True

    def __init__(self, n_workers: int, start_method: str | None = None) -> None:
        if n_workers <= 0:
            raise ConfigurationError("ProcessEngine needs a positive worker count")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.n_workers = n_workers
        self.start_method = start_method
        context = multiprocessing.get_context(start_method)
        self._pools = [
            ProcessPoolExecutor(max_workers=1, mp_context=context)
            for _ in range(n_workers)
        ]
        self._closed = False

    def run(self, tasks: Sequence[Callable[[], T]], latency_s: float = 0.0) -> list[T]:
        raise ConfigurationError(
            "ProcessEngine workers hold replicated shard state and cannot run "
            "coordinator closures; route picklable calls with submit_to/broadcast"
        )

    def submit_to(self, worker: int, fn: Callable, /, *args) -> Future:
        """Submit ``fn(*args)`` to worker ``worker``'s process (non-blocking).

        ``fn`` must be a module-level callable and every argument
        picklable — the call crosses the process boundary.
        """
        if self._closed:
            raise ConfigurationError("ProcessEngine is closed")
        return self._pools[worker].submit(fn, *args)

    def call(self, worker: int, fn: Callable, /, *args):
        """Synchronous :meth:`submit_to` (replication/control round trips)."""
        return self.submit_to(worker, fn, *args).result()

    def broadcast(self, fn: Callable, /, *args) -> list:
        """Run ``fn(*args)`` on every worker; results in worker order.

        Like :meth:`gather`, every worker finishes before the first
        failure (by worker order) is re-raised in the caller.
        """
        return self.gather([self.submit_to(i, fn, *args) for i in range(self.n_workers)])

    @staticmethod
    def gather(futures: Sequence[Future]) -> list:
        """Drain ``futures`` and return results in submission order.

        Mirrors the threaded engine's drain-before-raise contract: the
        caller may hold a lock covering every in-flight worker message,
        so no sibling may still be executing when this returns or raises.
        """
        wait(futures)
        return [future.result() for future in futures]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            for pool in self._pools:
                pool.shutdown(wait=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if not self._closed:
                self._closed = True
                for pool in self._pools:
                    pool.shutdown(wait=False)
        except Exception:
            pass  # interpreter shutdown: executor internals may be gone


class AsyncEngine(ExecutionEngine):
    """Resolve shard tasks as coroutines on an asyncio event loop.

    The native surface is :meth:`run_async`, a plain coroutine that runs
    on *whatever loop awaits it*: per-slice RPC latency becomes an
    awaited ``asyncio.sleep``, so the waits of every slice — and, when
    the caller is the asyncio serving front holding many requests in
    flight, of every *request* — overlap on one loop thread.  The slice
    compute itself (cache lookups, one BLAS-backed ``top_k_batch``) runs
    inline on the loop; that serialises compute across in-flight
    requests, which is the classic asyncio trade: ideal when requests
    are wait-dominated (the modelled RPC hop dwarfs post-cache compute),
    wrong when they are compute-dominated (use the threaded or process
    engine there).

    The synchronous :meth:`run` bridge exists so the engine drops into
    every closed-loop caller (the conformance suite, ``TrafficSimulator``)
    unchanged: it submits the coroutine to a private background loop and
    blocks for the result.  Calling :meth:`run` *from* that loop's own
    thread would deadlock, so it is rejected; coroutine callers must
    await :meth:`run_async` instead.
    """

    name = "async"
    concurrent = True

    def __init__(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="async-engine", daemon=True
        )
        self._thread.start()
        self._closed = False

    async def run_async(
        self, tasks: Sequence[Callable[[], T]], latency_s: float = 0.0
    ) -> list[T]:
        if self._closed:
            raise ConfigurationError("AsyncEngine is closed")

        async def resolve(task: Callable[[], T]) -> T:
            if latency_s > 0.0:
                await asyncio.sleep(latency_s)
            return task()

        # return_exceptions keeps the drain-before-raise contract every
        # engine honours: the caller may hold a lock covering all tasks,
        # so no sibling may still be running when the first (task-order)
        # failure surfaces.
        results = await asyncio.gather(
            *(resolve(task) for task in tasks), return_exceptions=True
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return list(results)

    def run(self, tasks: Sequence[Callable[[], T]], latency_s: float = 0.0) -> list[T]:
        if self._closed:
            raise ConfigurationError("AsyncEngine is closed")
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            raise ConfigurationError(
                "AsyncEngine.run called from its own event loop thread; "
                "await run_async instead"
            )
        if len(tasks) == 1 and latency_s <= 0.0:
            # Same fast path as the threaded engine: one latency-free
            # task in the caller's thread skips the loop round trip.
            return [tasks[0]()]
        future = asyncio.run_coroutine_threadsafe(
            self.run_async(list(tasks), latency_s), self._loop
        )
        return future.result()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            if not self._thread.is_alive():
                self._loop.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if not self._closed:
                self._closed = True
                self._loop.call_soon_threadsafe(self._loop.stop)
        except Exception:
            pass  # interpreter shutdown: loop internals may be gone


def make_engine(spec: str | ExecutionEngine, n_workers: int) -> ExecutionEngine:
    """Resolve an engine mode name (or pass an instance through)."""
    if isinstance(spec, ExecutionEngine):
        return spec
    if spec == "serial":
        return SerialEngine()
    if spec == "threaded":
        return ThreadedEngine(n_workers)
    if spec == "process":
        return ProcessEngine(n_workers)
    if spec == "async":
        return AsyncEngine()
    raise ConfigurationError(f"engine must be one of {ENGINES} or an ExecutionEngine")


class ReadWriteLock:
    """Readers-writer lock with writer preference.

    Queries acquire the read side (many may score concurrently against
    the shared model, which is read-only on the query path); injections
    and episode restores acquire the write side (they mutate the model
    and every shard's serving state).  A waiting writer blocks *new*
    readers, so a burst of organic queries cannot starve an injection.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # guarded-by: _cond
        self._writer_active = False  # guarded-by: _cond
        self._writers_waiting = 0  # guarded-by: _cond

    def try_acquire_read(self) -> bool:
        """Acquire the read side without blocking; False if a writer is
        active or waiting.  The async query path uses this as its fast
        path: a coroutine must never block the event-loop thread inside
        ``Condition.wait`` (a reader already holding the lock could be
        parked on the same loop, unable to resume and release — the
        classic loop-thread deadlock), so on failure it falls back to
        :meth:`acquire_read` on an executor thread.
        """
        with self._cond:
            if self._writer_active or self._writers_waiting:
                return False
            self._readers += 1
            return True

    def acquire_read(self) -> None:
        """Blocking read acquisition (pair with :meth:`release_read`)."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()
