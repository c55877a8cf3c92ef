"""The analysis daemon: bounded concurrency over scoped engine contexts.

``python -m repro serve`` runs an asyncio HTTP daemon that accepts
analysis requests (:mod:`repro.serve.requests`), executes each inside a
*scoped* :class:`~repro.context.EngineContext` with a unique
correlation ID, and answers with the verdict plus a per-request
telemetry slice.  The concurrency story, end to end:

* **Backpressure** — accepted requests enter a bounded queue; when it
  is full the daemon answers 429 immediately instead of buffering
  (memory stays bounded no matter how fast clients push).
* **Batching** — the dispatcher drains consecutive queued requests
  that target the *same* interned system (equal ``system_key``) into
  one batch sharing one engine context, so the batch shares a single
  warm ``compiled_systems`` entry (visible as a nonzero
  ``compiled_eval.hit``/``system_hit`` rate).
* **Timeouts & cancellation** — each request runs in a worker thread
  under ``asyncio.wait_for``; on timeout the client gets 408 and the
  batch context is *abandoned, not absorbed* — the timed-out thread
  may still be writing into it, so its telemetry is forfeit rather
  than racily merged (counted as ``serve.context_abandoned``).
* **Correlation** — every accepted request is stamped a fresh
  ``journal.new_corr_id()``; contexts created for its execution carry
  that ID explicitly (never inherited from a sibling — see
  :func:`repro.context.fresh`).
* **Graceful shutdown** — ``POST /shutdown`` (or SIGINT) stops
  accepting, drains queued work within a grace period, fails the
  remainder with 503, and merges every surviving batch context's
  ``telemetry()`` into the daemon root via ``absorb()`` so nothing
  observable is lost.

Endpoints: ``POST /analyze``, ``GET /healthz``, ``GET /stats``,
``GET /metrics`` (Prometheus text), ``POST /shutdown``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro import context, perf
from repro.obs import journal as journal_mod
from repro.obs import metrics as metrics_mod
from repro.obs import spans as spans_mod
from repro.semantics.backend import backend_names
from repro.serve import http
from repro.serve import requests as req_mod

#: Journal events echoed back per response.
TELEMETRY_JOURNAL_TAIL = 20


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs; defaults suit local use and the test-suite."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, report the bound port
    workers: int = 2
    queue_size: int = 64
    max_batch: int = 8
    request_timeout_s: float = 30.0
    shutdown_grace_s: float = 5.0
    max_body_bytes: int = http.DEFAULT_MAX_BODY_BYTES
    system_cache_size: int = 32
    #: Semantics backend used when a request does not name one
    #: (``python -m repro serve --backend ...``).
    default_backend: str = "belief"
    #: Honour the ``delay_s`` request field (test hook for exercising
    #: timeouts and backpressure; never enable when facing clients).
    debug_delays: bool = False


class QueueFull(Exception):
    """The admission queue is at capacity; reject, don't buffer."""


class QueueClosed(Exception):
    """The daemon is draining; no new work is admitted."""


@dataclass
class _Job:
    request: req_mod.AnalysisRequest
    corr_id: str
    future: asyncio.Future
    enqueued_at: float


class _JobQueue:
    """A bounded FIFO with same-system batch draining.

    ``get_batch`` pops the head job, then greedily drains *consecutive*
    queued jobs with the same ``system_key`` (up to ``max_batch``).
    Consecutive-only keeps admission order fair: a burst against one
    system batches, but a lone request never waits behind an unrelated
    batch that arrived after it.
    """

    def __init__(self, maxsize: int, max_batch: int) -> None:
        self._jobs: list[_Job] = []
        self._maxsize = maxsize
        self._max_batch = max(1, max_batch)
        self._closed = False
        self._condition = asyncio.Condition()

    def __len__(self) -> int:
        return len(self._jobs)

    async def put(self, job: _Job) -> None:
        async with self._condition:
            if self._closed:
                raise QueueClosed
            if len(self._jobs) >= self._maxsize:
                raise QueueFull
            self._jobs.append(job)
            self._condition.notify()

    async def get_batch(self) -> list[_Job] | None:
        """The next batch, or None when closed and drained."""
        async with self._condition:
            while not self._jobs and not self._closed:
                await self._condition.wait()
            if not self._jobs:
                return None  # closed and drained
            head = self._jobs.pop(0)
            batch = [head]
            while (self._jobs and len(batch) < self._max_batch
                   and self._jobs[0].request.system_key
                   == head.request.system_key):
                batch.append(self._jobs.pop(0))
            return batch

    async def close(self) -> list[_Job]:
        """Stop admissions; returns jobs still queued (caller decides
        whether workers drain them or they are failed outright)."""
        async with self._condition:
            self._closed = True
            self._condition.notify_all()
            return list(self._jobs)

    async def clear(self) -> list[_Job]:
        """Remove and return every queued job (for fail-fast shutdown)."""
        async with self._condition:
            remainder = self._jobs[:]
            self._jobs.clear()
            self._condition.notify_all()
            return remainder


class AnalysisDaemon:
    """The serving loop: admission, dispatch, execution, telemetry.

    One instance owns a *root* engine context.  All steady-state
    telemetry (admission counters, per-batch absorbed counters/spans/
    journal events) accumulates there; ``/metrics`` and ``/stats``
    read it, and shard telemetry merges into it on shutdown.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.root = context.fresh("serve-root",
                                  corr_id=journal_mod.new_corr_id("serve"))
        self._queue = _JobQueue(self.config.queue_size, self.config.max_batch)
        # Headroom over the dispatch width: a timed-out request's thread
        # keeps its slot until it finishes on its own, and must not
        # starve the workers that moved on without it.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers * 2,
            thread_name_prefix="serve-exec",
        )
        self._workers: list[asyncio.Task] = []
        self._client_tasks: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._shutdown_event = asyncio.Event()
        self._started_at = time.monotonic()
        self._batch_serial = 0
        # Model caches are daemon-level (shared across batches) so equal
        # specs resolve to the *same* objects — the serial-keyed compiled
        # cache only shares work for identical System instances.
        self._model_lock = threading.Lock()
        self._systems: dict[tuple, Any] = {}
        self._reports: dict[tuple, Any] = {}

    # -- model providers -------------------------------------------------------

    def _system_for(self, request: req_mod.AnalysisRequest):
        key = request.system_key
        with self._model_lock:
            cached = self._systems.get(key)
        if cached is not None:
            return cached
        from repro.soundness.generators import GeneratorConfig, generate_system

        system = generate_system(GeneratorConfig(
            seed=request.seed, runs=request.runs,
            steps_per_run=request.steps, principals=request.principals,
        ))
        with self._model_lock:
            if len(self._systems) >= self.config.system_cache_size:
                self._systems.pop(next(iter(self._systems)))
            return self._systems.setdefault(key, system)

    def _report_for(self, name: str, logic: str):
        key = (name, logic)
        with self._model_lock:
            cached = self._reports.get(key)
        if cached is not None:
            return cached
        from repro.protocols import PROTOCOLS

        module = PROTOCOLS.get(name)
        if module is None:
            raise req_mod.RequestError(
                f"unknown protocol {name!r}; choose from: "
                f"{', '.join(sorted(PROTOCOLS))}"
            )
        from repro.analysis import analyze

        protocol = (module.ban_protocol() if logic == "ban"
                    else module.at_protocol())
        report = analyze(protocol)
        with self._model_lock:
            return self._reports.setdefault(key, report)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listener, start workers; returns (host, port)."""
        loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port,
            limit=http.MAX_HEADER_BYTES,
        )
        self._workers = [
            loop.create_task(self._worker_loop(index), name=f"serve-worker-{index}")
            for index in range(self.config.workers)
        ]
        host, port = self._server.sockets[0].getsockname()[:2]
        self.root.journal.record(
            "serve_start", corr=self.root.corr_id, host=host, port=port,
            workers=self.config.workers, queue=self.config.queue_size,
        )
        return host, port

    @property
    def port(self) -> int:
        assert self._server is not None, "daemon not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        await self._shutdown_event.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain (or fail) queued work, merge telemetry."""
        if self._draining:
            return  # a shutdown is already in flight; let it finish
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if not drain:
            for job in await self._queue.clear():
                self._fail(job, 503, "daemon is shutting down")
        await self._queue.close()
        pending: set[asyncio.Task] = set()
        if self._workers:
            _done, pending = await asyncio.wait(
                self._workers, timeout=self.config.shutdown_grace_s)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        for job in await self._queue.clear():
            self._fail(job, 503, "daemon shut down before this request ran")
        # Reap idle keep-alive connections (skipping whichever handler
        # is running this shutdown — its response is already on the
        # wire and it exits on its own once we return).
        current = asyncio.current_task()
        lingering = [t for t in self._client_tasks if t is not current]
        for task in lingering:
            task.cancel()
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.root.journal.record(
            "serve_stop", corr=self.root.corr_id,
            drained=bool(drain and not pending),
        )
        self._shutdown_event.set()

    def _count(self, event: str, n: int = 1) -> None:
        """Add ``n`` to one of the daemon root's counters."""
        counters = self.root.counters
        counters[event] = counters.get(event, 0) + n

    def _fail(self, job: _Job, status: int, message: str) -> None:
        if not job.future.done():
            job.future.set_result((status, {
                "error": message, "corr_id": job.corr_id,
            }))

    # -- dispatch --------------------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._queue.get_batch()
            if batch is None:
                return
            self._batch_serial += 1
            batch_ctx = context.fresh(
                f"serve-batch-{self._batch_serial}",
                corr_id=batch[0].corr_id,
            )
            self._count("serve.batches")
            if len(batch) > 1:
                self._count("serve.batched_requests", len(batch))
            for position, job in enumerate(batch):
                if job.future.done():
                    continue
                try:
                    status, payload = await asyncio.wait_for(
                        loop.run_in_executor(
                            self._executor, self._run_one, batch_ctx, job),
                        timeout=self.config.request_timeout_s,
                    )
                except asyncio.TimeoutError:
                    self._fail(job, 408, "analysis exceeded "
                               f"{self.config.request_timeout_s}s")
                    self._count("serve.timeouts")
                    # The abandoned thread may still be writing into
                    # batch_ctx: forfeit its telemetry instead of merging
                    # a context that is not quiescent.
                    self._count("serve.context_abandoned")
                    remaining = batch[position + 1:]
                    if remaining:
                        batch_ctx = context.fresh(
                            f"serve-batch-{self._batch_serial}-retry",
                            corr_id=remaining[0].corr_id,
                        )
                    else:
                        batch_ctx = None
                    continue
                if not job.future.done():
                    job.future.set_result((status, payload))
            if batch_ctx is not None:
                self.root.absorb(batch_ctx.telemetry())

    def _run_one(self, batch_ctx: context.EngineContext,
                 job: _Job) -> tuple[int, dict[str, Any]]:
        """Execute one request inside the batch context (worker thread)."""
        with context.use(batch_ctx):
            with journal_mod.correlation(job.corr_id):
                counters_before = dict(batch_ctx.counters)
                journal_mark = batch_ctx.journal.mark()
                span_mark = batch_ctx.spans.mark()
                started = time.monotonic()
                status = 200
                try:
                    if self.config.debug_delays and job.request.delay_s:
                        time.sleep(job.request.delay_s)
                    with spans_mod.span("serve.request",
                                        corr=job.corr_id,
                                        kind=job.request.kind):
                        document = req_mod.execute(
                            job.request, self._system_for, self._report_for)
                except Exception as exc:
                    recoverable = isinstance(
                        exc, (req_mod.RequestError, req_mod.ReproError))
                    status = 400 if recoverable else 500
                    document = {"error": req_mod.describe_error(exc)}
                    batch_ctx.journal.record(
                        "serve_error", corr=job.corr_id, status=status,
                        error=type(exc).__name__,
                    )
                document["corr_id"] = job.corr_id
                document["telemetry"] = self._telemetry_slice(
                    batch_ctx, job, counters_before, journal_mark,
                    span_mark, started)
                return status, document

    def _telemetry_slice(self, batch_ctx, job, counters_before,
                         journal_mark, span_mark, started) -> dict[str, Any]:
        """What this request did to its context, as response metadata."""
        delta = {
            event: count - counters_before.get(event, 0)
            for event, count in batch_ctx.counters.items()
            if count != counters_before.get(event, 0)
        }
        own_spans = batch_ctx.spans.delta_since(span_mark)
        return {
            "corr_id": job.corr_id,
            "elapsed_ms": round((time.monotonic() - started) * 1000, 3),
            "context": batch_ctx.name,
            "counters": delta,
            "spans": spans_mod.summarize(own_spans),
            "journal_tail": batch_ctx.journal.delta_since(
                journal_mark)[-TELEMETRY_JOURNAL_TAIL:],
            "snapshot": {
                "perf": perf.snapshot(),
                "journal": batch_ctx.journal.depth(),
            },
        }

    # -- HTTP ------------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while True:
                try:
                    request = await http.read_request(
                        reader, self.config.max_body_bytes)
                except http.HttpError as exc:
                    await http.write_response(
                        writer, exc.status,
                        {"error": exc.message}, keep_alive=False)
                    return
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                if request is None:
                    return
                status, payload = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._draining
                await http.write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels idle keep-alive handlers (and loop
            # teardown cancels stragglers); ending normally keeps the
            # streams protocol callback from logging the cancellation.
            pass
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _dispatch(self, request: http.Request) -> tuple[int, Any]:
        route = (request.method, request.path)
        if route == ("POST", "/analyze"):
            return await self._handle_analyze(request)
        if route == ("GET", "/healthz"):
            return 200, {
                "status": "draining" if self._draining else "ok",
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "queued": len(self._queue),
            }
        if route == ("GET", "/stats"):
            return 200, self._stats()
        if route == ("GET", "/metrics"):
            with context.use(self.root):
                snapshot = metrics_mod.unified_snapshot()
            return 200, metrics_mod.to_prometheus(snapshot)
        if route == ("POST", "/shutdown"):
            asyncio.get_running_loop().create_task(self.shutdown(drain=True))
            return 200, {"status": "shutting down", "draining": True}
        if request.path in ("/analyze", "/shutdown", "/healthz",
                            "/stats", "/metrics"):
            return 405, {"error": f"{request.method} not allowed "
                                  f"on {request.path}"}
        return 404, {"error": f"no such endpoint {request.path!r}"}

    async def _handle_analyze(self, request: http.Request) -> tuple[int, Any]:
        if self._draining:
            return 503, {"error": "daemon is draining; not accepting work"}
        try:
            parsed = req_mod.parse_request(
                request.json(),
                default_backend=self.config.default_backend,
            )
        except http.HttpError as exc:
            return exc.status, {"error": exc.message}
        except req_mod.RequestError as exc:
            self._count("serve.bad_requests")
            return 400, {"error": str(exc)}
        # Satellite 3: every request gets a *fresh* correlation ID here —
        # sibling requests must never share one (fresh() would inherit).
        corr_id = journal_mod.new_corr_id("req")
        job = _Job(
            request=parsed, corr_id=corr_id,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=time.monotonic(),
        )
        try:
            await self._queue.put(job)
        except QueueFull:
            self._count("serve.rejected")
            return 429, {"error": "queue full; retry later",
                         "queued": len(self._queue),
                         "corr_id": corr_id}
        except QueueClosed:
            return 503, {"error": "daemon is draining; not accepting work"}
        self._count("serve.accepted")
        if parsed.kind == "system":
            self._count(f"serve.backend.{parsed.backend}")
        self.root.journal.record(
            "serve_accept", corr=corr_id, request_kind=parsed.kind,
            queued=len(self._queue),
        )
        status, payload = await job.future
        return status, payload

    def _stats(self) -> dict[str, Any]:
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queued": len(self._queue),
            "draining": self._draining,
            "counters": dict(self.root.counters),
            "cached_systems": len(self._systems),
            "cached_reports": len(self._reports),
            "corr_id": self.root.corr_id,
            "default_backend": self.config.default_backend,
            "backends": list(backend_names()),
        }


async def run_daemon(config: ServeConfig | None = None) -> None:
    """Start a daemon and serve until ``/shutdown`` or cancellation."""
    daemon = AnalysisDaemon(config)
    host, port = await daemon.start()
    print(f"repro serve: listening on http://{host}:{port} "
          f"(workers={daemon.config.workers}, "
          f"queue={daemon.config.queue_size})")
    try:
        await daemon.serve_until_shutdown()
    except asyncio.CancelledError:
        await daemon.shutdown(drain=True)
        raise
