"""The analysis daemon: bounded concurrency over scoped engine contexts.

``python -m repro serve`` runs an asyncio HTTP daemon that accepts
analysis requests (:mod:`repro.serve.requests`), executes each inside
its own fresh :class:`~repro.context.EngineContext` under a unique
correlation ID, and answers with the verdict plus that context's
telemetry.  The concurrency story, end to end:

* **Backpressure** — accepted requests enter a bounded
  :class:`asyncio.Queue`; when it is full the daemon answers 429
  immediately instead of buffering (memory stays bounded no matter how
  fast clients push).
* **One context per request** — a worker takes one request at a time
  and runs it in a fresh engine context, which is dropped wholesale
  when the request completes.  Only the daemon-level model caches
  (generated systems, protocol reports) outlive a request.
* **Timeouts & cancellation** — each request runs in a worker thread
  under ``asyncio.wait_for``; on timeout the client gets 408 and the
  request's context is *abandoned, not absorbed* — the timed-out
  thread may still be writing into it, so its telemetry is forfeit
  rather than racily merged (counted as ``serve.context_abandoned``).
* **Correlation** — every accepted request is stamped a fresh
  ``journal.new_corr_id()``; the context created for its execution
  carries that ID explicitly (never inherited from a sibling — see
  :func:`repro.context.fresh`).
* **Per-request telemetry** — a request's whole context *is* its
  telemetry: the response echoes its counters, span summary and
  journal tail, and the daemon absorbs its ``telemetry()`` into the
  root when the request completes, so nothing observable is lost.
* **Graceful shutdown** — ``POST /shutdown`` (or SIGINT) stops
  accepting, waits for queued work within a grace period, and fails
  the remainder with 503: a request still running when the grace runs
  out is answered 503 and its context forfeit, as on a timeout.

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

    def __post_init__(self) -> None:
        # asyncio.Queue(0) is unbounded, and without workers no request
        # is ever answered.
        if self.workers < 1 or self.queue_size < 1:
            raise ValueError("workers and queue_size must be positive, got "
                             f"{self.workers} and {self.queue_size}")


@dataclass
class _Job:
    request: req_mod.AnalysisRequest
    corr_id: str
    future: asyncio.Future


class AnalysisDaemon:
    """The serving loop: admission, dispatch, execution, telemetry.

    One instance owns a *root* engine context.  All steady-state
    telemetry (admission counters, and the counters, spans and journal
    events of every completed request's context) accumulates there;
    ``/metrics`` and ``/stats`` read it.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.root = context.fresh("serve-root",
                                  corr_id=journal_mod.new_corr_id("serve"))
        self._queue: asyncio.Queue[_Job] = asyncio.Queue(self.config.queue_size)
        # Headroom over the dispatch width: a timed-out request's thread
        # keeps its slot until it finishes on its own, and must not
        # starve the workers that moved on without it.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers * 2,
            thread_name_prefix="serve-exec",
        )
        self._workers: list[asyncio.Task] = []
        self._client_tasks: set[asyncio.Task] = set()
        #: Client handlers waiting for their connection's next request.
        self._idle_clients: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._shutdown_event = asyncio.Event()
        self._started_at = time.monotonic()
        # Model caches are daemon-level (shared across requests) so equal
        # specs resolve to the *same* objects instead of regenerating.
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
            loop.create_task(self._worker_loop(), name=f"serve-worker-{index}")
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
        """Stop accepting, drain (or fail) queued work, stop the workers."""
        if self._draining:
            return  # a shutdown is already in flight; let it finish
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if not drain:
            self._fail_queued("daemon is shutting down")
        try:
            await asyncio.wait_for(self._queue.join(),
                                   self.config.shutdown_grace_s)
            drained = drain
        except asyncio.TimeoutError:
            drained = False
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._fail_queued("daemon shut down before this request ran")
        # Every admitted request has its answer now: let the handlers
        # holding one write it, then reap idle keep-alive connections
        # (skipping whichever handler is running this shutdown — its
        # response is already on the wire and it exits on its own once
        # we return).
        current = asyncio.current_task()
        lingering = [t for t in self._client_tasks if t is not current]
        answering = [t for t in lingering if t not in self._idle_clients]
        if answering:
            await asyncio.wait(answering, timeout=self.config.shutdown_grace_s)
        for task in lingering:
            task.cancel()
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.root.journal.record(
            "serve_stop", corr=self.root.corr_id, drained=drained,
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

    def _fail_queued(self, message: str) -> None:
        """Answer every job still in the queue with 503."""
        while not self._queue.empty():
            self._fail(self._queue.get_nowait(), 503, message)
            self._queue.task_done()

    # -- dispatch --------------------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                if not job.future.done():
                    await self._execute(job)
            finally:
                self._queue.task_done()

    async def _execute(self, job: _Job) -> None:
        """Run one job in its own fresh context, then absorb the context
        into the root (or forfeit it, on a timeout) and answer."""
        request_ctx = context.fresh(f"serve-{job.corr_id}",
                                    corr_id=job.corr_id)
        try:
            result = await asyncio.wait_for(
                asyncio.get_running_loop().run_in_executor(
                    self._executor, self._run_one, request_ctx, job),
                timeout=self.config.request_timeout_s,
            )
        except asyncio.TimeoutError:
            self._fail(job, 408, "analysis exceeded "
                       f"{self.config.request_timeout_s}s")
            self._count("serve.timeouts")
            # The abandoned thread may still be writing into
            # request_ctx: forfeit its telemetry instead of merging a
            # context that is not quiescent.
            self._count("serve.context_abandoned")
            return
        except asyncio.CancelledError:
            # Shutdown's grace ran out: answer, forfeit as on a timeout.
            self._fail(job, 503, "daemon shut down while this request ran")
            self._count("serve.context_abandoned")
            raise
        self.root.absorb(request_ctx.telemetry())
        if not job.future.done():
            job.future.set_result(result)

    def _run_one(self, request_ctx: context.EngineContext,
                 job: _Job) -> tuple[int, dict[str, Any]]:
        """Execute one request inside its own context (worker thread)."""
        with context.use(request_ctx):
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
                request_ctx.journal.record(
                    "serve_error", corr=job.corr_id, status=status,
                    error=type(exc).__name__,
                )
            document["corr_id"] = job.corr_id
            document["telemetry"] = self._telemetry_slice(
                request_ctx, job, started)
            return status, document

    def _telemetry_slice(self, request_ctx, job, started) -> dict[str, Any]:
        """The request's whole context, as response metadata."""
        snapshot = perf.snapshot()
        del snapshot["counters"]  # sent once, as "counters"
        return {
            "corr_id": job.corr_id,
            "elapsed_ms": round((time.monotonic() - started) * 1000, 3),
            "context": request_ctx.name,
            "counters": dict(request_ctx.counters),
            "spans": request_ctx.spans.summary(),
            "journal_tail": request_ctx.journal.tail(TELEMETRY_JOURNAL_TAIL),
            "snapshot": {
                "perf": snapshot,
                "journal": request_ctx.journal.depth(),
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
                # Idle while it waits for a request: shutdown may reap it.
                self._idle_clients.add(task)
                try:
                    request = await http.read_request(
                        reader, self.config.max_body_bytes)
                except http.HttpError as exc:
                    self._idle_clients.discard(task)
                    await http.write_response(
                        writer, exc.status,
                        {"error": exc.message}, keep_alive=False)
                    return
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                self._idle_clients.discard(task)
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
            self._client_tasks.discard(task)
            self._idle_clients.discard(task)
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
                "queued": self._queue.qsize(),
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
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self._count("serve.rejected")
            return 429, {"error": "queue full; retry later",
                         "queued": self._queue.qsize(),
                         "corr_id": corr_id}
        self._count("serve.accepted")
        if parsed.kind == "system":
            self._count(f"serve.backend.{parsed.backend}")
        self.root.journal.record(
            "serve_accept", corr=corr_id, request_kind=parsed.kind,
            queued=self._queue.qsize(),
        )
        status, payload = await job.future
        return status, payload

    def _stats(self) -> dict[str, Any]:
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queued": self._queue.qsize(),
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
