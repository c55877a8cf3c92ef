"""The analysis daemon: round trips, one context per request,
backpressure, drain.

The serving contract as tests:

* a request round-trips to a verdict with why-false trace and a
  checked Hilbert certificate;
* every request runs in its own fresh engine context, also when it
  queued behind another for the same system, and its response's
  telemetry is that whole context;
* requests for one generated system share the daemon's cached system,
  whatever their backend;
* a request exceeding the per-request timeout gets 408 and poisons
  nothing else;
* a full admission queue rejects fast with 429 instead of buffering;
* graceful shutdown drains in-flight work, and the daemon root holds
  every request context's telemetry losslessly; a request still running
  when the grace period runs out is answered 503;
* every response carries a unique correlation ID.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.semantics import Evaluator
from repro.serve import AnalysisDaemon, ServeConfig
from repro.serve import client, http
from repro.serve.requests import MAX_FAILURES_LISTED
from repro.soundness import GeneratorConfig, generate_system
from repro.terms.parser import parse_formula

SMALL_SYSTEM = {
    "kind": "system",
    "seed": 9,
    "runs": 2,
    "steps": 8,
    "formula": "P1 believes p0",
}


async def _post(payload, host, port, timeout=120.0):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None, lambda: client.post_json(host, port, "/analyze", payload,
                                       timeout=timeout)
    )


def _compiled_eval_totals(counter_tables):
    """The ``compiled_eval.*`` counters of ``counter_tables``, summed."""
    totals: dict[str, int] = {}
    for table in counter_tables:
        for event, count in table.items():
            if event.startswith("compiled_eval."):
                totals[event] = totals.get(event, 0) + count
    return totals


async def _get(path, host, port):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None, lambda: client.get(host, port, path)
    )


def _serve_test(config):
    """Decorator-free harness: run ``body(daemon, host, port)`` under a
    live daemon, always shutting it down."""

    def runner(body):
        async def main():
            daemon = AnalysisDaemon(config)
            host, port = await daemon.start()
            try:
                await body(daemon, host, port)
            finally:
                await daemon.shutdown(drain=True)
            return daemon

        return asyncio.run(main())

    return runner


class TestRoundTrip:
    def test_system_verdict_with_trace(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _post(dict(SMALL_SYSTEM, trace=True),
                                       host, port)
            assert status == 200
            assert body["verdict"] is False
            assert body["failures"] > 0
            assert body["failing_points"]
            assert body["why_false"].lstrip().startswith("✗")
            assert body["corr_id"].startswith("req-")
            telemetry = body["telemetry"]
            assert telemetry["corr_id"] == body["corr_id"]
            assert any(
                event.startswith("compiled_eval.")
                for event in telemetry["counters"]
            )
            assert "serve.request" in telemetry["spans"]

    def test_whole_system_verdict_reads_one_bitset(self):
        """A ground formula's verdict over every point is one truth
        bitset (at most one compiled-cache hit, not one per point), and
        its failing points are the interpreter's, in point order."""
        spec = {"kind": "system", "seed": 8, "runs": 4, "steps": 20,
                "formula": "P1 believes p0"}

        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _post(spec, host, port)
            assert status == 200
            counters = body["telemetry"]["counters"]
            assert counters.get("compiled_eval.hit", 0) <= 1
            system = generate_system(GeneratorConfig(
                seed=spec["seed"], runs=spec["runs"],
                steps_per_run=spec["steps"],
            ))
            formula = parse_formula(spec["formula"], system.vocabulary)
            interpreter = Evaluator(system)
            failing = [
                {"run": run.name, "time": k} for run, k in system.points()
                if not interpreter.evaluate(formula, run, k)
            ]
            assert body["points"] == len(list(system.points())) > 1
            assert body["verdict"] is False
            assert body["failures"] == len(failing)
            assert body["failing_points"] == failing[:MAX_FAILURES_LISTED]

    def test_protocol_goal_with_certificate(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _post(
                {"kind": "protocol", "protocol": "wide-mouth-frog",
                 "logic": "at", "goal": "B-key", "certify": True},
                host, port,
            )
            assert status == 200
            assert body["verdict"] is True
            certificate = body["certificate"]
            assert certificate["checked"] is True
            assert certificate["steps"] > 0
            assert certificate["premises"] > 0
            assert "B believes" in certificate["pretty"]

    def test_schema_violations_get_400(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            for payload, fragment in (
                ({"kind": "system"}, "formula"),
                ({"kind": "protocol"}, "protocol"),
                ({"kind": "system", "formula": "((("}, "ParseError"),
                ({"kind": "protocol", "protocol": "no-such"}, "unknown"),
                (dict(SMALL_SYSTEM, point={"run": "run-1", "time": True}),
                 "'point'"),
            ):
                status, body = await _post(payload, host, port)
                assert status == 400, body
                assert fragment in body["error"]

    def test_unknown_endpoint_and_method(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, _body = await _get("/nope", host, port)
            assert status == 404
            status, _body = await _get("/analyze", host, port)
            assert status == 405


class TestOneContextPerRequest:
    def test_queued_same_system_requests_get_their_own_contexts(
        self, monkeypatch
    ):
        clients = 6
        responses = []
        contexts = {}
        run_one = AnalysisDaemon._run_one

        def recording(self, request_ctx, job):
            contexts[job.corr_id] = request_ctx
            return run_one(self, request_ctx, job)

        monkeypatch.setattr(AnalysisDaemon, "_run_one", recording)

        @_serve_test(ServeConfig(workers=1, debug_delays=True))
        async def daemon(daemon, host, port):
            # The first request holds the single worker briefly so the
            # rest pile up in the queue behind it, all for one system.
            first = _post(dict(SMALL_SYSTEM, delay_s=0.4), host, port)
            rest = [
                _post(SMALL_SYSTEM, host, port) for _ in range(clients - 1)
            ]
            responses.extend(await asyncio.gather(first, *rest))

        assert [status for status, _ in responses] == [200] * clients
        slices = [body["telemetry"] for _, body in responses]
        assert len({body["corr_id"] for _, body in responses}) == clients
        assert len({telemetry["context"] for telemetry in slices}) == clients
        for telemetry in slices:
            counters = telemetry["counters"]
            # Each request compiled its system in its own context ...
            assert counters["compiled_eval.system_miss"] == 1
            # ... and reports that context's whole counter table, once.
            assert counters == contexts[telemetry["corr_id"]].counters
            assert "counters" not in telemetry["snapshot"]["perf"]
        assert daemon.root.counters["serve.accepted"] == clients
        # The root absorbed every request context, counter by counter.
        assert _compiled_eval_totals([daemon.root.counters]) == (
            _compiled_eval_totals(t["counters"] for t in slices))


class TestBackpressure:
    def test_timeout_returns_408_and_recovers(self):
        @_serve_test(ServeConfig(workers=1, request_timeout_s=0.2,
                                 debug_delays=True))
        async def daemon(daemon, host, port):
            status, body = await _post(
                dict(SMALL_SYSTEM, seed=10, delay_s=1.0), host, port)
            assert status == 408
            assert "corr_id" in body
            # Let the abandoned executor thread finish its sleep so the
            # follow-up request is not queued behind it.
            await asyncio.sleep(1.0)
            # The worker and its successor context are healthy.
            status, body = await _post(dict(SMALL_SYSTEM, seed=11),
                                       host, port)
            assert status == 200

        assert daemon.root.counters["serve.timeouts"] == 1
        assert daemon.root.counters["serve.context_abandoned"] == 1

    def test_full_queue_rejects_with_429(self):
        @_serve_test(ServeConfig(workers=1, queue_size=1,
                                 debug_delays=True))
        async def daemon(daemon, host, port):
            # Occupy the only worker, then fill the queue's one slot.
            busy = asyncio.ensure_future(
                _post(dict(SMALL_SYSTEM, seed=12, delay_s=1.0), host, port))
            await asyncio.sleep(0.3)  # worker has dequeued the busy job
            queued = asyncio.ensure_future(
                _post(dict(SMALL_SYSTEM, seed=12), host, port))
            await asyncio.sleep(0.2)  # it is sitting in the queue
            status, body = await _post(dict(SMALL_SYSTEM, seed=12),
                                       host, port)
            assert status == 429
            assert "queue full" in body["error"]
            # The rejection was immediate, nothing buffered: both
            # admitted requests still complete.
            assert (await busy)[0] == 200
            assert (await queued)[0] == 200

        assert daemon.root.counters["serve.rejected"] == 1

    @pytest.mark.parametrize("sizing", [{"queue_size": 0}, {"workers": 0}])
    def test_config_that_cannot_bound_or_answer_is_refused(self, sizing):
        # An unbounded queue (asyncio's maxsize 0) or no worker at all.
        with pytest.raises(ValueError, match="must be positive"):
            ServeConfig(**sizing)


class TestGracefulShutdown:
    def test_drain_completes_work_and_merges_telemetry(self):
        responses = []

        @_serve_test(ServeConfig(workers=1, debug_delays=True))
        async def daemon(daemon, host, port):
            pending = [
                asyncio.ensure_future(_post(
                    dict(SMALL_SYSTEM, delay_s=0.3 if i == 0 else 0.0),
                    host, port))
                for i in range(4)
            ]
            await asyncio.sleep(0.15)  # all admitted, first in flight
            status, body = await _get("/healthz", host, port)
            assert status == 200
            loop = asyncio.get_running_loop()
            status, body = await loop.run_in_executor(
                None, lambda: client.post_json(host, port, "/shutdown", {}))
            assert status == 200 and body["draining"] is True
            responses.extend(await asyncio.gather(*pending))
            await daemon.serve_until_shutdown()

        # Every admitted request completed despite the shutdown.
        assert [status for status, _ in responses] == [200] * 4

        # Lossless merge: the per-response telemetry slices are exactly
        # the evaluator work the root context absorbed from the request
        # contexts — counter by counter.
        absorbed = _compiled_eval_totals([daemon.root.counters])
        assert absorbed == _compiled_eval_totals(
            body["telemetry"]["counters"] for _status, body in responses)
        assert sum(absorbed.values()) > 0
        # The request contexts' cache high-water marks came home too, and
        # the root's Prometheus export reports them.
        assert daemon.root.cache_peaks["compiled_eval"] > 0
        status, text = asyncio.run(
            daemon._dispatch(http.Request("GET", "/metrics")))
        assert status == 200
        assert 'repro_cache_peak_entries{cache="compiled_eval"}' in text

        # And the journal kept the story, under per-request corr IDs.
        events = daemon.root.journal.snapshot()
        kinds = [event["kind"] for event in events]
        assert "serve_start" in kinds
        assert "serve_stop" in kinds
        assert kinds.count("serve_accept") == 4
        corr_ids = {
            event["corr"] for event in events
            if event["kind"] == "serve_accept"
        }
        assert len(corr_ids) == 4

    def test_request_running_past_the_grace_gets_503(self):
        """A request still running when the grace period runs out is
        answered 503 with its correlation ID, and its context is forfeit
        as a timed-out request's is; its handler writes the answer
        before the idle keep-alive connection is reaped."""
        answers = []

        @_serve_test(ServeConfig(workers=1, shutdown_grace_s=0.2,
                                 debug_delays=True))
        async def daemon(daemon, host, port):
            loop = asyncio.get_running_loop()
            idle = client.ServeClient(host, port, timeout=30.0)
            try:
                status, _ = await loop.run_in_executor(
                    None, lambda: idle.get("/healthz"))
                assert status == 200  # the connection stays open, idle
                slow = asyncio.ensure_future(
                    _post(dict(SMALL_SYSTEM, delay_s=1.0), host, port))
                await asyncio.sleep(0.3)  # in flight on the only worker
                await daemon.shutdown(drain=True)
                answers.append(await slow)
                # The daemon closed the idle connection: end of stream.
                assert await loop.run_in_executor(
                    None, lambda: idle._sock.recv(1)) == b""
            finally:
                idle.close()

        [(status, body)] = answers
        assert status == 503
        assert "shut down" in body["error"]
        assert body["corr_id"].startswith("req-")
        assert daemon.root.counters["serve.context_abandoned"] == 1
        assert "serve.timeouts" not in daemon.root.counters
        [stop] = [event for event in daemon.root.journal.snapshot()
                  if event["kind"] == "serve_stop"]
        assert stop["attrs"]["drained"] is False

    def test_shutdown_closes_the_listener(self):
        @_serve_test(ServeConfig(workers=1))
        async def daemon(daemon, host, port):
            await daemon.shutdown(drain=True)
            with pytest.raises(OSError):
                # The listener is closed; new connections fail fast.
                await _post(SMALL_SYSTEM, host, port)


class TestBackends:
    def test_backend_echoed_and_counted(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _post(SMALL_SYSTEM, host, port)
            assert status == 200
            assert body["backend"] == "belief"
            status, body = await _post(
                dict(SMALL_SYSTEM, backend="epistemic"), host, port)
            assert status == 200
            assert body["backend"] == "epistemic"

        assert daemon.root.counters.get("serve.backend.belief", 0) >= 1
        assert daemon.root.counters.get("serve.backend.epistemic", 0) >= 1

    def test_unknown_backend_is_a_clean_400(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _post(
                dict(SMALL_SYSTEM, backend="nosuch"), host, port)
            assert status == 400, body
            assert "unknown semantics backend 'nosuch'" in body["error"]
            # Malformed shapes are rejected at parse time, before any
            # registry lookup.
            status, body = await _post(
                dict(SMALL_SYSTEM, backend=7), host, port)
            assert status == 400, body
            assert "backend" in body["error"]
            # The daemon is not poisoned.
            status, _body = await _post(SMALL_SYSTEM, host, port)
            assert status == 200

    def test_config_default_backend_applies(self):
        @_serve_test(ServeConfig(default_backend="epistemic"))
        async def daemon(daemon, host, port):
            status, body = await _post(SMALL_SYSTEM, host, port)
            assert status == 200
            assert body["backend"] == "epistemic"
            # An explicit per-request backend still wins.
            status, body = await _post(
                dict(SMALL_SYSTEM, backend="belief"), host, port)
            assert status == 200
            assert body["backend"] == "belief"

    def test_stats_lists_backends(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            status, body = await _get("/stats", host, port)
            assert status == 200
            assert body["backends"] == ["belief", "epistemic"]
            assert body["default_backend"] == "belief"

    def test_backends_share_one_cached_system(self):
        """The backend never changes the generated system: one spec under
        both backends caches one system, and each request still answers
        under its own backend."""
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            for backend in ("belief", "epistemic"):
                status, body = await _post(
                    dict(SMALL_SYSTEM, backend=backend), host, port)
                assert status == 200
                assert body["backend"] == backend
            status, stats = await _get("/stats", host, port)
            assert status == 200
            assert stats["cached_systems"] == 1


class TestKeepAliveClient:
    def test_connection_reuse_across_requests(self):
        @_serve_test(ServeConfig())
        async def daemon(daemon, host, port):
            loop = asyncio.get_running_loop()

            def exchange():
                with client.ServeClient(host, port, timeout=120.0) as conn:
                    for _ in range(4):
                        status, body = conn.post_json("/analyze",
                                                      SMALL_SYSTEM)
                        assert status == 200
                        assert body["backend"] == "belief"
                    status, stats = conn.get("/stats")
                    assert status == 200
                    assert "backends" in stats
                    return (conn.connections_opened, conn.requests_sent,
                            conn.connections_reused)

            opened, sent, reused = await loop.run_in_executor(None, exchange)
            assert opened == 1
            assert sent == 5
            assert reused == 4
