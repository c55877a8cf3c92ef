"""The ``serve`` workload: the shipped daemon, driven from another process.

The daemon runs as ``python -u -m repro serve --port 0`` with its
default workers, queue and batch size.  This (load) process parses the
port from the daemon's listening line, opens two keep-alive
``ServeClient`` connections, sends one warm-up request per distinct
system spec and protocol, and then replays each connection's seeded
request list closed-loop: a connection sends its next request only
after the previous verdict arrived.  The window runs in half-second
segments; between two of them both connections wait while this process
times calibration passes (see common.HostSpeed).  After the timed
window it scrapes ``/stats`` and ``/metrics`` once, reads the daemon's
``VmHWM``, and requires ``POST /shutdown`` to end the daemon with exit
code 0.

A traced run starts the daemon through ``serve_launcher.py``, which
installs the span wrappers inside the daemon process first.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import inputs
import report

#: Deadline for the listening line, and for the daemon's exit after
#: ``POST /shutdown``.
START_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0
#: Seconds of timed window between two calibration bursts, and the
#: passes in a burst.
SEGMENT_S = 0.5
SEGMENT_PASSES = 3
_LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")
_SPAN_COUNT = re.compile(
    r'^repro_span_duration_seconds_count\{[^}]*\}\s+([0-9.eE+-]+)$', re.M)


class Daemon:
    """One daemon process and the port it listens on."""

    def __init__(self, dump: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
        if dump is None:
            command = [sys.executable, "-u", "-m", "repro"]
        else:
            command = [sys.executable, "-u",
                       str(common.BENCH / "serve_launcher.py"), str(dump)]
        command += ["serve", "--port", "0"]
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=env, stdout=subprocess.PIPE,
            text=True,
        )
        self.host, self.port = self._listening_line()
        # Keep reading stdout so the daemon can never block on a full pipe.
        self._drain = threading.Thread(target=self._drain_stdout,
                                       name="daemon-stdout")
        self._drain.start()

    def _listening_line(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(deadline - time.monotonic()):
                    break
                line = self.process.stdout.readline()
                if not line:
                    break
                match = _LISTENING.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        self.kill()
        raise RuntimeError("daemon printed no listening line")

    def _drain_stdout(self) -> None:
        for _line in self.process.stdout:
            pass

    def hwm_mb(self) -> float:
        value = common.proc_hwm_mb(self.process.pid)
        if value is None:
            raise RuntimeError("cannot read the daemon's VmHWM")
        return value

    def shutdown(self, client) -> int:
        """``POST /shutdown``; the daemon's exit code (killed: -9)."""
        try:
            client.post_json("/shutdown", {})
        except OSError:
            pass
        try:
            code = self.process.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -9
        self._drain.join(timeout=EXIT_TIMEOUT_S)
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class Load:
    """The request lists, their pins, and the two connections."""

    def __init__(self, seed: int) -> None:
        pins = common.load_pins("serve")
        self.ops = pins["ops"]
        categories: dict[str, list[int]] = {}
        for index, op in enumerate(self.ops):
            categories.setdefault(op["category"], []).append(index)
        self.lists = inputs.serve_lists(seed, categories)
        # One warm-up request per distinct system spec and protocol.
        warm: dict[tuple, int] = {}
        for requests in self.lists:
            for index in requests:
                warm.setdefault(_model_key(self.ops[index]["payload"]), index)
        self.warmups = list(warm.values())

    def check(self, index: int, status: int, body) -> str | None:
        if status != 200:
            return f"status {status}: {body}"
        got = common.expected_fields(body)
        want = self.ops[index]["expect"]
        if got != want:
            return f"{got!r}, pinned {want!r}"
        return None


def _model_key(payload: dict) -> tuple:
    if payload["kind"] == "protocol":
        return ("protocol", payload["protocol"], payload["logic"])
    return ("system", payload["seed"], payload["runs"], payload["steps"],
            payload["principals"], payload.get("backend", "belief"))


class Connection(threading.Thread):
    """One closed-loop client replaying its request list.

    It runs one segment of the window at a time: ``gate`` releases it,
    it sends requests until ``deadline``, and meets ``gate`` again.  A
    ``deadline`` of None at release ends the thread.
    """

    def __init__(self, load: Load, requests: list[int], client,
                 gate: threading.Barrier) -> None:
        super().__init__(name="bench-connection")
        self.load = load
        self.requests = requests
        self.client = client
        self.gate = gate
        #: Set before the gate releases the thread.
        self.deadline: float | None = 0.0
        #: (latency s, daemon elapsed ms, response bytes, counter
        #: deltas, corr_id) of each correct request
        self.samples: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self) -> None:
        position = 0
        while True:
            self.gate.wait()
            if self.deadline is None:
                return
            while time.perf_counter() < self.deadline:
                index = self.requests[position % len(self.requests)]
                position += 1
                self.attempted += 1
                try:
                    self._exchange(index)
                except Exception as exc:  # noqa: BLE001 - a lost request fails
                    self._fail(f"{type(exc).__name__}: {exc}")
            self.gate.wait()

    def _exchange(self, index: int) -> None:
        started = time.perf_counter()
        status, body = self.client.post_json(
            "/analyze", self.load.ops[index]["payload"])
        latency = time.perf_counter() - started
        problem = self.load.check(index, status, body)
        if problem is not None:
            self._fail(problem)
            return
        telemetry = body["telemetry"]
        size = len((json.dumps(body, sort_keys=True) + "\n").encode())
        self.samples.append((latency, telemetry["elapsed_ms"], size,
                             telemetry["counters"], body["corr_id"]))

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Session:
    """A started daemon with its connections warmed up."""

    def __init__(self, load: Load, dump: Path | None = None) -> None:
        from repro.serve import ServeClient

        self.load = load
        #: Seconds of the last timed window.
        self.window_s = 0.0
        self.daemon = Daemon(dump)
        self.clients = [ServeClient(self.daemon.host, self.daemon.port)
                        for _ in load.lists]
        self.warm_failed = 0
        for position, index in enumerate(load.warmups):
            client = self.clients[position % len(self.clients)]
            try:
                status, body = client.post_json(
                    "/analyze", load.ops[index]["payload"])
                problem = load.check(index, status, body)
            except Exception as exc:  # noqa: BLE001 - a lost warm-up fails
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                self.warm_failed += 1
                print(f"perfbench: warm-up failed: {problem}", file=sys.stderr)

    def window(self, seconds: float,
               speed: common.HostSpeed | None = None) -> list[Connection]:
        """Replay the request lists for ``seconds`` of timed window.

        The window runs in segments of :data:`SEGMENT_S`.  Between two
        segments, while both connections wait and the daemon is idle,
        this process runs :data:`SEGMENT_PASSES` calibration passes of
        ``speed``.  :attr:`window_s` adds up the segments.
        """
        gate = threading.Barrier(len(self.clients) + 1)
        connections = [
            Connection(self.load, requests, client, gate)
            for requests, client in zip(self.load.lists, self.clients)
        ]
        for connection in connections:
            connection.start()
        segments = max(1, round(seconds / SEGMENT_S))
        cpus = sorted(os.sched_getaffinity(0))
        self.window_s = 0.0
        for segment in range(segments):
            if speed is not None:
                _burst_on(speed, cpus[segment % len(cpus)], cpus)
            started = time.perf_counter()
            for connection in connections:
                connection.deadline = started + seconds / segments
            gate.wait()  # release the segment
            gate.wait()  # both connections are past the deadline
            self.window_s += time.perf_counter() - started
        for connection in connections:
            connection.deadline = None
        gate.wait()
        for connection in connections:
            connection.join()
        return connections

    def scrape(self) -> tuple[dict, str, float]:
        """``/stats``, ``/metrics`` and the daemon's peak RSS."""
        client = self.clients[0]
        _status, stats = client.get("/stats")
        _status, metrics = client.get("/metrics")
        return stats, metrics, self.daemon.hwm_mb()

    def close(self) -> int:
        code = self.daemon.shutdown(self.clients[0])
        for client in self.clients:
            client.close()
        return code


def _burst_on(speed: common.HostSpeed, cpu: int, cpus: list[int]) -> None:
    """A calibration burst on one CPU: the daemon may run on any of them,
    and each changes speed on its own."""
    os.sched_setaffinity(0, {cpu})
    try:
        speed.burst(SEGMENT_PASSES)
    finally:
        os.sched_setaffinity(0, cpus)


def _window_result(session: Session, connections: list[Connection]) -> dict:
    attempted = sum(c.attempted for c in connections)
    failed = sum(c.failed for c in connections)
    for connection in connections:
        for error in connection.errors:
            print(f"perfbench: failed request: {error}", file=sys.stderr)
    samples = [s for c in connections for s in c.samples]
    return {"attempted": attempted, "failed": failed, "samples": samples,
            "window_s": session.window_s}


def run(role: str, seed: int, seconds: float, spawned_at: float,
        setup_speed: common.HostSpeed) -> dict:
    """One set-up, measured or traced process; ``setup_speed`` holds the
    calibration passes run just before set-up."""
    load = Load(seed)
    if role == "trace":
        return _traced(load, seconds)
    session = Session(load)
    speed = common.HostSpeed()
    window = None
    try:
        setup_s = common.scaled_setup("serve", spawned_at, setup_speed)
        if role == "measure":
            window = _window_result(session, session.window(seconds, speed))
            _stats, _metrics, hwm = session.scrape()
    finally:
        code = session.close()
    if window is None:
        if code != 0:
            raise RuntimeError(f"daemon exited {code} after set-up")
        return {"setup_s": setup_s}
    failed = window["failed"] + session.warm_failed + (code != 0)
    if code != 0:
        print(f"perfbench: daemon exited {code}", file=sys.stderr)
    # One factor for the whole window: the passes run between segments,
    # not at the moments the daemon works (README.md).
    latencies = [sample[0] for sample in window["samples"]]
    metrics, tail_note = common.latency_metrics(
        latencies, [speed.factor] * len(latencies), len(latencies),
        window["window_s"])
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = hwm
    common.emit(f"serve: {window['attempted']} requests in "
                f"{window['window_s']:.3f}s, factor {speed.factor:.4f} from "
                f"{speed.note()}; {tail_note}")
    return {"attempted": window["attempted"] + len(load.warmups),
            "failed": failed, "metrics": metrics}


def _traced(load: Load, seconds: float) -> dict:
    """Half a window on a plain daemon, half on a traced one."""
    import tracer as tracer_mod

    plain_session = Session(load)
    try:
        plain = _window_result(plain_session,
                               plain_session.window(seconds / 2))
    finally:
        plain_code = plain_session.close()
    dump = common.OUT / "trace-serve.jsonl"
    session = Session(load, dump)
    try:
        connections = session.window(seconds / 2)
        traced = _window_result(session, connections)
        stats, metrics_text, _hwm = session.scrape()
    finally:
        code = session.close()
    failed = (plain["failed"] + traced["failed"] + plain_session.warm_failed
              + session.warm_failed + (plain_code != 0) + (code != 0))
    dumped = tracer_mod.load_dump(dump)
    samples = traced["samples"]
    totals = report.TraceTotals(n=len(samples))
    for latency, elapsed_ms, _size, counters, corr_id in samples:
        for event, count in counters.items():
            totals.counters[event] = totals.counters.get(event, 0) + count
        rows = dumped["aggregates"].get(corr_id, {})
        totals.add_op(rows, dumped["busy"].get(corr_id, {}),
                      dumped["extra"].get(corr_id, {}))
        execute_s = rows.get("serve.execute", [0, 0.0, 0.0])[2]
        totals.wall_s += latency
        totals.outside_s += latency - elapsed_ms / 1000.0
        totals.unattributed_s += elapsed_ms / 1000.0 - execute_s
    serve = _serve_layer(stats, metrics_text, samples, connections, dumped)
    plain_rate = len(plain["samples"]) / plain["window_s"]
    traced_rate = len(samples) / traced["window_s"]
    common.emit(f"serve: traced {traced['attempted']} requests "
                f"({traced_rate:.1f}/s) vs untraced {plain['attempted']} "
                f"({plain_rate:.1f}/s); spans in "
                f"{dump.relative_to(common.ROOT)}")
    common.emit(f"serve: client p50 {serve['_client_p50_ms']:.4f} ms = "
                f"execute {serve['serve.execute_ms']:.4f} ms + outside "
                f"{serve['serve.outside_ms']:.4f} ms")
    for line in report.layer_table(totals):
        common.emit(line)
    per_request = {key: value for key, value in serve.items()
                   if not key.startswith("_")}
    values = report.layer_metrics(
        totals, dumped["gc_collections"], dumped["gc_seconds"],
        1.0 - traced_rate / plain_rate if plain_rate else 0.0, per_request)
    return {"attempted": plain["attempted"] + traced["attempted"]
            + 2 * len(load.warmups), "failed": failed, "metrics": values}


def _serve_layer(stats: dict, metrics_text: str, samples: list,
                 connections: list[Connection], dumped: dict) -> dict:
    counters = stats.get("counters", {})
    accepted = counters.get("serve.accepted", 0)
    latencies = sorted(sample[0] * 1000.0 for sample in samples)
    execute = sorted(sample[1] for sample in samples)
    client_p50 = common.percentile(latencies, 50.0)
    execute_p50 = common.percentile(execute, 50.0)
    sent = sum(c.client.requests_sent for c in connections)
    reused = sum(c.client.connections_reused for c in connections)
    analyze_s = sum(rows.get("analysis.analyze", [0, 0.0, 0.0])[2]
                    for rows in dumped["aggregates"].values())
    return {
        "_client_p50_ms": client_p50,
        "serve.execute_ms": execute_p50,
        "serve.outside_ms": client_p50 - execute_p50,
        "serve.batched_share":
            counters.get("serve.batched_requests", 0) / accepted
            if accepted else 0.0,
        "serve.rejected": float(counters.get("serve.rejected", 0)),
        "serve.timeouts": float(counters.get("serve.timeouts", 0)),
        "serve.connections_reused_share": reused / sent if sent else 0.0,
        "serve.response_bytes":
            sum(sample[2] for sample in samples) / max(len(samples), 1),
        "serve.root_spans": float(sum(
            float(value) for value in _SPAN_COUNT.findall(metrics_text))),
        "analysis.analyze_ms": analyze_s * 1000.0,
    }
