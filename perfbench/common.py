"""Shared helpers: paths, pins, statistics, GC and memory probes.

Importing this module puts the checkout's ``src/`` on ``sys.path`` so
the benchmark runs the sources it was checked out with, never an
installed copy.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins"
#: Where traced runs write their span files (ignored by git).
OUT = BENCH / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def sources_present() -> bool:
    """Whether this checkout holds the program the benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


# -- pins ------------------------------------------------------------------------


def load_pins(workload: str) -> dict:
    with open(PINS / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def write_pins(path: Path, document: dict) -> None:
    """One op per line, so a changed answer shows as a one-line diff."""
    head = {key: value for key, value in document.items() if key != "ops"}
    lines = ["{"]
    for key, value in sorted(head.items()):
        lines.append(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)},")
    lines.append('  "ops": [')
    ops = document["ops"]
    for index, op in enumerate(ops):
        comma = "," if index < len(ops) - 1 else ""
        lines.append("    " + json.dumps(op, sort_keys=True) + comma)
    lines.append("  ]")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


#: Response fields a serve pin holds (the certificate is reduced to
#: ``checked`` and ``steps``).
SERVE_FIELDS = ("verdict", "failures", "good_runs", "backend")


def expected_fields(document: dict) -> dict:
    """The pinned part of one serve verdict document."""
    expect = {key: document[key] for key in SERVE_FIELDS if key in document}
    certificate = document.get("certificate")
    if certificate is not None:
        expect["certificate"] = {
            "checked": certificate.get("checked"),
            "steps": certificate.get("steps"),
        }
    return expect


# -- statistics --------------------------------------------------------------------

def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least ten
    samples beyond it, i.e. the eleventh-largest sample (the largest
    when there are fewer than eleven)."""
    n = len(sorted_values)
    rank = max(1, n - 10)
    return 100.0 * rank / n, sorted_values[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def latency_metrics(latencies_s: list[float], factors: list[float],
                    correct: int,
                    window_s: float) -> tuple[dict[str, float], str]:
    """``op_p50_ms``, ``op_tail_ms`` and ``ops_per_s`` of one window.

    Each latency is multiplied by its host factor (see
    :class:`HostSpeed`), and the window by its ops' time-weighted mean
    factor.  The note gives the tail's percentile and sample count and
    the unscaled figures.
    """
    scaled = [latency * factor
              for latency, factor in zip(latencies_s, factors)]
    scaled_window_s = window_s * sum(scaled) / sum(latencies_s)
    ordered = sorted(scaled)
    raw = sorted(latencies_s)
    pct, tail_s = tail(ordered)
    return {
        "op_p50_ms": percentile(ordered, 50.0) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        "ops_per_s": correct / scaled_window_s,
    }, (f"tail = p{pct:.2f} of n={len(ordered)}; unscaled p50 "
        f"{percentile(raw, 50.0) * 1000.0:.4f} ms, tail "
        f"{tail(raw)[1] * 1000.0:.4f} ms, {correct / window_s:.4f} ops/s")


def self_peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float | None:
    """Another process's ``VmHWM`` (peak RSS), read from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# -- host speed --------------------------------------------------------------------

#: Seconds one calibration pass takes at the reference host speed; the
#: reported times are scaled to that speed (see :class:`HostSpeed`).
CALIBRATION_REF_S = 0.001
#: During a timed window, a pass runs between two ops once this many
#: seconds have passed since the last one, and once after the last op.
CALIBRATION_EVERY_S = 0.05
#: Passes run just before and just after set-up.
SETUP_PASSES = 10
#: Share of passes dropped from each end before averaging them.
CALIBRATION_TRIM = 0.05


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight


def _calibration_pass() -> int:
    """Fixed interpreter work of the kind the program does: small objects,
    attribute reads, tuple-keyed dicts, frozensets.  No program code."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(1000):
        cell = _Cell(i % 97, (i * 7) % 13)
        key = (cell.key, cell.weight)
        table[key] = table.get(key, 0) + cell.key
        if i % 5 == 0:
            total += len(frozenset((cell.key, cell.weight, i % 3)))
    return total + len(sorted(table.items()))


class HostSpeed:
    """Calibration passes taken through a run, and the factors they give.

    Each CPU of the machine the benchmark shares at times switches,
    several times a second, between full speed and little more than
    half of it, and at times stays slow for minutes: the same code read
    up to 2.5 times apart between runs.  So a process times short passes
    of fixed interpreter work (:func:`_calibration_pass`, with the
    collector off so that the program's heap cannot move it) between
    its ops, and multiplies its times by a factor: the reference pass
    time over the mean of the passes that belong to them.  A program
    change moves the ops but not the passes; a host that is slow while
    an op runs moves both.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        #: Seconds spent in passes.
        self.seconds = 0.0

    def run_pass(self) -> None:
        started = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _calibration_pass()
        finally:
            if enabled:
                gc.enable()
        elapsed = time.perf_counter() - started
        self.passes.append(elapsed)
        self.seconds += elapsed

    def burst(self, passes: int) -> None:
        for _ in range(passes):
            self.run_pass()

    @property
    def factor(self) -> float:
        """From the mean of all passes, trimmed by :data:`CALIBRATION_TRIM`."""
        ordered = sorted(self.passes)
        cut = int(len(ordered) * CALIBRATION_TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return CALIBRATION_REF_S * len(kept) / sum(kept)

    def op_factors(self, marks: list[int]) -> list[float]:
        """The factor of each op, given the index of the last pass run
        before it: from the mean of that pass and the next one, the
        nearest readings of the speed the op ran at."""
        factors = []
        for mark in marks:
            around = self.passes[mark:mark + 2]
            factors.append(CALIBRATION_REF_S * len(around) / sum(around))
        return factors

    def note(self) -> str:
        return (f"{len(self.passes)} calibration passes, mean "
                f"{sum(self.passes) / len(self.passes) * 1000:.4f} ms")


def scaled_setup(name: str, spawned_at: float, speed: HostSpeed) -> float:
    """Seconds since the process was spawned, scaled to the reference
    speed by the passes ``speed`` ran before set-up and by as many more
    now, after it.  Pass time is not part of set-up."""
    setup_s = time.monotonic() - spawned_at - speed.seconds
    speed.burst(SETUP_PASSES)
    emit(f"{name}: set-up {setup_s:.4f} s unscaled, factor "
         f"{speed.factor:.4f} from {speed.note()}")
    return setup_s * speed.factor


class GcClock:
    """Counts and times collections through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.seconds += time.perf_counter() - self._started


# -- output ----------------------------------------------------------------------


def emit(line: str) -> None:
    """A human-readable line (the last stdout line is the JSON result)."""
    print(line, flush=True)
