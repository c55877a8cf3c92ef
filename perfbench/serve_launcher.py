#!/usr/bin/env python3
"""Run ``python -m repro`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_launcher.py DUMP serve --port 0

Installs :class:`tracer.Tracer` in this (daemon) process, counts and
times garbage collections, calls the same CLI entry point as
``python -m repro``, and writes the spans and per-request aggregates
to ``DUMP`` when that entry point returns.  Ops are keyed by the
request's ``corr_id``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import common
import tracer as tracer_mod


def main(argv: list[str]) -> int:
    dump, repro_argv = Path(argv[0]), argv[1:]
    tracer = tracer_mod.Tracer()
    tracer.install()
    from repro.__main__ import main as repro_main

    with common.GcClock() as gc_clock:
        code = repro_main(repro_argv)
    tracer.dump(dump, extra={"gc_collections": gc_clock.collections,
                             "gc_seconds": gc_clock.seconds})
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
