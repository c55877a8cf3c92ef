"""Run metadata: make fuzz, trace and telemetry records attributable.

A record is only comparable with another when it says *where* it was
made — interpreter, platform, commit, worker count.  :func:`run_metadata`
collects that once, cheaply, and with no hard dependency on git being
present (source tarballs and installed wheels report ``git_sha: null``).
The bench-regression gate (``tools/bench_gate.py``) stamps its history
lines with the same SHA and timestamp.
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Any


def git_sha() -> str | None:
    """The HEAD commit of the repository containing this package, if any."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        completed = subprocess.run(
            ["git", "-C", here, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def run_metadata(**extra: Any) -> dict[str, Any]:
    """Environment fingerprint for a measurement record.

    Keyword arguments (e.g. ``seed=0``, ``command="fuzz"``) are
    merged in, so drivers can stamp their own knobs without a schema.
    """
    meta: dict[str, Any] = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    meta.update(extra)
    return meta
