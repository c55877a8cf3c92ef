"""CI gate: no new module-level mutable containers, and no unused
imports, in ``src/repro``.

PR 5 moved all per-session engine state onto
:class:`repro.context.EngineContext`; this wraps ``tools/lint_globals.py``
as a test so a stray new global cache fails the suite, not just the
standalone CI job.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint_globals  # noqa: E402


class TestRepoIsClean:
    def test_no_unlisted_module_level_mutable_state(self):
        violations, _used = lint_globals.check()
        assert violations == [], "\n".join(violations)

    def test_allowlist_has_no_stale_entries(self):
        _violations, used = lint_globals.check()
        stale = sorted(lint_globals.ALLOWLIST - used)
        assert stale == [], f"stale allowlist entries: {stale}"

    def test_removed_globals_are_not_allowlisted(self):
        # The whole point of the context refactor: these must never
        # come back as module-level state.
        removed = {
            "repro/terms/intern.py:_TABLE",
            "repro/semantics/hide.py:_HIDE_MEMO",
            "repro/model/submsgs.py:_SEEN_MEMO",
            "repro/semantics/evaluator.py:_EVALUATORS",
            "repro/obs/spans.py:_RECORDER",
            # Telemetry lives on the context too: no process-global
            # metrics registry or journal ring, ever.
            "repro/obs/metrics.py:_REGISTRY",
            "repro/obs/journal.py:_JOURNAL",
            "repro/obs/journal.py:_RING",
            # A context is the unit of cache lifetime: no registry of
            # cache-clearing callbacks.
            "repro/perf.py:_cache_clearers",
        }
        assert not removed & lint_globals.ALLOWLIST

    def test_telemetry_modules_have_no_module_level_instances(self):
        # ``ctx.journal`` and the context's counter table are the only
        # owners; the modules themselves must hold nothing but classes,
        # constants, and context-delegating functions.
        src = REPO_ROOT / "src"
        for rel in ("repro/obs/metrics.py", "repro/obs/journal.py"):
            violations, _used = lint_globals.check(src_root=src)
            assert not any(v.startswith(f"{rel}:")
                           for v in violations), violations


class TestLintDetection:
    """The lint itself must catch what it claims to catch."""

    def _scan(self, tmp_path, source):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "offender.py").write_text(source, encoding="utf-8")
        violations, _used = lint_globals.check(src_root=tmp_path)
        return violations

    def test_flags_dict_literal(self, tmp_path):
        violations = self._scan(tmp_path, "_CACHE = {}\n")
        assert len(violations) == 1
        assert "_CACHE" in violations[0]

    def test_flags_constructor_calls(self, tmp_path):
        source = (
            "import weakref\n"
            "from collections import defaultdict\n"
            "TABLE = weakref.WeakValueDictionary()\n"
            "MEMO = defaultdict(list)\n"
            "ITEMS = list()\n"
        )
        violations = self._scan(tmp_path, source)
        assert len(violations) == 3

    def test_flags_annotated_assignment_and_comprehension(self, tmp_path):
        source = "REGISTRY: dict = {k: [] for k in range(3)}\n"
        violations = self._scan(tmp_path, "SEEN = {x for x in 'ab'}\n" + source)
        assert len(violations) == 2

    def test_ignores_immutable_and_scoped_state(self, tmp_path):
        source = (
            "NAMES = ('a', 'b')\n"
            "LIMIT = 42\n"
            "FROZEN = frozenset({'x'})\n"
            "__all__ = ['NAMES']\n"
            "def build():\n"
            "    local = {}\n"
            "    return local\n"
            "class Holder:\n"
            "    table = {}\n"
        )
        assert self._scan(tmp_path, source) == []

    def test_flags_unused_import(self, tmp_path):
        source = (
            "from __future__ import annotations\n"
            "import os\n"
            "from typing import TYPE_CHECKING, Iterable\n"
            "if TYPE_CHECKING:\n"
            "    from pathlib import Path\n"
            "def size(items: Iterable, where: 'Path') -> int:\n"
            "    return len(items)\n"
        )
        assert self._scan(tmp_path, source) == [
            "repro/offender.py:2: 'os' is imported but never read"
        ]

    def test_init_modules_may_reexport(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("from os import path\n")
        violations, _used = lint_globals.check(src_root=tmp_path)
        assert violations == []


class TestServeCoverage:
    """The serving layer is inside the lint's jurisdiction.

    A daemon is exactly the long-lived process the no-module-globals
    rule exists for: pin that ``serve/`` is scanned (its allowlisted
    constants register as *used*) so a future serve module cannot
    quietly grow a process-global request table.
    """

    def test_serve_allowlist_entries_are_exercised(self):
        _violations, used = lint_globals.check()
        assert "repro/serve/http.py:_REASONS" in used
        assert "repro/serve/requests.py:_SYSTEM_KNOBS" in used

    def test_planted_serve_global_is_flagged(self, tmp_path):
        serve = tmp_path / "repro" / "serve"
        serve.mkdir(parents=True)
        (serve / "__init__.py").write_text("")
        (serve / "bad.py").write_text("PENDING_REQUESTS = {}\n")
        violations, _used = lint_globals.check(tmp_path)
        assert any("repro/serve/bad.py" in v for v in violations)


class TestBackendCoverage:
    """The semantics-backend seam holds no module-level mutable state.

    The two built-in backends are a fixed pair resolved by
    ``get_backend``; pin that the backend modules scan clean and that a
    module-level registry — the obvious regression — is flagged.
    """

    def test_backend_modules_are_clean(self):
        violations, _used = lint_globals.check()
        offenders = [
            v for v in violations
            if v.startswith("repro/semantics/backend.py:")
            or v.startswith("repro/semantics/epistemic.py:")
            or v.startswith("repro/semantics/goodvectors.py:")
            or v.startswith("repro/serve/client.py:")
        ]
        assert offenders == [], "\n".join(offenders)

    def test_planted_module_level_registry_is_flagged(self, tmp_path):
        semantics = tmp_path / "repro" / "semantics"
        semantics.mkdir(parents=True)
        (semantics / "__init__.py").write_text("")
        (semantics / "bad_backend.py").write_text(
            "_BACKENDS = {}\n"
            "\n"
            "def register(backend):\n"
            "    _BACKENDS[backend.name] = backend\n"
        )
        violations, _used = lint_globals.check(tmp_path)
        assert any(
            "repro/semantics/bad_backend.py" in v and "_BACKENDS" in v
            for v in violations
        )
