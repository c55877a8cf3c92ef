"""EngineContext isolation: sessions share no state, and it shows.

The PR 5 acceptance bar, as tests:

* two threads sweeping under separate contexts produce **disjoint**
  counters, spans, and cache entries, and the **same verdicts** as a
  sequential run;
* pickled terms re-intern into the *receiving* context;
* :class:`~repro.context.BoundedMemo` and the intern table enforce
  their cap and count evictions, and the intern table holds its terms
  for the context's life;
* ``use()`` nests and restores correctly, and code that never mentions
  contexts keeps hitting the process-default tables.
"""

from __future__ import annotations

import gc
import pickle
import threading

from repro import context, perf
from repro.obs import spans
from repro.semantics.evaluator import Evaluator
from repro.soundness import GeneratorConfig, generate_system, sweep_system
from repro.terms import Believes, Encrypted, Key, Nonce, Principal, Sees


class TestCurrentAndUse:
    def test_default_context_is_current_initially(self):
        assert context.current() is context.DEFAULT

    def test_use_nests_and_restores(self):
        a, b = context.fresh("a"), context.fresh("b")
        with context.use(a):
            assert context.current() is a
            with context.use(b):
                assert context.current() is b
            assert context.current() is a
        assert context.current() is context.DEFAULT

    def test_use_restores_across_exceptions(self):
        ctx = context.fresh()
        try:
            with context.use(ctx):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert context.current() is context.DEFAULT

    def test_scoped_enters_a_brand_new_context(self):
        with context.scoped("ephemeral") as ctx:
            assert context.current() is ctx
            assert ctx is not context.DEFAULT
            assert len(ctx.intern_table) == 0
        assert context.current() is context.DEFAULT

    def test_threads_start_in_the_default_context(self):
        ctx = context.fresh()
        seen = []
        with context.use(ctx):
            thread = threading.Thread(
                target=lambda: seen.append(context.current())
            )
            thread.start()
            thread.join()
        assert seen == [context.DEFAULT]


class TestStateRouting:
    def test_terms_intern_into_the_current_context(self):
        with context.scoped() as ctx:
            key = Key("CTXK1")
            assert any(v is key for v in ctx.intern_table.values())
        assert not any(
            v is key for v in context.DEFAULT.intern_table.values()
        )

    def test_counters_route_to_the_current_context(self):
        with context.scoped() as ctx:
            perf.count("routing.hit", 3)
            assert ctx.counters["routing.hit"] == 3
        assert "routing.hit" not in context.DEFAULT.counters

    def test_spans_route_to_the_current_context(self):
        with context.scoped() as ctx:
            with spans.span("routing.span"):
                pass
            assert [s["name"] for s in ctx.spans.snapshot()] == ["routing.span"]
        assert not any(
            s["name"] == "routing.span"
            for s in context.DEFAULT.spans.snapshot()
        )

    def test_pickle_reinterns_into_the_receiving_context(self):
        with context.scoped("sender"):
            sender = Principal("P9")
            term = Encrypted(
                Believes(sender, Sees(sender, Nonce("N9"))), Key("K9"), sender
            )
            payload = pickle.dumps(term)
        with context.scoped("receiver") as rx:
            received = pickle.loads(payload)
            assert received == term
            # The canonical instance now lives in *this* context.
            assert any(v is received for v in rx.intern_table.values())
            # And loading again yields that same canonical object.
            assert pickle.loads(payload) is received

    def test_absorb_merges_telemetry_not_caches(self):
        parent = context.fresh("parent")
        child = context.fresh("child")
        with context.use(parent):
            perf.count("shared.hit", 1)
        with context.use(child):
            perf.count("shared.hit", 2)
            perf.count("only.miss", 5)
            key = Key("CTXK2")
        parent.absorb(child.telemetry())
        assert parent.counters["shared.hit"] == 3
        assert parent.counters["only.miss"] == 5
        assert len(parent.intern_table) == 0
        # Cache high-water marks travel too, and combine by max.
        assert key in child.intern_table.values()
        assert parent.cache_peaks["intern"] == len(child.intern_table) > 0
        parent.absorb({"cache_peaks": {"intern": 0}})
        assert parent.cache_peaks["intern"] == len(child.intern_table)


class TestBoundedMemo:
    def test_cap_triggers_wholesale_clear_and_counts_eviction(self):
        with context.scoped(memo_cap=4) as ctx:
            memo = ctx.hide_memo
            for i in range(4):
                memo[i] = i
            assert len(memo) == 4
            memo[4] = 4  # overflow: clears, then inserts
            assert len(memo) == 1
            assert 4 in memo
            assert ctx.counters["hide.evict"] == 1

    def test_overwriting_existing_key_does_not_evict(self):
        with context.scoped(memo_cap=2) as ctx:
            memo = ctx.seen_memo
            memo["a"], memo["b"] = 1, 2
            memo["a"] = 3  # in-place update at cap: no eviction
            assert len(memo) == 2
            assert "seen_submsgs.evict" not in ctx.counters


class TestInternTable:
    def test_table_holds_its_terms_for_the_context_life(self):
        with context.scoped("intern-owned") as ctx:
            body, key, sender = Nonce("N1"), Key("K"), Principal("P")
            term = Encrypted(body, key, sender)
            size = len(ctx.intern_table)
            del term  # no reference outside the table is left
            gc.collect()
            assert len(ctx.intern_table) == size
            hits = ctx.counters.get("intern.hit", 0)
            misses = ctx.counters["intern.miss"]
            Encrypted(body, key, sender)
            assert ctx.counters["intern.hit"] == hits + 1
            assert ctx.counters["intern.miss"] == misses

    def test_insert_at_cap_evicts_wholesale(self):
        cap = 4
        with context.scoped("intern-cap", memo_cap=cap) as ctx:
            kept = [Nonce(f"N{i}") for i in range(cap)]
            assert len(ctx.intern_table) == cap
            assert "intern.evict" not in ctx.counters
            kept.append(Nonce("N-over"))  # the insert that would exceed it
            assert len(ctx.intern_table) == 1
            assert ctx.counters["intern.evict"] == 1
            events = [
                (e["attrs"]["layer"], e["attrs"]["entries"])
                for e in ctx.journal.snapshot() if e["kind"] == "cache_evict"
            ]
            assert events == [("intern", cap)]
            for i in range(2 * cap):
                kept.append(Nonce(f"M{i}"))
                assert len(ctx.intern_table) <= ctx.memo_cap
            early, rebuilt = kept[0], Nonce("N0")
            assert rebuilt == early and hash(rebuilt) == hash(early)
            assert rebuilt is not early


class TestSweepIsolation:
    """The acceptance-criterion tests: concurrent sessions are strangers."""

    def _sweep(self, seed, results, index):
        ctx = context.fresh(f"session-{index}")
        with context.use(ctx):
            system = generate_system(GeneratorConfig(seed=seed))
            report = sweep_system(system, max_instances_per_schema=6)
            results[index] = (ctx, report.render())

    def test_two_threads_share_no_counters_spans_or_cache_entries(self):
        default_misses_before = context.DEFAULT.counters.get("compiled_eval.miss", 0)
        results = {}
        threads = [
            threading.Thread(target=self._sweep, args=(seed, results, i))
            for i, seed in enumerate((7, 8))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        (ctx_a, render_a), (ctx_b, render_b) = results[0], results[1]

        # Both sessions did real work...
        assert ctx_a.counters["compiled_eval.miss"] > 0
        assert ctx_b.counters["compiled_eval.miss"] > 0
        # ...but each context's telemetry is exactly its own: counter
        # objects, span buffers, and cache entries are all disjoint.
        assert ctx_a.counters is not ctx_b.counters
        assert ctx_a.spans is not ctx_b.spans
        # Each buffer holds exactly its own session's sweep spans: one
        # sweep.schema span per schema, not two sessions' worth.
        from repro.logic.axioms import AXIOMS

        for ctx in (ctx_a, ctx_b):
            names = [s["name"] for s in ctx.spans.snapshot()]
            assert names.count("sweep.schema") == len(AXIOMS)
        keys_a = set(ctx_a.intern_table.keys())
        values_a = {id(v) for v in ctx_a.intern_table.values()}
        assert all(
            id(v) not in values_a for v in ctx_b.intern_table.values()
        )
        # Different systems genuinely interned different term sets.
        assert keys_a != set(ctx_b.intern_table.keys())
        # Evaluator registries are private too.
        assert not (set(ctx_a.evaluators) & set(ctx_b.evaluators))
        # And nothing leaked into the default context's accounting
        # (other tests may have swept in DEFAULT; we only assert *our*
        # sessions added nothing).
        assert (
            context.DEFAULT.counters.get("compiled_eval.miss", 0)
            == default_misses_before
        )

        # Verdicts are identical to running the same sessions
        # sequentially in fresh contexts.
        sequential = {}
        for i, seed in enumerate((7, 8)):
            self._sweep(seed, sequential, i)
        assert render_a == sequential[0][1]
        assert render_b == sequential[1][1]


class TestDefaultCompatibility:
    """Code that never mentions contexts behaves exactly as before."""

    def test_evaluation_works_in_the_default_context(self):
        system = generate_system(GeneratorConfig(seed=3))
        evaluator = Evaluator(system)
        assert evaluator in context.DEFAULT.evaluators
        run = system.runs[0]
        principal = run.principals[0]
        formula = Believes(principal, Sees(principal, Nonce("CTXN0")))
        value = evaluator.evaluate(formula, run, max(run.times))
        assert isinstance(value, bool)

    def test_perf_count_writes_the_current_table(self):
        table = context.DEFAULT.counters
        before = table.get("view.hit", 0)
        perf.count("view.hit")
        assert table["view.hit"] == before + 1
        with context.scoped() as ctx:
            perf.count("view.hit")
            assert ctx.counters == {"view.hit": 1}
        assert table["view.hit"] == before + 1
        del table["view.hit"]


class TestAsyncSiblingIsolation:
    """Concurrent asyncio tasks in ``scoped()`` contexts are siblings.

    The serving contract (ISSUE 9): two requests interleaving on one
    event loop must get disjoint counters, spans, journals, and —
    because ``fresh()`` *inherits* the creator's correlation ID, which
    is right for parts of one request and wrong for siblings —
    explicitly stamped, distinct ``corr_id``s.  And isolation must not
    change answers: verdicts match the same work run sequentially.
    """

    @staticmethod
    def _workload(seed):
        from repro.obs import journal
        from repro.semantics.compiler import compiled_for

        system = generate_system(
            GeneratorConfig(seed=seed, runs=2, steps_per_run=8)
        )
        principal = system.principals()[0]
        formula = Believes(principal, Sees(principal, Nonce("SIBN0")))
        compiled = compiled_for(system, None)
        journal.record("sibling_workload", seed=seed)
        return system, compiled, formula

    def test_interleaved_scoped_tasks_stay_disjoint(self):
        import asyncio

        async def serve_request(index, seed, results):
            with context.scoped(
                f"sibling-{index}", corr_id=f"req-sibling-{index}"
            ) as ctx:
                with spans.span("request", corr=ctx.corr_id):
                    system, compiled, formula = self._workload(seed)
                    verdicts = []
                    for run, k in system.points():
                        verdicts.append(compiled.evaluate(formula, run, k))
                        # Force genuine interleaving with the sibling.
                        await asyncio.sleep(0)
                results[index] = {
                    "corr_id": ctx.corr_id,
                    "verdicts": verdicts,
                    "counters": dict(ctx.counters),
                    "journal": ctx.journal.snapshot(),
                    "spans": ctx.spans.snapshot(),
                }

        async def main(results):
            await asyncio.gather(
                serve_request(0, 41, results), serve_request(1, 42, results)
            )

        concurrent: dict[int, dict] = {}
        asyncio.run(main(concurrent))

        a, b = concurrent[0], concurrent[1]
        # Distinct correlation IDs, stamped through to every journal
        # event and span each sibling recorded.
        assert a["corr_id"] != b["corr_id"]
        for result in (a, b):
            assert result["journal"], "workload recorded no journal events"
            assert all(
                event["corr"] == result["corr_id"]
                for event in result["journal"]
            )
            assert all(
                sample["attrs"].get("corr") == result["corr_id"]
                for sample in result["spans"]
                if sample["name"] == "request"
            )
            # Each sibling did real evaluator work in its own table.
            assert any(
                event.startswith("compiled_eval.")
                for event in result["counters"]
            )

        # Verdicts are identical to the same requests run sequentially.
        sequential: dict[int, dict] = {}
        for index, seed in ((0, 41), (1, 42)):
            with context.scoped(f"sequential-{index}"):
                system, compiled, formula = self._workload(seed)
                sequential[index] = {
                    "verdicts": [
                        compiled.evaluate(formula, run, k)
                        for run, k in system.points()
                    ]
                }
        assert a["verdicts"] == sequential[0]["verdicts"]
        assert b["verdicts"] == sequential[1]["verdicts"]

    def test_sibling_corr_ids_must_be_explicit(self):
        # Documents *why* the daemon stamps per-request IDs: without an
        # explicit corr_id, scoped() inherits the parent's (right for
        # parts of one request), so siblings would share one.
        parent = context.fresh("parent", corr_id="req-parent")
        with context.use(parent):
            with context.scoped("part") as part:
                assert part.corr_id == "req-parent"
            with context.scoped("request", corr_id="req-child") as child:
                assert child.corr_id == "req-child"
