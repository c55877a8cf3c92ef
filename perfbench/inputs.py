"""Workload inputs the benchmark owns: specs, assumption chains, payloads.

Nothing here calls a fuzz helper, ``repro perf`` or ``tools/bench_serve.py``:
every input is drawn from this file's own seeded generators, so edits
elsewhere in the repository cannot move a workload.

Each workload has a *universe* of inputs whose reference answers are
pinned in ``pins/<workload>.json`` (written by ``pin.py``).  The
workload seed picks and orders one run's op list from that universe
(:func:`op_list` / :func:`serve_lists`), so every seed is checked
against pinned answers, and the lists of two seeds hold the same
number of ops of each kind.
"""

from __future__ import annotations

import random

# -- sweep ---------------------------------------------------------------------

#: E3 generator seeds 0..SWEEP_UNIVERSE-1, ``GeneratorConfig`` defaults
#: otherwise (3 principals, 3 runs of 14 steps: 54 points).
SWEEP_UNIVERSE = 512
#: Nesting systems (:func:`nesting_system`) after the E3 ones.  No
#: generated E3 system violates an axiom, so these are the ops whose
#: pinned violation counts are not zero.
NESTING_UNIVERSE = 64
#: Distinct systems in one run's op list, and how many are nesting ones.
SWEEP_LIST = 128
NESTING_LIST = 16
#: Instances per schema, the ``repro sweep`` default.
SWEEP_INSTANCES = 60


def nesting_system(index: int):
    """A seeded system on the E3 vocabulary that realizes the A11 caveat.

    In every run a sender passes ``{N, {X}_K'}_K`` to a recipient who
    holds ``K`` but not ``K'``, and the inner payload ``X`` differs
    between runs.  Hiding collapses the unreadable ``{X}_K'``, so the
    recipient cannot tell the runs apart and A11 fails for it after the
    receive (EXPERIMENTS.md, E3).  The sweep counts these violations
    outside its essential ones.  Idle steps before and after the
    exchange vary the number of points.
    """
    from repro.model.builder import RunBuilder
    from repro.model.system import Interpretation, System
    from repro.soundness.generators import GeneratorConfig, make_vocabulary
    from repro.terms.atoms import Sort
    from repro.terms.messages import encrypted, group

    rng = random.Random(f"nesting:{index}")
    vocabulary = make_vocabulary(GeneratorConfig())
    principals = [vocabulary.principal(name) for name in PRINCIPALS]
    recipient, sender = rng.sample(principals, 2)
    outer_key, inner_key = rng.sample(vocabulary.constants(Sort.KEY), 2)
    nonces = list(vocabulary.constants(Sort.NONCE))
    rng.shuffle(nonces)
    outer_nonce, payloads = nonces[0], nonces[1:]
    runs = []
    for number in range(rng.randint(2, 4)):
        builder = RunBuilder(principals, keysets={
            recipient: [outer_key], sender: [outer_key, inner_key]})
        for _ in range(rng.randint(0, 3)):
            builder.idle()
        inner = encrypted(payloads[number % len(payloads)], inner_key, sender)
        builder.send(sender, encrypted(group(outer_nonce, inner), outer_key,
                                       sender), recipient)
        builder.receive(recipient)
        for _ in range(rng.randint(0, 3)):
            builder.idle()
        runs.append(builder.build(f"run-{number + 1}"))
    chosen = frozenset(run.name for run in runs if rng.random() < 0.5)
    interpretation = Interpretation.from_run_table(
        {vocabulary.proposition("p0"): chosen})
    return System(tuple(runs), interpretation, vocabulary)


def sweep_universe() -> list[tuple[str, int]]:
    """``(family, seed)`` of every sweep system, in pin order."""
    return ([("e3", seed) for seed in range(SWEEP_UNIVERSE)]
            + [("nesting", seed) for seed in range(NESTING_UNIVERSE)])


def system_for_sweep(family: str, seed: int):
    """The system a sweep pin names."""
    from repro.soundness.generators import GeneratorConfig, generate_system

    if family == "nesting":
        return nesting_system(seed)
    return generate_system(GeneratorConfig(seed=seed))


def violation_points(schema_report) -> list[str]:
    """``run@time`` of each violation a sweep recorded for one schema."""
    return [f"{v.run_name}@{v.time}" for v in schema_report.violations]


# -- goodruns ------------------------------------------------------------------

GOODRUNS_UNIVERSE = 384
GOODRUNS_LIST = 128
#: 6 runs x 30 steps (204 points): the good sets stay non-empty through
#: all six stages, so every stage does work.
GOODRUNS_RUNS = 6
GOODRUNS_STEPS = 30
GOODRUNS_DEPTH = 6
#: The seed offset keeps goodruns systems distinct from sweep systems.
GOODRUNS_SEED_BASE = 100_000

#: Run-constant belief-free bodies: ``p0`` is a run-level table, and
#: freshness and key goodness are run-level facts, so the Theorem-2
#: premise (bodies true at every point of a run or at none) holds.
CHAIN_BODIES = (
    "p0", "~p0", "fresh(N1)", "fresh(N2)", "fresh(N3)",
    "P1 <-K1-> P2", "P2 <-K2-> P3", "P1 <-K3-> P3",
)
PRINCIPALS = ("P1", "P2", "P3")


def goodruns_chains(index: int, attempt: int) -> list[str]:
    """Three belief chains nested ``GOODRUNS_DEPTH`` deep, as formula text.

    Consecutive owners differ and bodies are belief-free, so no belief
    sits under a negation (I1).  ``attempt`` re-draws the chains when the
    pinning step rejects a draw whose good sets empty out.
    """
    rng = random.Random(f"goodruns-chain:{index}:{attempt}")
    chains = []
    for _chain in range(len(PRINCIPALS)):
        text = rng.choice(CHAIN_BODIES)
        owner = None
        for _level in range(GOODRUNS_DEPTH):
            owner = rng.choice([p for p in PRINCIPALS if p != owner])
            text = f"{owner} believes ({text})"
        chains.append(text)
    return chains


def close_chains(chains):
    """The I2-closed assumption vector of parsed belief chains.

    Every belief suffix of a chain becomes an assumption of its owner,
    so ``P believes (Q believes φ)`` brings ``Q believes φ`` along (I2).
    """
    from repro.goodruns import InitialAssumptions
    from repro.terms.formulas import Believes

    assignment: dict = {}
    for formula in chains:
        while isinstance(formula, Believes):
            assignment.setdefault(formula.principal, []).append(formula)
            formula = formula.body
    return InitialAssumptions.of({
        principal: tuple(dict.fromkeys(formulas))
        for principal, formulas in assignment.items()
    })


# -- serve ---------------------------------------------------------------------

#: The serve universe, by request category: 40% whole-system verdicts,
#: 20% with assumptions, 10% traced, 10% epistemic backend, 20% certified
#: protocol goals.  Every run sends all of it, so the request mix of two
#: seeds is the same; the seed deals it to the connections and orders it.
SERVE_MIX = (
    ("verdict", 96),
    ("assumptions", 48),
    ("trace", 24),
    ("epistemic", 24),
    ("protocol", 48),
)
SERVE_CONNECTIONS = 2
#: Distinct system specs: 16 belief keys plus 8 epistemic keys stay
#: inside the daemon's 32-entry system cache.
SERVE_SPECS = 16
SERVE_EPISTEMIC_SPECS = 8

#: Query formulas, from primitive up to nested belief.
SERVE_FORMULAS = (
    "p0", "~p0", "fresh(N1)", "P1 has K2", "P1 sees N2", "P2 said N1",
    "P3 says N3", "P1 <-K1-> P2", "p0 & fresh(N1)", "~(P1 sees N2) | p0",
    "P1 believes p0", "P2 believes (P1 sees N3)",
    "P3 believes P1 <-K2-> P3", "P1 believes (p0 & fresh(N2))",
    "(P1 sees N1) -> (P1 believes p0)", "P1 believes P2 believes p0",
    "P2 believes P3 believes fresh(N1)",
)

#: Wire names of the protocol corpus (as ``repro serve`` registers them).
SERVE_PROTOCOLS = (
    "andrew-rpc", "ccitt-x509", "courier", "kerberos",
    "needham-schroeder", "otway-rees", "wide-mouth-frog", "yahalom",
)


def serve_specs() -> list[dict[str, int]]:
    """The 16 generated-system specs every serve request list draws on."""
    rng = random.Random("serve-specs")
    return [
        {"seed": rng.randrange(1 << 20), "runs": rng.randint(3, 6),
         "steps": rng.randint(14, 30), "principals": 3}
        for _ in range(SERVE_SPECS)
    ]


def serve_candidates() -> list[tuple[str, dict]]:
    """Candidate ``(category, payload)`` pairs for the serve universe.

    The pinning step keeps the ones the reference executes cleanly
    (and, for ``trace``, only formulas false at some point); protocol
    candidates are added there, from the goals the corpus derives.
    """
    rng = random.Random("serve-candidates")
    specs = serve_specs()
    out: list[tuple[str, dict]] = []
    for _ in range(96):
        out.append(("verdict", {
            "kind": "system", **rng.choice(specs),
            "formula": rng.choice(SERVE_FORMULAS),
        }))
    for _ in range(48):
        assumptions: dict[str, list[str]] = {}
        for name in rng.sample(PRINCIPALS, rng.randint(1, 2)):
            assumptions[name] = [rng.choice(CHAIN_BODIES)]
        outer, inner = rng.sample(PRINCIPALS, 2)
        body = rng.choice(CHAIN_BODIES)
        assumptions.setdefault(inner, []).append(body)
        assumptions.setdefault(outer, []).append(f"{inner} believes ({body})")
        out.append(("assumptions", {
            "kind": "system", **rng.choice(specs),
            "formula": f"{rng.choice(PRINCIPALS)} believes "
                       f"({rng.choice(CHAIN_BODIES)})",
            "assumptions": assumptions,
        }))
    for _ in range(72):
        out.append(("trace", {
            "kind": "system", **rng.choice(specs),
            "formula": rng.choice(SERVE_FORMULAS), "trace": True,
        }))
    for _ in range(48):
        out.append(("epistemic", {
            "kind": "system", **rng.choice(specs[:SERVE_EPISTEMIC_SPECS]),
            "formula": rng.choice(SERVE_FORMULAS), "backend": "epistemic",
        }))
    return out


# -- op lists --------------------------------------------------------------------


def op_list(workload: str, seed: int,
            families: list[tuple[range, int]]) -> list[int]:
    """Universe indices of one run's op list for ``seed`` (in replay order).

    ``families`` pairs a range of universe indices with how many of them
    a list holds, so the lists of two seeds hold the same share of each.
    """
    rng = random.Random(f"{workload}:{seed}")
    picked = [index for indices, count in families
              for index in rng.sample(indices, count)]
    rng.shuffle(picked)
    return picked


def sweep_list(seed: int) -> list[int]:
    """One run's sweep op list: E3 systems and a fixed share of nesting
    systems."""
    return op_list("sweep", seed, [
        (range(SWEEP_UNIVERSE), SWEEP_LIST - NESTING_LIST),
        (range(SWEEP_UNIVERSE, SWEEP_UNIVERSE + NESTING_UNIVERSE),
         NESTING_LIST),
    ])


def goodruns_list(seed: int) -> list[int]:
    return op_list("goodruns", seed,
                   [(range(GOODRUNS_UNIVERSE), GOODRUNS_LIST)])


def serve_lists(seed: int, categories: dict[str, list[int]]) -> list[list[int]]:
    """One request list per connection.

    ``categories`` maps each category to the universe indices holding
    it.  Each category is shuffled and dealt evenly to the connections,
    so every list has the same share of each category; each list is then
    shuffled.
    """
    rng = random.Random(f"serve:{seed}")
    lists: list[list[int]] = [[] for _ in range(SERVE_CONNECTIONS)]
    for category, _count in SERVE_MIX:
        pool = list(categories[category])
        rng.shuffle(pool)
        for position, index in enumerate(pool):
            lists[position % SERVE_CONNECTIONS].append(index)
    for requests in lists:
        rng.shuffle(requests)
    return lists
