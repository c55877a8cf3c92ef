"""Seeded random workload generation for the differential fuzzer.

Generation is layered on the E3 soundness generator
(:mod:`repro.soundness.generators`): every base system comes out of
:class:`~repro.model.builder.RunBuilder` with enforcement on, so it is
well-formed by construction — the fuzzer's *negative* test material is
produced afterwards by the fault injectors (:mod:`repro.fuzz.mutators`),
never by the generator itself.

Each fuzz iteration derives its own :class:`GeneratorConfig` from the
master seed, varying the shape knobs (principal count, run length,
environment activity) so that structurally different systems are
explored without sacrificing reproducibility: iteration *i* of seed *s*
is always the same workload.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING

from repro.model.system import Interpretation, System
from repro.soundness.generators import GeneratorConfig, generate_system
from repro.terms.atoms import Sort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fuzz.harness import FuzzConfig


def iteration_rng(config: FuzzConfig, iteration: int) -> random.Random:
    """The iteration-local RNG: a pure function of (seed, iteration)."""
    return random.Random(f"{config.seed}:{iteration}")


def random_generator_config(rng: random.Random, iteration: int) -> GeneratorConfig:
    """A small, shape-varied system configuration for one iteration."""
    return GeneratorConfig(
        principals=rng.randint(2, 3),
        keys=rng.randint(2, 3),
        nonces=rng.randint(2, 3),
        keypairs=rng.randint(0, 1),
        runs=rng.randint(2, 3),
        steps_per_run=rng.randint(6, 14),
        past_steps=rng.randint(0, 3),
        env_activity=rng.choice((0.0, 0.2, 0.4)),
        seed=rng.randrange(2**31),
    )


def generate_base_system(config: FuzzConfig, iteration: int) -> tuple[System, random.Random]:
    """One well-formed base system plus the iteration's RNG.

    The RNG is returned *after* the system draw, so mutator and oracle
    choices downstream remain reproducible from (seed, iteration).
    """
    rng = iteration_rng(config, iteration)
    generator_config = random_generator_config(rng, iteration)
    return generate_system(generator_config), rng


def randomize_interpretation(rng: random.Random, system: System) -> System:
    """The system with a fresh seeded primitive-proposition interpretation.

    The E3 generator fixes each proposition's truth at generation time
    (run-level, constant within a run); this re-rolls it *per workload*
    with point-level granularity, so the Prim/A12 plumbing is stressed
    with interpretations the generator never produces.  The replacement
    predicate is built with :meth:`Interpretation.from_table`, so it
    stays plain picklable data.
    """
    propositions = sorted(system.constants(Sort.PROPOSITION), key=str)
    if not propositions:
        return system
    table = {}
    for proposition in propositions:
        density = rng.choice((0.0, 0.25, 0.5, 1.0))
        table[proposition] = [
            (run.name, k)
            for run in system.runs
            for k in run.times
            if rng.random() < density
        ]
    return dataclasses.replace(
        system, interpretation=Interpretation.from_table(table)
    )

