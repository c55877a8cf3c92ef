"""The protocol corpus and its concrete systems, pinned output for output.

``tests/data/protocol_parity.json`` holds a snapshot of everything the
corpus feeds to the rest of the library:

* per idealized protocol (all 22 of ``corpus()``): its ``pretty()``
  rendering, every step note and goal note, ``analyze(...).pretty()``,
  and ``certify(...).pretty()`` of every goal the reformulated
  analysis achieves;
* per concrete system (each family's ``build_system()`` plus Andrew's
  repaired one): the run names, each run's time span and initial key
  sets, every principal's history (the ``fingerprint`` of
  ``tests/test_soundness.py``), the system vocabulary in declaration
  order, and the ``audit_protocol`` entries of the family's
  reformulated protocol at the end of its normal run.

Long texts are pinned by SHA-256 digest; everything else verbatim.
Variants are passed positionally, the one calling convention every
family accepts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.logic.certify import certify
from repro.model.runs import ENVIRONMENT
from repro.protocols import PROTOCOLS, corpus
from repro.soundness import audit_protocol

EXPECTED = json.loads(
    (Path(__file__).parent / "data" / "protocol_parity.json").read_text(
        encoding="utf-8"
    )
)

#: (family, variant, normal run) of every pinned system.
SYSTEMS = (
    ("kerberos", None, "kerberos-normal"),
    ("needham-schroeder", None, "ns-normal"),
    ("otway-rees", None, "otway-rees-normal"),
    ("yahalom", None, "yahalom-normal"),
    ("wide-mouth-frog", None, "wmf-normal"),
    ("andrew-rpc", None, "andrew-normal"),
    ("andrew-rpc", "repaired", "andrew-repaired-normal"),
    ("courier", None, "courier-honest"),
    ("ccitt-x509", None, "x509-normal"),
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _call(factory, variant):
    return factory() if variant is None else factory(variant)


def protocol_snapshot(protocol) -> dict:
    report = analyze(protocol)
    certificates = {}
    if protocol.logic == "at":
        for result in report.goal_results:
            if result.achieved:
                proof = certify(report.derivation, result.goal.formula)
                certificates[result.goal.label] = _digest(proof.pretty())
    return {
        "pretty": _digest(protocol.pretty()),
        "step_notes": [step.note for step in protocol.steps],
        "goal_notes": [goal.note for goal in protocol.goals],
        "analysis": _digest(report.pretty()),
        "certificates": certificates,
    }


def system_snapshot(name: str, variant, normal_run: str) -> dict:
    family = PROTOCOLS[name]
    system = _call(family.build_system, variant)
    runs = {}
    for run in system.runs:
        keys = {
            str(principal): sorted(map(str, run.keyset(principal, run.start_time)))
            for principal in run.principals + (ENVIRONMENT,)
        }
        fingerprint = [
            f"{run.name} {principal}: "
            + "; ".join(map(str, run.history(principal, run.end_time)))
            for principal in run.all_principals
        ]
        runs[run.name] = {
            "times": [run.start_time, run.end_time],
            "keys": keys,
            "histories": _digest("\n".join(fingerprint)),
        }
    audit = audit_protocol(_call(family.at_protocol, variant), system, normal_run)
    return {
        "run_names": [run.name for run in system.runs],
        "runs": runs,
        "vocabulary": [
            f"{type(symbol).__name__} {symbol}" for symbol in system.vocabulary
        ],
        "audit": [
            [str(entry.formula), entry.derived, entry.semantically_true]
            for entry in audit.entries
        ],
    }


def snapshot() -> dict:
    """Everything the parity file pins, computed from the current tree."""
    return {
        "protocols": {
            f"{protocol.name}/{protocol.logic}": protocol_snapshot(protocol)
            for protocol in corpus()
        },
        "systems": {
            f"{name}/{variant or 'base'}": system_snapshot(name, variant, run)
            for name, variant, run in SYSTEMS
        },
    }


@pytest.fixture(scope="module")
def current():
    return snapshot()


def test_same_protocols(current):
    assert list(current["protocols"]) == list(EXPECTED["protocols"])
    assert sum(len(entry["certificates"])
               for entry in current["protocols"].values()) == 34


@pytest.mark.parametrize("key", list(EXPECTED["protocols"]))
def test_protocol_parity(current, key):
    assert current["protocols"][key] == EXPECTED["protocols"][key]


@pytest.mark.parametrize("key", list(EXPECTED["systems"]))
def test_system_parity(current, key):
    assert current["systems"][key] == EXPECTED["systems"][key]
