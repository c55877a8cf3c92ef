"""The protocol corpus: idealized protocols from the BAN89/AT91 papers.

Each family is a spec file, ``specs/<module>.proto``, read by
:class:`~repro.protocols.loader.ProtocolFamily`.  The family object at
``repro.protocols.<module>`` gives ``ban_protocol()`` and
``at_protocol()`` (the two idealization styles), ``build_system()`` (its
concrete runs, attacks included, for semantic auditing) and ``terms()``
(its vocabulary and named terms), each taking one ``variant``.
"""

from pathlib import Path

from repro.protocols.base import (
    Goal,
    IdealizedProtocol,
    MessageStep,
    NewKeyStep,
    Step,
)
from repro.protocols.loader import ProtocolFamily

SPECS = Path(__file__).with_name("specs")

kerberos = ProtocolFamily(SPECS / "kerberos.proto")
needham_schroeder = ProtocolFamily(SPECS / "needham_schroeder.proto")
otway_rees = ProtocolFamily(SPECS / "otway_rees.proto")
yahalom = ProtocolFamily(SPECS / "yahalom.proto")
wide_mouth_frog = ProtocolFamily(SPECS / "wide_mouth_frog.proto")
andrew_rpc = ProtocolFamily(SPECS / "andrew_rpc.proto")
forwarding = ProtocolFamily(SPECS / "forwarding.proto")
x509 = ProtocolFamily(SPECS / "x509.proto")

#: Protocol name -> family: the choices of ``repro analyze`` and of the
#: serve daemon's ``kind: protocol`` requests.
PROTOCOLS = {
    "kerberos": kerberos,
    "needham-schroeder": needham_schroeder,
    "otway-rees": otway_rees,
    "yahalom": yahalom,
    "wide-mouth-frog": wide_mouth_frog,
    "andrew-rpc": andrew_rpc,
    "courier": forwarding,
    "ccitt-x509": x509,
}


def corpus() -> tuple[IdealizedProtocol, ...]:
    """Every idealized protocol in the library, both logics, all variants."""
    protocols: list[IdealizedProtocol] = []
    for family in PROTOCOLS.values():
        variants = (None,) + family.variants
        for build in (family.ban_protocol, family.at_protocol):
            protocols.extend(build(variant) for variant in variants)
    return tuple(protocols)


__all__ = [
    "Goal",
    "IdealizedProtocol",
    "MessageStep",
    "NewKeyStep",
    "PROTOCOLS",
    "ProtocolFamily",
    "Step",
    "andrew_rpc",
    "corpus",
    "forwarding",
    "kerberos",
    "needham_schroeder",
    "otway_rees",
    "wide_mouth_frog",
    "x509",
    "yahalom",
]
