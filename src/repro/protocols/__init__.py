"""The protocol corpus: idealized protocols from the BAN89/AT91 papers.

Every protocol module exposes ``ban_protocol()`` and ``at_protocol()``
(the two idealization styles) and, where a concrete execution matters
to an experiment, ``build_system()`` producing model runs for semantic
auditing.
"""

from repro.protocols import (
    andrew_rpc,
    forwarding,
    kerberos,
    needham_schroeder,
    otway_rees,
    wide_mouth_frog,
    x509,
    yahalom,
)
from repro.protocols.base import (
    Goal,
    IdealizedProtocol,
    MessageStep,
    NewKeyStep,
    Step,
)

#: Protocol name -> module: the choices of ``repro analyze`` and of the
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
    return (
        kerberos.ban_protocol(),
        kerberos.at_protocol(),
        needham_schroeder.ban_protocol(),
        needham_schroeder.ban_protocol(with_dubious_assumption=True),
        needham_schroeder.at_protocol(),
        needham_schroeder.at_protocol(with_dubious_assumption=True),
        otway_rees.ban_protocol(),
        otway_rees.at_protocol(),
        yahalom.ban_protocol(),
        yahalom.at_protocol(),
        wide_mouth_frog.ban_protocol(),
        wide_mouth_frog.at_protocol(),
        andrew_rpc.ban_protocol(),
        andrew_rpc.ban_protocol(repaired=True),
        andrew_rpc.at_protocol(),
        andrew_rpc.at_protocol(repaired=True),
        forwarding.ban_protocol(),
        forwarding.at_protocol(),
        x509.ban_protocol(),
        x509.ban_protocol(repaired=True),
        x509.at_protocol(),
        x509.at_protocol(repaired=True),
    )


__all__ = [
    "Goal",
    "IdealizedProtocol",
    "MessageStep",
    "NewKeyStep",
    "PROTOCOLS",
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
