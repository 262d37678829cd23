"""Coherence protocol engines for the trace-driven simulator.

Each protocol maps one memory reference to the hardware operations it
triggers (the same :class:`~repro.core.operations.Operation` vocabulary
the analytical model uses) while keeping every processor's cache state
up to date.  The machine in :mod:`repro.sim.machine` charges the
operations' CPU and bus cycles from its cost table, so simulator and
model share a single system model by construction — exactly the
validation setup of the paper's Section 3.
"""

from repro.sim.protocols.interface import AccessOutcome, Protocol
from repro.sim.protocols.nocoherence import BaseProtocol
from repro.sim.protocols.directory import DirectoryProtocol
from repro.sim.protocols.dragon import DragonProtocol
from repro.sim.protocols.hybrid import (
    Hybrid2Protocol,
    Hybrid4Protocol,
    HybridLimitProtocol,
    HybridProtocol,
)
from repro.sim.protocols.nocache import NoCacheProtocol
from repro.sim.protocols.swflush import SoftwareFlushProtocol
from repro.sim.protocols.wti import WriteThroughInvalidateProtocol

__all__ = [
    "HYBRID_PROTOCOLS",
    "PROTOCOLS",
    "AccessOutcome",
    "BaseProtocol",
    "DirectoryProtocol",
    "DragonProtocol",
    "Hybrid2Protocol",
    "Hybrid4Protocol",
    "HybridLimitProtocol",
    "HybridProtocol",
    "NoCacheProtocol",
    "Protocol",
    "SoftwareFlushProtocol",
    "WriteThroughInvalidateProtocol",
    "is_registered_class",
    "protocol_class",
]

#: Protocol classes by canonical name.
PROTOCOLS: dict[str, type[Protocol]] = {
    BaseProtocol.name: BaseProtocol,
    DirectoryProtocol.name: DirectoryProtocol,
    DragonProtocol.name: DragonProtocol,
    Hybrid2Protocol.name: Hybrid2Protocol,
    Hybrid4Protocol.name: Hybrid4Protocol,
    HybridLimitProtocol.name: HybridLimitProtocol,
    NoCacheProtocol.name: NoCacheProtocol,
    SoftwareFlushProtocol.name: SoftwareFlushProtocol,
    WriteThroughInvalidateProtocol.name: WriteThroughInvalidateProtocol,
}

#: The adaptive update/invalidate family (registry-name subset).
HYBRID_PROTOCOLS: tuple[str, ...] = (
    Hybrid2Protocol.name,
    Hybrid4Protocol.name,
    HybridLimitProtocol.name,
)

_ALIASES = {
    "base": "base",
    "directory": "directory",
    "dir": "directory",
    "full-map": "directory",
    "no-coherence": "base",
    "dragon": "dragon",
    "snoopy": "dragon",
    "hybrid": "hybrid-4",
    "hybrid-2": "hybrid-2",
    "hybrid-4": "hybrid-4",
    "hybrid-limit": "hybrid-limit",
    "competitive": "hybrid-limit",
    "nocache": "nocache",
    "no-cache": "nocache",
    "swflush": "swflush",
    "software-flush": "swflush",
    "flush": "swflush",
    "wti": "wti",
    "write-through": "wti",
}


def protocol_class(name: str) -> type[Protocol]:
    """Look up a protocol class by name or alias.

    Raises:
        KeyError: if the name matches no protocol.
    """
    try:
        return PROTOCOLS[_ALIASES[name.strip().lower()]]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS))
        raise KeyError(f"unknown protocol {name!r}; known: {known}") from None


def is_registered_class(cls: type[Protocol]) -> bool:
    """Whether ``cls`` is the class registered under its own ``name``.

    A subclass (a mutant, an oracle shadow) keeps its parent's name but
    not its code, so engines that hard-code a protocol's outcomes must
    refuse it.
    """
    return PROTOCOLS.get(cls.name) is cls


def protocol_aliases(name: str) -> tuple[str, ...]:
    """Aliases (excluding the canonical name) resolving to ``name``."""
    return tuple(
        sorted(
            alias
            for alias, target in _ALIASES.items()
            if target == name and alias != name
        )
    )
