"""The (t, g, p) resource allocation of the mesh interconnect.

The paper's datapath places Teleporters (T'), Generators (G) and Purifiers
(P) on every tile (Section 5).  :class:`ResourceAllocation` says how many
units of each a node holds; the live simulation behaviour lives in
:mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ResourceAllocation:
    """The (t, g, p) resource allocation swept in Figure 16.

    Attributes
    ----------
    teleporters_per_node:
        Teleporters per T' node (*t*).
    generators_per_node:
        Generators per G node (*g*).
    purifiers_per_node:
        Queue purifiers per P node (*p*).
    """

    teleporters_per_node: int = 1
    generators_per_node: int = 1
    purifiers_per_node: int = 1

    def __post_init__(self) -> None:
        for name in ("teleporters_per_node", "generators_per_node", "purifiers_per_node"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def uniform(cls, count: int) -> "ResourceAllocation":
        """t = g = p = ``count`` (the paper's normalisation point uses 1024)."""
        return cls(count, count, count)

    @classmethod
    def ratio(cls, purifiers: int, ratio: int) -> "ResourceAllocation":
        """t = g = ``ratio`` * p with p = ``purifiers`` (Figure 16 sweeps)."""
        if ratio < 1:
            raise ConfigurationError(f"ratio must be >= 1, got {ratio}")
        return cls(purifiers * ratio, purifiers * ratio, purifiers)

    @property
    def label(self) -> str:
        t, g, p = self.teleporters_per_node, self.generators_per_node, self.purifiers_per_node
        if t == g == p:
            return f"t=g=p={t}"
        if t == g and p and t % p == 0:
            return f"t=g={t // p}p (p={p})"
        return f"t={t},g={g},p={p}"

    @property
    def storage_cells(self) -> int:
        """Incoming-teleport storage of one T' node: ``t`` cells per link, four links.

        Section 5.3 sizes it so incoming teleports are never multiplexed,
        which is the paper's deadlock-avoidance rule.
        """
        return 4 * self.teleporters_per_node

    def area_units(self) -> int:
        """Crude interconnect-area proxy: total units per grid tile.

        Used when comparing allocations under a fixed area budget, as the
        paper does when it trades T'/G size against P size.
        """
        return (
            self.teleporters_per_node
            + self.generators_per_node
            + self.purifiers_per_node
        )
