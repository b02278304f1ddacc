"""Ownership-cost model (Section 3.3, "energy frugality").

"A PC costs around $1,000 and consumes 300W.  A Watt costs $1/year.  So the
energy cost of a PC equals the purchase cost after a little more than three
years, which is of the same order as the typical useful life of a PC ...
Embedded processors can reduce the capital and energy costs of a given
level of compute power by about an order of magnitude."

The model computes cumulative ownership cost (purchase + energy) over time
for an arbitrary node specification, finds the purchase/energy crossover
point and compares platforms per unit of delivered throughput — the numbers
regenerated by experiment E2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.energy.model import EMBEDDED_NODE, HIGH_END_DESKTOP

#: The paper's electricity price: one watt-year costs about one dollar.
DEFAULT_DOLLARS_PER_WATT_YEAR = 1.0


@dataclass
class OwnershipCostModel:
    """Purchase-plus-energy cost of owning a computing node.

    Parameters
    ----------
    purchase_cost_usd:
        Capital cost of the node.
    power_w:
        Average power drawn over its life.
    dollars_per_watt_year:
        Electricity price (the paper uses $1 per watt-year).
    """

    purchase_cost_usd: float = 1000.0
    power_w: float = 300.0
    dollars_per_watt_year: float = DEFAULT_DOLLARS_PER_WATT_YEAR

    def __post_init__(self) -> None:
        if self.purchase_cost_usd < 0:
            raise ValueError("purchase cost must be non-negative")
        if self.power_w < 0:
            raise ValueError("power must be non-negative")
        if self.dollars_per_watt_year <= 0:
            raise ValueError("electricity price must be positive")

    # ------------------------------------------------------------------
    # Basic quantities
    # ------------------------------------------------------------------
    def energy_cost(self, years: float) -> float:
        """Cumulative energy cost after ``years`` of continuous operation."""
        if years < 0:
            raise ValueError("years must be non-negative")
        return self.power_w * self.dollars_per_watt_year * years

    def total_cost(self, years: float) -> float:
        """Purchase plus energy cost after ``years``."""
        return self.purchase_cost_usd + self.energy_cost(years)

    @property
    def crossover_years(self) -> float:
        """Years of operation after which energy cost equals purchase cost.

        For the paper's PC (~$1,000, 300 W, $1/W/year) this is "a little
        more than three years".
        """
        if self.power_w == 0:
            return float("inf")
        return self.purchase_cost_usd / (
            self.power_w * self.dollars_per_watt_year)

    def cost_series(self, years: Sequence[float]) -> List[Tuple[float, float, float]]:
        """``(year, purchase, cumulative energy)`` rows for a cost-over-time plot."""
        return [(year, self.purchase_cost_usd, self.energy_cost(year))
                for year in years]

    # ------------------------------------------------------------------
    # Constructors and comparisons
    # ------------------------------------------------------------------
    @classmethod
    def typical_pc(cls) -> "OwnershipCostModel":
        """The paper's PC: $1,000 purchase, 300 W."""
        return cls(purchase_cost_usd=1000.0, power_w=300.0)

    @classmethod
    def spinnaker_node(cls) -> "OwnershipCostModel":
        """The paper's SpiNNaker node: ~$20 of components, under 1 W."""
        return cls(purchase_cost_usd=EMBEDDED_NODE.unit_cost_usd,
                   power_w=EMBEDDED_NODE.power_w)

    @staticmethod
    def ownership_comparison(lifetime_years: float = 3.0) -> Dict[str, float]:
        """E2 headline numbers: PC vs SpiNNaker node over a typical lifetime.

        Both platforms deliver comparable throughput (Section 2), so the
        total-cost ratio is directly the "about an order of magnitude"
        reduction in ownership cost the paper claims.
        """
        pc = OwnershipCostModel.typical_pc()
        node = OwnershipCostModel.spinnaker_node()
        pc_total = pc.total_cost(lifetime_years)
        node_total = node.total_cost(lifetime_years)
        desktop_mips = HIGH_END_DESKTOP.mips
        node_mips = EMBEDDED_NODE.mips
        return {
            "pc_crossover_years": pc.crossover_years,
            "pc_total_cost": pc_total,
            "node_total_cost": node_total,
            "ownership_cost_ratio": pc_total / node_total,
            "pc_cost_per_gips": pc_total / (desktop_mips / 1000.0),
            "node_cost_per_gips": node_total / (node_mips / 1000.0),
            "cost_per_throughput_ratio": (pc_total / desktop_mips) /
                                         (node_total / node_mips),
        }
