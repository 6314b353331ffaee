"""Evolving-topology generator: periodic ``is_exists`` edge schedules.

Section II-A: "a slow changing topology can be captured using an
``isExists`` attribute that simulates the appearance or disappearance of
vertices or edges at different instances".  This populator gives every edge
a deterministic periodic schedule — edge ``e`` exists at timestep ``t`` iff

    (t + phase_e) mod period_e  <  duty_e

so topology changes are temporally correlated (edges stay up/down for
stretches, like road closures or link outages) yet any instance can be
regenerated independently from the seed — the property process-cluster
workers rely on.
"""

from __future__ import annotations

import numpy as np

from ..graph.instance import GraphInstance
from ..graph.template import GraphTemplate

__all__ = ["PeriodicExistencePopulator"]


class PeriodicExistencePopulator:
    """Fill the edge ``is_exists`` column from per-edge periodic schedules.

    Parameters
    ----------
    template:
        The template whose edges get schedules (drawn once, at construction).
    min_period, max_period:
        Period range (timesteps) for each edge's on/off cycle.
    duty:
        Mean fraction of each period during which the edge exists.
    always_on_fraction:
        Fraction of edges that never disappear (the stable core — road
        networks don't lose most segments).
    seed:
        RNG seed for the schedules.
    """

    def __init__(
        self,
        template: GraphTemplate,
        *,
        min_period: int = 4,
        max_period: int = 12,
        duty: float = 0.6,
        always_on_fraction: float = 0.5,
        seed: int = 0,
        attr: str = "is_exists",
    ) -> None:
        if not 1 <= min_period <= max_period:
            raise ValueError("need 1 <= min_period <= max_period")
        if not 0.0 < duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")
        rng = np.random.default_rng(seed)
        m = template.num_edges
        self.attr = attr
        self.period = rng.integers(min_period, max_period + 1, m)
        self.phase = rng.integers(0, self.period)
        self.duty_len = np.maximum(1, np.round(duty * self.period)).astype(np.int64)
        always_on = rng.random(m) < always_on_fraction
        self.duty_len[always_on] = self.period[always_on]

    def exists_at(self, timestep: int) -> np.ndarray:
        """Boolean existence mask for all edges at ``timestep``."""
        return (timestep + self.phase) % self.period < self.duty_len

    def __call__(self, instance: GraphInstance, timestep: int) -> None:
        instance.edge_table.set_column(self.attr, self.exists_at(timestep))
