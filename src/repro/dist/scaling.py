"""Analytic cluster performance model for the Fig. 3 scaling study.

We have one core and no interconnect, so wall-clock scaling curves are
produced by a transparent model that combines

* **measured** single-core kernel throughput (cells/s of the real modal or
  quadrature update, from this machine),
* **real** halo-exchange volumes (ghost-layer doubles counted by the actual
  decomposition in :mod:`repro.dist.decomp` — in 6D one configuration
  ghost layer drags the whole attached 3D velocity grid with it), and
* hardware constants (per-node bandwidth, message latency, a network
  contention factor, and an on-node efficiency exponent capturing the
  instruction-level-parallelism starvation the paper blames for strong-
  scaling degradation).

Defaults are calibrated so the *paper's observed fractions* come out: at
4096 nodes the weak-scaling run spends ~25% of a step in halo exchange, and
the strong-scaling run gains ~4x per 8x nodes ending ~80% communication-
bound — reproducing the shape of Fig. 3, not Theta's absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .decomp import ConfDecomposition

__all__ = ["ProblemSpec", "ClusterModel", "weak_scaling_series", "strong_scaling_series"]


@dataclass(frozen=True)
class ProblemSpec:
    """A phase-space problem for the scaling model."""

    conf_cells: Tuple[int, ...]
    vel_cells: Tuple[int, ...]
    num_basis: int
    num_species: int = 2
    rk_stages: int = 3

    def refine_conf(self, factor: int) -> "ProblemSpec":
        return ProblemSpec(
            tuple(c * factor for c in self.conf_cells),
            self.vel_cells,
            self.num_basis,
            self.num_species,
            self.rk_stages,
        )


@dataclass
class ClusterModel:
    """Cost model ``t_step = t_compute + t_halo`` for one RK stage set.

    Parameters
    ----------
    cell_updates_per_second_core:
        Measured single-core throughput of the full per-cell update
        (volume + all surfaces) for one species.
    cores_per_node:
        KNL-like wide node (the paper uses 256 hardware threads on 64
        cores; throughput is folded into the measured rate).
    bandwidth_doubles_per_second:
        Effective per-node halo bandwidth.
    latency_seconds:
        Per-neighbor message latency.
    contention_per_octave:
        Fractional bandwidth loss per 8x increase of the node count
        (network contention at scale; calibrated to the paper's <=25%
        weak-scaling halo share at 4096 nodes).
    ilp_efficiency_exponent:
        On-node efficiency ``(work/work_ref)^a`` when the per-node work
        shrinks below ``work_ref`` cells (strong-scaling starvation;
        ``a = 1/3`` reproduces the paper's 4x-per-8x strong scaling).
    """

    cell_updates_per_second_core: float
    cores_per_node: int = 64
    bandwidth_doubles_per_second: float = 2.5e9
    latency_seconds: float = 2.0e-6
    contention_per_octave: float = 0.43
    ilp_efficiency_exponent: float = 1.0 / 3.0
    work_ref_cells_per_node: float = None  # set from the 1-node problem

    # ------------------------------------------------------------------ #
    def time_per_step(self, problem: ProblemSpec, nodes: int) -> Dict[str, float]:
        """Model one full SSP-RK time step on ``nodes`` nodes."""
        decomp = ConfDecomposition.create(problem.conf_cells, nodes)
        nvel = int(np.prod(problem.vel_cells))
        local_conf = int(np.prod(decomp.local_cells(0)))
        work_cells = local_conf * nvel  # per node, one species, one stage

        # ---- compute ---------------------------------------------------
        rate_node = self.cell_updates_per_second_core * self.cores_per_node
        if self.work_ref_cells_per_node:
            starvation = min(
                1.0, (work_cells / self.work_ref_cells_per_node) ** self.ilp_efficiency_exponent
            )
        else:
            starvation = 1.0
        t_comp = (
            problem.rk_stages
            * problem.num_species
            * work_cells
            / (rate_node * starvation)
        )

        # ---- halo exchange ----------------------------------------------
        halo_doubles = (
            decomp.halo_doubles(0, problem.num_basis, nvel) * problem.num_species
        )
        octaves = np.log(max(nodes, 1)) / np.log(8.0)
        bw = self.bandwidth_doubles_per_second / (1.0 + self.contention_per_octave * octaves)
        n_neighbors = sum(2 for d in decomp.dims if d > 1)
        t_halo = problem.rk_stages * (
            halo_doubles / bw + n_neighbors * self.latency_seconds
        )
        total = t_comp + t_halo
        return {
            "nodes": nodes,
            "t_compute": t_comp,
            "t_halo": t_halo,
            "t_step": total,
            "halo_fraction": t_halo / total,
            "work_cells_per_node": work_cells,
            "halo_doubles_per_node": halo_doubles,
        }


def weak_scaling_series(
    model: ClusterModel, base: ProblemSpec, node_counts: Sequence[int]
) -> List[Dict[str, float]]:
    """Grow the configuration grid with the node count (paper setup: double
    each configuration dimension per 8x nodes) and normalize to one node."""
    model.work_ref_cells_per_node = None
    out = []
    base_time = None
    for nodes in node_counts:
        factor = round(nodes ** (1.0 / len(base.conf_cells)))
        problem = base.refine_conf(max(factor, 1))
        rec = model.time_per_step(problem, nodes)
        if base_time is None:
            base_time = rec["t_step"]
        rec["normalized"] = rec["t_step"] / base_time
        out.append(rec)
    return out


def strong_scaling_series(
    model: ClusterModel, problem: ProblemSpec, node_counts: Sequence[int]
) -> List[Dict[str, float]]:
    """Fixed problem; normalize speedup to the first node count."""
    first = node_counts[0]
    ref = ConfDecomposition.create(problem.conf_cells, first)
    nvel = int(np.prod(problem.vel_cells))
    model.work_ref_cells_per_node = float(
        np.prod(ref.local_cells(0)) * nvel
    )
    out = []
    base_time = None
    for nodes in node_counts:
        rec = model.time_per_step(problem, nodes)
        if base_time is None:
            base_time = rec["t_step"]
        rec["speedup"] = base_time / rec["t_step"]
        rec["ideal_speedup"] = nodes / first
        out.append(rec)
    return out
