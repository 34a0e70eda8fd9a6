"""Quantum-annealing stand-in (the paper's D-Wave substitute).

Reproduces both halves of Trummer & Koch's mapping pipeline:

* the *logical* level is a plain :class:`~repro.qubo.model.QuboModel`;
* the *physical* level is a Chimera hardware graph (:mod:`.chimera`), a
  chain-based minor embedding (:mod:`.embedding`), and a sampler.

Two samplers are provided: classical simulated annealing (:mod:`.simulated_annealing`)
and path-integral simulated *quantum* annealing with a transverse field
(:mod:`.sqa`).  :class:`~repro.annealing.device.AnnealerDevice` wires the
embed -> sample -> unembed pipeline into a single call.
"""

from repro.annealing.chimera import chimera_graph
from repro.annealing.device import AnnealerDevice
from repro.annealing.embedding import embed_qubo, find_embedding, unembed_sampleset
from repro.annealing.quench import greedy_quench
from repro.annealing.schedule import geometric_beta_schedule, linear_schedule
from repro.annealing.simulated_annealing import SimulatedAnnealingSolver
from repro.annealing.sqa import SimulatedQuantumAnnealingSolver

__all__ = [
    "chimera_graph",
    "AnnealerDevice",
    "embed_qubo",
    "find_embedding",
    "unembed_sampleset",
    "greedy_quench",
    "geometric_beta_schedule",
    "linear_schedule",
    "SimulatedAnnealingSolver",
    "SimulatedQuantumAnnealingSolver",
]
