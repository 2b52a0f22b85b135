"""Workload generation: YCSB-style key-value operations and clients.

The paper drives both systems with YCSB at an 85%/15% read/write ratio, a
Zipfian key-popularity distribution, 1 KB operations, and closed-loop client
threads that issue requests back-to-back.  This package reproduces that
workload on top of the simulator.

Two client models are available:

* closed-loop (:class:`WorkloadClient`) — the paper's model: a fixed number
  of threads, each with exactly one outstanding request;
* open-loop (:class:`~repro.workload.population.ClientPopulation`) — one
  aggregate process per region simulating an entire user population with
  Poisson arrivals at a constant rate, independent of completions.
"""

from repro.workload.clients import WorkloadClient
from repro.workload.population import (
    POPULATION_PRESETS,
    ClientPopulation,
    PopulationConfig,
    resolve_population_preset,
)
from repro.workload.ycsb import YcsbConfig, YcsbWorkload
from repro.workload.zipf import ZipfianGenerator

__all__ = [
    "POPULATION_PRESETS",
    "ClientPopulation",
    "PopulationConfig",
    "WorkloadClient",
    "YcsbConfig",
    "YcsbWorkload",
    "ZipfianGenerator",
    "resolve_population_preset",
]
