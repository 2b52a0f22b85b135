"""Baseline systems the paper compares against.

* :mod:`repro.baselines.geobft` — a GeoBFT-like clustered replication system
  (clustered PBFT with certified global sharing, pipelined local ordering,
  no reconfiguration support), used in experiment E6.
* :mod:`repro.baselines.pbft_global` — non-clustered PBFT over all replicas,
  the classical baseline clustered replication is motivated against (E0/E1).
* :mod:`repro.baselines.single_workflow` — Hamava with reconfigurations
  ordered through the transaction consensus instead of the dedicated
  parallel workflow, the ablation of experiment E5.2.
"""

from repro.baselines.geobft import geobft_config
from repro.baselines.pbft_global import global_pbft_scenario
from repro.baselines.single_workflow import single_workflow_config

__all__ = [
    "geobft_config",
    "global_pbft_scenario",
    "single_workflow_config",
]
