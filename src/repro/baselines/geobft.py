"""GeoBFT-like baseline (ResilientDB's clustered protocol), for experiment E6.

GeoBFT [Gupta et al., VLDB 2020] structures replication the same way Hamava
does — clusters order locally and share certified batches globally — but it:

* uses a PBFT-style protocol inside every cluster,
* keeps ordering of the next batch going while earlier batches are still
  being shared and executed (a deep ordering pipeline), and
* has **no reconfiguration support**: membership is fixed for the lifetime of
  the deployment, which is exactly the gap Hamava fills.

We model those three properties with configuration: the BFT-SMaRt (PBFT-like)
engine, ``pipeline_local_ordering=True``, and the single-workflow reconfig
path with no churn ever scheduled (so no reconfiguration machinery runs).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import HamavaConfig
from repro.harness.scenario import register_preset


def geobft_config(base: Optional[HamavaConfig] = None) -> HamavaConfig:
    """The configuration modelling GeoBFT on top of the shared substrate."""
    base = base or HamavaConfig()
    config = base.with_engine("bftsmart")
    config.parallel_reconfig = False
    config.pipeline_local_ordering = True
    return config


#: Scenario preset: ``Scenario(...).preset("geobft")`` runs this baseline.
register_preset("geobft", geobft_config)


__all__ = ["geobft_config"]
