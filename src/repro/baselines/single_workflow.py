"""Single-workflow reconfiguration baseline (experiment E5.2).

Hamava's design takes reconfigurations *off* the critical path: they are
collected as a set and disseminated in parallel with transaction ordering.
The ablation orders every reconfiguration request through the same consensus
as transactions, where it occupies batch slots and is processed in sequence —
the behaviour the paper compares against in Fig. 5b.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.config import HamavaConfig
from repro.harness.scenario import register_preset


def single_workflow_config(base: Optional[HamavaConfig] = None) -> HamavaConfig:
    """Configuration with reconfigurations ordered through the transaction path."""
    return replace(base or HamavaConfig(), parallel_reconfig=False)


#: Scenario preset: ``Scenario(...).preset("single_workflow")`` runs the ablation.
register_preset("single_workflow", single_workflow_config)


__all__ = ["single_workflow_config"]
