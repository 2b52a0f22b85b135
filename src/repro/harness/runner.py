"""Scenario execution: multi-seed grids, parallel fan-out, typed results.

:class:`ScenarioRunner` executes a list of scenarios (specs or fluent
builders) across seeds and returns one :class:`ResultRow` per (scenario,
seed) pair, in submission order.  With ``workers > 1`` the grid fans out
over a :mod:`multiprocessing` pool; every run is driven entirely by its
scenario seed, so parallel execution produces rows byte-identical to serial
execution.  Rows persist to JSON (:meth:`ScenarioRunner.save` /
:meth:`ScenarioRunner.load`) so benchmark results can be archived and
re-plotted without re-simulating.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.harness.deployment import Deployment
from repro.harness.scenario import ScenarioSpec


@dataclass
class ResultRow:
    """The measurements of one (scenario, seed) data point.

    The flat fields mirror :meth:`MetricsCollector.summary`; ``stages`` and
    ``series`` are filled only when the scenario asked for them
    (``collect_stages`` / ``timeseries_bucket``); ``labels`` carries the
    scenario's free-form tags (sweep coordinates, variant names, ...).
    ``network`` is the run's :meth:`NetworkStats.snapshot` plus the mean
    wire link latency in milliseconds (``link_latency_mean_ms``, which
    excludes 0 ms self-deliveries by construction — they never traverse the
    latency model).

    ``error`` is ``None`` for successful runs; when a scenario crashes
    (build or simulation), the runner returns a row of the zero defaults
    carrying the seed and the worker traceback here instead of hanging the
    grid or silently dropping the data point.
    """

    scenario: str
    seed: int
    engine: str
    preset: str
    throughput: float = 0.0
    throughput_reads: float = 0.0
    throughput_writes: float = 0.0
    latency_mean: float = 0.0
    latency_read: float = 0.0
    latency_write: float = 0.0
    latency_p99: float = 0.0
    operations: int = 0
    rounds: int = 0
    reconfigs_applied: int = 0
    joins_completed: int = 0
    labels: Dict[str, object] = field(default_factory=dict)
    stages: Optional[Dict[str, float]] = None
    series: Optional[List[List[float]]] = None
    network: Optional[Dict[str, float]] = None
    population: Optional[Dict[str, float]] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable description of this row (covers every field)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ResultRow":
        """Rebuild a row from :meth:`to_dict` output."""
        data = dict(payload)
        series = data.get("series")
        data["series"] = None if series is None else [list(point) for point in series]
        return cls(**data)

    def to_json(self) -> str:
        """Serialize to a JSON string (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)


def run_scenario(spec: ScenarioSpec) -> ResultRow:
    """Build, execute, and summarize one scenario spec.

    ``shard_parallel`` specs run their shards in worker processes; the
    resulting row is byte-identical to the in-process execution of the
    same spec.
    """
    if spec.shard_parallel and spec.shards > 1:
        from repro.harness.parallel import run_sharded_parallel

        outcome = run_sharded_parallel(spec)
        return _build_row(
            spec, outcome.metrics, outcome.network_stats, outcome.population_stats, outcome.engine
        )
    return run_in_process(spec)[0]


def run_in_process(spec: ScenarioSpec) -> Tuple[ResultRow, Deployment]:
    """Run one spec in this process; also hand back the finished deployment.

    For callers that read state the row does not carry (who leads a
    cluster, when a replica last changed leader).
    """
    deployment = spec.build()
    metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
    row = _build_row(
        spec,
        metrics,
        deployment.network.stats,
        [population.stats() for population in deployment.populations],
        deployment.config.engine,
    )
    return row, deployment


def _build_row(
    spec: ScenarioSpec,
    metrics,
    network_stats,
    population_stats: List[Dict[str, float]],
    engine: str,
) -> ResultRow:
    summary = metrics.summary()
    population: Optional[Dict[str, float]] = None
    if population_stats:
        # Open-loop extras: per-population counters summed across regions,
        # plus the collector's offered-vs-goodput and lease numbers.
        population = dict(metrics.open_loop_summary())
        totals: Dict[str, float] = {}
        for stats in population_stats:
            for key, value in stats.items():
                totals[key] = totals.get(key, 0.0) + value
        count = len(population_stats)
        totals["queueing_delay_mean"] = totals.get("queueing_delay_mean", 0.0) / count
        population.update(totals)
    series: Optional[List[List[float]]] = None
    if spec.timeseries_bucket is not None:
        series = [
            [start, value]
            for start, value in metrics.throughput_timeseries(
                bucket=spec.timeseries_bucket, until=spec.duration
            )
        ]
    return ResultRow(
        scenario=spec.name,
        seed=spec.seed,
        engine=engine,
        preset=spec.preset,
        throughput=summary["throughput_total"],
        throughput_reads=summary["throughput_reads"],
        throughput_writes=summary["throughput_writes"],
        latency_mean=summary["latency_mean"],
        latency_read=summary["latency_mean_read"],
        latency_write=summary["latency_mean_write"],
        latency_p99=summary["latency_p99"],
        operations=int(summary["operations"]),
        rounds=int(summary["rounds"]),
        reconfigs_applied=len(metrics.reconfigs),
        joins_completed=len(metrics.joins_completed),
        labels=dict(spec.labels),
        stages=metrics.stage_breakdown() if spec.collect_stages else None,
        series=series,
        network={
            **network_stats.snapshot(),
            "link_latency_mean_ms": network_stats.mean_link_latency() * 1000.0,
        },
        population=population,
    )


def failed_row(spec: ScenarioSpec, error: str) -> ResultRow:
    """A zeroed row reporting a crashed (scenario, seed) data point."""
    return ResultRow(
        scenario=spec.name,
        seed=spec.seed,
        engine=spec.engine,
        preset=spec.preset,
        labels=dict(spec.labels),
        error=error,
    )


def run_scenario_safe(spec: ScenarioSpec) -> ResultRow:
    """Run one spec; a crash becomes a :func:`failed_row` instead of raising.

    Used by the grid paths (serial and pool) so one bad (scenario, seed)
    pair cannot take down — or silently vanish from — a whole sweep, and so
    the parallel and serial paths stay row-for-row identical.
    """
    try:
        return run_scenario(spec)
    except Exception:  # noqa: BLE001 - the traceback is the payload
        return failed_row(
            spec,
            f"seed {spec.seed}: worker raised\n{traceback.format_exc()}",
        )


def _run_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Pool worker: rebuild the spec from plain data, run, return plain data.

    Exceptions are captured *inside* the worker: an exception propagating
    out of ``Pool.map`` aborts every other seed in the batch, and losing
    the traceback to a pickling error can hang the pool teardown.
    """
    try:
        spec = ScenarioSpec.from_dict(payload)
    except Exception:  # noqa: BLE001
        stub = ScenarioSpec(
            name=str(payload.get("name", "<unparseable>")),
            clusters=[(1, "us-west1")],
            seed=int(payload.get("seed", 0) or 0),
        )
        return failed_row(stub, f"spec rebuild failed\n{traceback.format_exc()}").to_dict()
    return run_scenario_safe(spec).to_dict()


ScenarioLike = Union[ScenarioSpec, "Scenario"]  # noqa: F821 - builder import is lazy


class ScenarioRunner:
    """Executes scenario grids, serially or across a process pool.

    Args:
        workers: Process-pool size; ``1`` (default) runs in-process.
        mp_context: Optional :mod:`multiprocessing` start method
            (``"fork"``/``"spawn"``); the platform default otherwise.
    """

    def __init__(self, workers: int = 1, mp_context: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.mp_context = mp_context

    # ------------------------------------------------------------------ #
    # Grid expansion
    # ------------------------------------------------------------------ #
    def expand(
        self,
        scenarios: Union[ScenarioLike, Iterable[ScenarioLike]],
        seeds: Optional[Iterable[int]] = None,
    ) -> List[ScenarioSpec]:
        """Flatten builders/specs × seeds into an ordered list of specs."""
        from repro.harness.builder import Scenario

        if isinstance(scenarios, (ScenarioSpec, Scenario)):
            scenarios = [scenarios]
        if seeds is not None:
            seeds = list(seeds)  # a one-shot iterable must expand every scenario
        specs: List[ScenarioSpec] = []
        for scenario in scenarios:
            if isinstance(scenario, Scenario):
                # With explicit seeds the builder's own seed list is moot;
                # compile a single spec instead of expanding and discarding.
                expanded = [scenario.spec()] if seeds is not None else scenario.specs()
            elif isinstance(scenario, ScenarioSpec):
                expanded = [scenario]
            else:
                raise TypeError(f"expected ScenarioSpec or Scenario builder, got {type(scenario)!r}")
            if seeds is not None:
                base = expanded[0]
                expanded = [base.with_seed(seed) for seed in seeds]
            specs.extend(expanded)
        return specs

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        scenarios: Union[ScenarioLike, Iterable[ScenarioLike]],
        seeds: Optional[Iterable[int]] = None,
    ) -> List[ResultRow]:
        """Execute every (scenario, seed) pair; rows come back in order.

        Args:
            scenarios: One or many specs/builders.
            seeds: Optional seed list applied to *every* scenario,
                overriding per-scenario seeds.
        """
        specs = self.expand(scenarios, seeds=seeds)
        return self._run_specs(specs)

    def _run_specs(self, specs: List[ScenarioSpec]) -> List[ResultRow]:
        if self.workers == 1 or len(specs) <= 1:
            # Run the original specs directly: no serialization detour, so
            # e.g. non-importable replica classes work in-process.  Rows are
            # still byte-identical to the pool path because ResultRow
            # survives to_dict()/from_dict() losslessly — including failed
            # rows, which surface the crash per seed on both paths.
            return [run_scenario_safe(spec) for spec in specs]
        # Shard-parallel specs fork their own per-shard worker processes;
        # daemonic pool workers cannot fork children, so those specs run in
        # this (parent) process while the rest of the grid uses the pool.
        pooled = [
            (index, spec)
            for index, spec in enumerate(specs)
            if not (spec.shard_parallel and spec.shards > 1)
        ]
        results: List[Optional[ResultRow]] = [None] * len(specs)
        if pooled:
            # Imported here: a process that never runs a pool should not
            # pay for loading multiprocessing.
            import multiprocessing

            payloads = [spec.to_dict() for _, spec in pooled]
            context = multiprocessing.get_context(self.mp_context)
            with context.Pool(processes=min(self.workers, len(payloads))) as pool:
                # chunksize=1 schedules every (scenario, seed) cell as its
                # own task: the default chunking hands each worker a
                # contiguous block up front, so one slow scenario serialises
                # its whole block behind it while other workers sit idle.
                mapped = pool.map(_run_payload, payloads, chunksize=1)
            for (index, _), result in zip(pooled, mapped):
                results[index] = ResultRow.from_dict(result)
        for index, spec in enumerate(specs):
            if results[index] is None:
                results[index] = run_scenario_safe(spec)
        return results

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @staticmethod
    def save(rows: Iterable[ResultRow], path: str, indent: int = 2) -> None:
        """Write rows to ``path`` as a JSON list (stable key order)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([row.to_dict() for row in rows], handle, indent=indent, sort_keys=True)
            handle.write("\n")

    @staticmethod
    def load(path: str) -> List[ResultRow]:
        """Reload rows previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return [ResultRow.from_dict(payload) for payload in json.load(handle)]


__all__ = [
    "ResultRow",
    "ScenarioRunner",
    "failed_row",
    "run_in_process",
    "run_scenario",
    "run_scenario_safe",
]
