"""Benchmark the Hamava simulator end to end and layer by layer.

    python3 hamava_bench/run.py                         # every workload, both kinds of metric
    python3 hamava_bench/run.py --workload geo32 --seed 3 --seconds 15 --trace 0
    python3 hamava_bench/run.py --selfcheck             # two sets, compared against the bounds

Every repetition is a fresh ``child.py`` process, one at a time; repetitions
of different workloads are interleaved in rounds so a slow spell of the host
costs each workload at most a sample or two.  Throughput divides by the sum,
over equal slices of simulated time, of the fastest wall time any repetition
needed for that slice; set-up and memory are medians; simulated metrics are
exact per seed and must be identical in every repetition.
``README.md`` beside this file defines every metric; ``BENCHMARK.json`` at
the repository root declares their names, units and regression bounds.

The last line of standard output is one JSON object.  With ``--workload`` it
has the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; without,
the same four per workload under ``workloads``.  Exit status is non-zero
when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

#: Fewest repetitions an end-to-end estimate is made from.
MIN_REPETITIONS = 3
#: The driver allows a run 180 s; no single child may take longer than this.
CHILD_TIMEOUT_S = 150
#: Open-loop workloads fail when more than this share of the offered
#: requests is still waiting to be sent when the clock stops.
MAX_BACKLOG_SHARE = 0.01

HOST_METRICS = ("ops_per_wall_s", "setup_s", "peak_rss_mb")


class BenchmarkError(RuntimeError):
    """A child process failed or printed no result."""


def load_declaration() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spawn(workload: str, seed: int, *flags: str) -> Dict[str, object]:
    """Run one child to completion and return the record it printed."""
    command = [sys.executable, CHILD, workload, "--seed", str(seed), *flags]
    command += ["--spawned-at", repr(time.time())]
    # A fixed hash seed keeps set iteration, and with it the profile's call
    # counts, identical from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload}: child exited with {done.returncode}\n{done.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


class Measurement:
    """Everything measured for one workload in one set of runs."""

    def __init__(self) -> None:
        self.repetitions: List[Dict[str, object]] = []
        self.twin: Optional[Dict[str, object]] = None  # forked run of a sharded workload
        self.half: Optional[Dict[str, object]] = None
        self.traced: Optional[Dict[str, object]] = None
        self.errors: List[str] = []

    @property
    def first(self) -> Dict[str, object]:
        """The repetition that also carried the drain-and-agreement check."""
        return self.repetitions[0]

    def best_wall(self) -> float:
        """Wall time of the timed window with the host's slow spells taken out.

        Every repetition does identical work in each slice of simulated
        time, so the fastest time seen for a slice is the best estimate of
        what that slice costs, and their sum of what the run costs.
        """
        slices = zip(*(r["slices_s"] for r in self.repetitions))
        return sum(min(times) for times in slices)

    def end_to_end(self) -> Dict[str, float]:
        metrics = {
            "ops_per_wall_s": self.first["ops"] / self.best_wall(),
            "setup_s": statistics.median(r["setup_s"] for r in self.repetitions),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.repetitions),
        }
        metrics.update(self.first["end_to_end"])
        return metrics

    def per_layer(self, isolated: Dict[str, float]) -> Dict[str, float]:
        traced, half = self.traced, self.half
        kops = traced["ops"] / 1e3
        metrics: Dict[str, float] = {}
        total = sum(layer["self_s"] for layer in traced["layers"].values())
        for layer, cost in traced["layers"].items():
            metrics[f"{layer}.self_ms_per_kop"] = cost["self_s"] * 1e3 / kops
            metrics[f"{layer}.calls_per_op"] = cost["calls"] / traced["ops"]
        metrics["traced.coverage"] = 1.0 - traced["layers"]["unattributed"]["self_s"] / total
        metrics["harness.trace_overhead_ratio"] = traced["wall_s"] / half["wall_s"]
        metrics.update(self.first["counters"])
        # Whole repetitions on both sides: the forked twin has no slices.
        serial = min(r["wall_s"] for r in self.repetitions)
        metrics["sim.sharded.speedup_vs_serial"] = serial / self.twin["wall_s"] if self.twin else 0.0
        metrics.update(isolated)
        return metrics


class Session:
    """One set of runs: a seed, a size, and the measurements made so far."""

    def __init__(self, workloads: Dict[str, object], seed: int, quick: bool, log=print) -> None:
        self.workloads = workloads
        self.seed = seed
        self.flags = ("--quick",) if quick else ()
        self.log = log
        self.measured: Dict[str, Measurement] = {}
        self.isolated: Dict[str, float] = {}

    def measurement(self, name: str) -> Measurement:
        return self.measured.setdefault(name, Measurement())

    def repeat(self, names: Iterable[str], seconds: float, minimum: int) -> None:
        """Interleaved rounds of fresh-process repetitions, ``seconds`` per workload.

        A workload's first repetition also drains and checks agreement.
        """
        active = list(names)
        spent = {name: 0.0 for name in active}
        longest = {name: 0.0 for name in active}
        while active:
            for name in list(active):
                measurement = self.measurement(name)
                check = not measurement.repetitions
                started = time.perf_counter()
                record = spawn(name, self.seed, *self.flags, *(("--check",) if check else ()))
                took = time.perf_counter() - started
                measurement.repetitions.append(record)
                spent[name] += took
                longest[name] = max(longest[name], took)
                self.log(
                    f"  {name}: repetition {len(measurement.repetitions)}: "
                    f"wall {record['wall_s']:.3f} s, set-up {record['setup_s']:.3f} s"
                )
                enough = len(measurement.repetitions) >= minimum
                if enough and spent[name] + longest[name] > seconds:
                    active.remove(name)

    def add_twins(self, names: Iterable[str]) -> None:
        """Run each sharded workload once on two forked shard workers."""
        for name in names:
            if self.workloads[name].sharded:
                twin = spawn(name, self.seed, *self.flags, "--forked")
                self.measurement(name).twin = twin
                self.log(f"  {name}: forked twin: wall {twin['wall_s']:.3f} s")

    def trace(self, names: Iterable[str]) -> None:
        """The traced run: half duration, once without and once with the profiler."""
        for name in names:
            measurement = self.measurement(name)
            measurement.half = spawn(name, self.seed, *self.flags, "--half")
            measurement.traced = spawn(name, self.seed, *self.flags, "--half", "--profile")
            self.log(
                f"  {name}: traced {measurement.traced['wall_s']:.3f} s, "
                f"untraced {measurement.half['wall_s']:.3f} s at half duration"
            )
        self.isolated = spawn("isolated", self.seed, *self.flags)

    def measure(self, names: List[str], seconds: float, trace: Tuple[bool, bool]) -> None:
        """One set of runs: repetitions, forked twins, and the traced run if asked."""
        if trace[0]:
            self.repeat(names, seconds, MIN_REPETITIONS)
        else:  # the counters need one untraced run at full duration
            self.repeat(names, 0.0, 1)
        self.add_twins(names)
        if trace[1]:
            self.trace(names)

    # ------------------------------------------------------------------ #
    # Correctness
    # ------------------------------------------------------------------ #
    def verify(self, name: str) -> List[str]:
        """Every correctness check on one workload; returns what failed."""
        workload = self.workloads[name]
        measurement = self.measured[name]
        errors = measurement.errors
        first = measurement.first
        for index, record in enumerate(measurement.repetitions[1:], start=2):
            if record["fingerprint"] != first["fingerprint"]:
                errors.append(f"repetition {index} fingerprint differs from repetition 1")
            if record["counters"] != first["counters"]:
                errors.append(f"repetition {index} counters differ from repetition 1")
        twin = measurement.twin
        if twin is not None:
            if twin["fingerprint"] != first["fingerprint"]:
                errors.append("fingerprint of the forked twin differs from the serial run")
            for metric, value in twin["end_to_end"].items():
                if first["end_to_end"][metric] != value:
                    errors.append(f"{metric} of the forked twin differs from the serial run")
        if measurement.traced is not None and measurement.half is not None:
            if measurement.traced["fingerprint"] != measurement.half["fingerprint"]:
                errors.append("profiling changed the simulated outcome")
        errors.extend(first["check"]["errors"])
        counters = first["counters"]
        if workload.open_loop:
            backlog = counters["workload.backlog_end"]
            if backlog > MAX_BACKLOG_SHARE * first["offered"]:
                errors.append(
                    f"open-loop backlog at the end is {backlog:.0f} of {first['offered']:.0f} offered: "
                    "the generator fell behind, so latencies understate the wait"
                )
        if workload.joins:
            if counters["core.replica.reconfigs_applied"] <= 0:
                errors.append("no scheduled reconfiguration was applied")
            if counters["core.replica.joins_completed"] != workload.joins:
                errors.append(
                    f"{counters['core.replica.joins_completed']} of {workload.joins} joins completed"
                )
        return errors

    def result(self, name: str, trace: Tuple[bool, bool], declaration: Dict[str, object]) -> Dict[str, object]:
        """The contract's result object for one workload."""
        measurement = self.measured[name]
        errors = self.verify(name)
        values: Dict[str, float] = {}
        if trace[0]:
            values.update(measurement.end_to_end())
        if trace[1]:
            values.update(measurement.per_layer(self.isolated))
            if values["traced.coverage"] < 0.90:
                errors.append(f"traced.coverage {values['traced.coverage']:.3f} is below 0.90")
        units = {
            entry["name"]: entry["unit"]
            for kind in ("end_to_end", "per_layer")
            for entry in declaration[kind]
        }
        undeclared = sorted(set(values) - set(units))
        if undeclared:
            raise BenchmarkError(f"metrics missing from BENCHMARK.json: {undeclared}")
        return {
            "correct": not errors,
            "attempted": measurement.first["attempted"],
            "failed": measurement.first["check"]["failed"],
            "metrics": {key: {"value": values[key], "unit": units[key]} for key in values},
        }


def print_result(name: str, session: Session, result: Dict[str, object]) -> None:
    measurement = session.measured[name]
    samples = measurement.first["samples"]
    walls = sorted(r["wall_s"] for r in measurement.repetitions)
    print(f"\n== {name}: {session.workloads[name].why}")
    print(
        f"   {len(walls)} repetitions, wall min/median/max "
        f"{walls[0]:.3f}/{statistics.median(walls):.3f}/{walls[-1]:.3f} s; "
        f"{samples['writes']} writes (tail = p{100 * samples['write_tail_percentile']:.2f}), "
        f"{samples['reads']} reads (tail = p{100 * samples['read_tail_percentile']:.2f}); "
        f"attempted {result['attempted']}, failed {result['failed']}"
    )
    if session.workloads[name].open_loop:
        counters = measurement.first["counters"]
        print(
            f"   open loop: offered {measurement.first['offered']:.0f}, still queued at the end "
            f"{counters['workload.backlog_end']:.0f}, mean wait before dispatch "
            f"{counters['workload.queue_delay_mean_ms']:.3f} ms (not part of the latencies below)"
        )
    for key, entry in result["metrics"].items():
        print(f"   {key:<44} {entry['value']:>16.6g} {entry['unit']}")
    for error in measurement.errors:
        print(f"   INCORRECT: {error}")


def selfcheck(first: Dict[str, dict], second: Dict[str, dict], declaration: Dict[str, object]) -> bool:
    """Compare two sets of the same code against the benchmark's own bounds."""
    bounds = {entry["name"]: entry for entry in declaration["end_to_end"]}
    exact = {entry["name"] for entry in declaration["per_layer"] if entry["name"].endswith("calls_per_op")}
    resolved = True
    print("\n== selfcheck: two sets of runs of the same code")
    print(f"   {'workload':<24}{'metric':<32}{'first':>14}{'second':>14}{'diff':>9}  verdict")
    for name in first:
        for metric, entry in first[name]["metrics"].items():
            if metric not in bounds and metric not in exact:
                continue
            a, b = entry["value"], second[name]["metrics"][metric]["value"]
            difference = abs(a - b) / abs(a) if a else abs(b)
            if metric in HOST_METRICS:
                passed = difference <= bounds[metric]["bound"]
            else:
                passed = a == b
            resolved = resolved and passed
            if metric in bounds or not passed:
                verdict = "PASS" if passed else "UNRESOLVED"
                print(f"   {name:<24}{metric:<32}{a:>14.6g}{b:>14.6g}{difference:>9.2%}  {verdict}")
    return resolved


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="measure one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=11, help="scenario seed, the only workload input")
    parser.add_argument("--seconds", type=float, help="repetition budget per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end only, 1: per-layer only (default: both)")
    parser.add_argument("--quick", action="store_true", help="short simulated durations; numbers not comparable")
    parser.add_argument("--selfcheck", action="store_true", help="run two sets and compare them against the bounds")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"hamava_bench: no src/repro under {ROOT}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from hamava_bench.workloads import WORKLOADS

    declaration = load_declaration()
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else float(declaration["run_seconds"])
    trace = (args.trace != 1, args.trace != 0)
    log = print if args.workload is None else (lambda line: print(line, file=sys.stderr))

    print(
        f"hamava_bench: seed {args.seed}, {'quick (not comparable)' if args.quick else 'full'} size, "
        f"{os.cpu_count()} cpus, Python {platform.python_version()}, {platform.platform()}"
    )
    sets: List[Dict[str, dict]] = []
    for _ in range(2 if args.selfcheck else 1):
        try:
            session = Session(WORKLOADS, args.seed, args.quick, log)
            session.measure(names, seconds, trace)
            results = {name: session.result(name, trace, declaration) for name in names}
        except BenchmarkError as error:
            print(f"hamava_bench: {error}", file=sys.stderr)
            return 1
        for name in names:
            print_result(name, session, results[name])
        sets.append(results)
    results = sets[-1]
    correct = all(result["correct"] for result in results.values())
    if args.selfcheck and not selfcheck(sets[0], sets[1], declaration):
        print("   some metrics differ by more than their bound: UNRESOLVED, not unchanged")
    incorrect = [name for name, result in results.items() if not result["correct"]]
    if incorrect:
        print(f"hamava_bench: correctness checks failed on {', '.join(incorrect)}", file=sys.stderr)
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({"seed": args.seed, "quick": args.quick, "workloads": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
