"""One fresh interpreter of a benchmark run: ``worker.py <role> <request.json>``.

Roles (each in its own process, so every cold sample starts from a clean
heap and empty in-memory caches):

* ``sim``     -- simulate the workload's Table-5 benchmarks at paper scale
  on Cambricon-F1 and F100, one fresh ``FractalSimulator`` per call, as
  ``repro simulate`` does;
* ``setup``   -- build and compile every model with empty caches (the disk
  entry is stored into the run's cache directory), make the first call,
  run the recursive oracle, then time warm calls;
* ``restart`` -- a new process that finds the cache directory the setup
  process left: build, load each plan from disk, first call (timed too).

The request names the output file; the worker writes one JSON document
there.  Library telemetry and the sampling profiler stay off; the traced
run installs the benchmark's own probes (:mod:`probes`) instead.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import time
import warnings

import repro  # noqa: F401  (the import is timed: proc.import_s)

T_IMPORTED = time.monotonic()

import numpy as np  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.obs import prof  # noqa: E402

from checks import Tally, f1_mismatches, f100_violations, output_mismatches  # noqa: E402
from probes import Probes, merge  # noqa: E402

#: warm calls measured at least, however short the window
MIN_CALLS = 2
#: the recursion is repeated until this many seconds are measured
RECURSION_FLOOR_S = 3.0


def _plan_warnings(caught) -> list:
    """Plan-cache warnings: a failed store or a rejected disk entry."""
    return [str(w.message) for w in caught if "plan" in str(w.message)]


def run_sim(req: dict, probes) -> dict:
    from repro import cambricon_f1, cambricon_f100
    from repro.perf.attribution import attribute_report
    from repro.sim import FractalSimulator
    from repro.workloads import paper_benchmark

    with open(req["reference"], encoding="utf-8") as f:
        reference = json.load(f)["notes"]["benchmarks"]
    tally = Tally()
    times = {}
    counts = {"nodes_simulated": 0, "sig_hits": 0, "sig_misses": 0}
    traffic_ratio = math.inf
    for key, factory in (("f1", cambricon_f1), ("f100", cambricon_f100)):
        machine = factory()
        for name in req["sim"]:
            label = f"{name}.{key}"
            program = paper_benchmark(name).program
            gc.collect()
            start = time.perf_counter()
            try:
                rep = FractalSimulator(machine,
                                       collect_profiles=False).simulate(program)
            except Exception as err:  # counted, the run goes on
                rep = None
                tally.error(label, err)
            times[label] = time.perf_counter() - start
            if rep is None:
                continue
            totals = attribute_report(rep).totals()
            if key == "f1":
                ref = reference.get(name)
                problems = (["no reference entry"] if ref is None else
                            f1_mismatches({
                                "total_time_s": rep.total_time,
                                "attained_ops": rep.attained_ops,
                                "root_traffic_bytes": rep.root_traffic,
                                "attribution_totals_s": totals,
                            }, ref))
            else:
                problems = f100_violations(
                    rep.total_time, totals, rep.work, rep.root_traffic,
                    machine.peak_ops, machine.root_bandwidth)
                if rep.root_traffic:
                    traffic_ratio = min(traffic_ratio, rep.total_time / (
                        rep.root_traffic / machine.root_bandwidth))
            tally.record(label, problems)
            for field in counts:
                counts[field] += getattr(rep.cache, field)
    return {"times": times, "tally": tally.to_doc(), "cache": counts,
            "traffic_ratio": traffic_ratio}


def _models(req: dict):
    from repro import cambricon_f100

    from models import Model

    machine = cambricon_f100()
    return [Model(name, machine, req["session"]) for name in req["models"]]


def _call_all(models, tally: Tally, label: str, oracle=None):
    """One call: replay every model on freshly bound inputs.

    Returns the seconds of the timed region and the outputs; outputs are
    checked against ``oracle`` (when given) after the clock stops.
    """
    outs, errors = {}, {}
    gc.collect()
    start = time.perf_counter()
    for m in models:
        try:
            outs[m.name] = m.call()
        except Exception as err:  # counted as a failed operation
            errors[m.name] = err
    seconds = time.perf_counter() - start
    if oracle is not None:
        _check(models, tally, label, outs, errors, oracle)
    return seconds, outs, errors


def _check(models, tally, label, outs, errors, oracle) -> None:
    for m in models:
        if m.name in errors:
            tally.error(f"{m.name}/{label}", errors[m.name])
        else:
            tally.record(f"{m.name}/{label}",
                         output_mismatches(outs[m.name], oracle[m.name]))


def _setup_and_first_call(models, req: dict, tally: Tally):
    """Build + compile every model from empty caches, then the first call."""
    setup_s = 0.0
    for index, m in enumerate(models):
        gc.collect()
        start = time.perf_counter()
        m.build()
        setup_s += time.perf_counter() - start
        m.make_data(req["seed"], index)
        gc.collect()
        start = time.perf_counter()
        m.compile(req["cache_dir"])
        setup_s += time.perf_counter() - start
    first_s = 0.0
    first, errors = {}, {}
    for m in models:
        seconds, outs, errs = _call_all([m], tally, "first")
        first_s += seconds
        first.update(outs)
        errors.update(errs)
    return setup_s, first_s, first, errors


def _load_oracle(path: str, models) -> dict:
    oracle = {m.name: {} for m in models}
    with np.load(path) as saved:
        for key in saved.files:
            name, short = key.split("::")
            oracle[name][short] = saved[key]
    return oracle


def run_setup(req: dict, probes) -> dict:
    models = _models(req)
    tally = Tally()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setup_s, first_s, first, first_errors = _setup_and_first_call(
            models, req, tally)

        # The first repeat's outputs are the oracle.  A traced run recurses
        # once, so its per-layer counts do not depend on host speed.
        oracle, recursive = {}, []
        while not recursive or (probes is None
                                and sum(recursive) < RECURSION_FLOOR_S):
            seconds = 0.0
            for m in models:
                gc.collect()
                start = time.perf_counter()
                outs = m.recursive()
                seconds += time.perf_counter() - start
                oracle.setdefault(m.name, outs)
            recursive.append(seconds)
        _check(models, tally, "first", first, first_errors, oracle)

        # The first call was the warm-up: warm calls start here.  A traced
        # run alternates untraced and traced calls; the gap between their
        # medians is the tracing overhead.
        calls, traced_calls, warm = [], [], []
        window = time.perf_counter()
        while (len(calls) < MIN_CALLS
               or time.perf_counter() - window < req["seconds"]):
            if probes is not None:
                probes.active = False
            calls.append(_call_all(models, tally, f"call{len(calls)}",
                                   oracle)[0])
            if probes is not None:
                probes.active = True
                before = probes.snapshot()
                traced_calls.append(_call_all(
                    models, tally, f"traced{len(traced_calls)}", oracle)[0])
                warm.append(Probes.delta(probes.snapshot(), before))
    problems = _plan_warnings(caught)
    if problems:
        tally.record("plan cache", problems)

    np.savez(req["oracle"], **{f"{name}::{key}": value
                               for name, outs in oracle.items()
                               for key, value in outs.items()})
    plans = []
    for m in models:
        schedule = m.plan.replay_schedule()  # built by the first call
        plans.append({
            "model": m.name,
            "steps": m.plan.n_steps,
            "fusion_groups": len(m.plan.fusion_groups),
            "batched_steps": schedule.batched_steps,
            "batched_lanes": schedule.batched_lanes,
            "fallback_lanes": schedule.fallback_lanes,
            "arena_bytes": schedule.arena.nbytes,
            # the default engine's choice (FractalExecutor.run_plan)
            "schedule_engine": schedule.fully_batched,
        })
    out = {"setup_s": setup_s, "first_call_s": first_s,
           "recursive_s": recursive, "calls_s": calls,
           "tally": tally.to_doc(), "plans": plans}
    if probes is not None:
        out["traced_calls_s"] = traced_calls
        out["warm"] = merge(*warm)
    return out


def run_restart(req: dict, probes) -> dict:
    models = _models(req)
    tally = Tally()
    outs, errors = {}, {}
    first_s = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for index, m in enumerate(models):
            m.build()
            m.make_data(req["seed"], index)
            m.compile(req["cache_dir"])
            # No gc.collect() here: it would land inside restart_s.
            start = time.perf_counter()
            try:
                outs[m.name] = m.call()
            except Exception as err:  # counted as a failed operation
                errors[m.name] = err
            first_s += time.perf_counter() - start
        t_result = time.monotonic()
    _check(models, tally, "restart", outs, errors,
           _load_oracle(req["oracle"], models))
    problems = _plan_warnings(caught)
    if problems:
        tally.record("plan cache", problems)
    return {"t_result": t_result, "first_call_s": first_s,
            "tally": tally.to_doc()}


ROLES = {"sim": run_sim, "setup": run_setup, "restart": run_restart}


def main(argv) -> int:
    role, request = argv[1], argv[2]
    with open(request, encoding="utf-8") as f:
        req = json.load(f)
    if (telemetry.get_registry().enabled or telemetry.get_tracer().enabled
            or prof.profiling()):
        print("perfbench: library telemetry or profiler is on",
              file=sys.stderr)
        return 2
    probes = Probes().install() if req["trace"] else None
    result = ROLES[role](req, probes)
    result["t_imported"] = T_IMPORTED
    if probes is not None:
        result["probes"] = probes.stats
        result["spans"] = probes.spans
    with open(req["out"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    code = main(sys.argv)
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing a ResNet-152 plan's ~2.4M objects
    # takes seconds and measures nothing.
    os._exit(code)
