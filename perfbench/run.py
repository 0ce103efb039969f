#!/usr/bin/env python3
"""Wall-clock benchmark of the simulator and the compile/replay path.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mlalgo-f100 --seed 1 \\
        --seconds 3 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``).  Child-process output goes to standard error.

A run is a sequence of fresh worker processes (``worker.py``), one at a
time, each with BLAS pinned to one thread, a fixed hash seed, and its own
empty plan cache, run ledger, history store and XDG cache under
``.perfbench/`` (removed when the run ends):

1. ``sim``: the workload's Table-5 benchmarks at paper scale, simulated on
   Cambricon-F1 and F100;
2. ``setup``: build + compile (with the disk store) every model, the
   first call, the recursive oracle, then warm calls for ``--seconds``;
3. ``restart``: a new process over the cache directory step 2 left, timed
   from spawn to the first result of every model.

``first_call_s`` adds up the first calls of both fresh processes (after
a compile and after a disk load), so a run measures two first calls.

``--trace 1`` runs the same sequence with the benchmark's probes
installed (:mod:`probes`) and reports the per-layer table.  Its warm
calls alternate probes off and on; the gap between the two medians is
the tracing overhead.  The spans are written to
``.perfbench/trace-*.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probes import calls, merge, seconds  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
REFERENCE = ROOT / "benchmarks" / "baselines" / "BENCH_reference.json"
WORK = ROOT / ".perfbench"
#: every run must end within 180 s; children get what is left of this
DEADLINE_S = 175.0

#: workload -> Table-5 benchmarks simulated, served models, and whether
#: the models are driven through ``InferenceSession``
WORKLOADS = {
    "serve-mlalgo-f100": {
        "sim": ["K-NN", "K-Means", "LVQ", "SVM", "MATMUL"],
        "models": ["mm_fc", "K-NN", "K-Means", "LVQ", "SVM"],
        "session": False,
    },
    "serve-resnet-f100": {
        "sim": ["VGG-16", "ResNet-152"],
        "models": ["ResNet-152"],
        "session": True,
    },
}

END_TO_END = {
    "sim_s": "s", "setup_s": "s", "first_call_s": "s", "call_ms": "ms",
    "restart_s": "s", "recursive_s": "s", "peak_rss_mb": "MB",
}

SIM_BENCHMARKS = ("VGG-16", "ResNet-152", "K-NN", "K-Means", "LVQ", "SVM",
                  "MATMUL")
#: opcodes the served models execute, reported per warm call
OPCODES = ("Cv2D", "MatMul", "Add1D", "Sub1D", "Mul1D", "Act1D", "Max2D",
           "Avg2D", "Euclidian1D", "Sort1D", "Count1D", "Merge1D")

PER_LAYER = {
    "decomp.shrink_calls": "count", "decomp.shrink_s": "s",
    "decomp.best_split_calls": "count",
    "decomp.parallel_calls": "count", "decomp.parallel_s": "s",
    **{f"sim.{b}.{m}_s": "s" for b in SIM_BENCHMARKS for m in ("f1", "f100")},
    "sim.nodes_simulated": "count", "sim.sig_hits": "count",
    "sim.sig_misses": "count", "sim.sig_hit_ratio": "ratio",
    "sim.pipeline_s": "s", "sim.f100_traffic_ratio": "ratio",
    "plan.compile_s": "s", "plan.walk_s": "s", "plan.steps": "count",
    "plan.annotate_s": "s", "plan.fusion_groups": "count",
    "batch.lower_s": "s", "batch.schedule_s": "s", "batch.arena_s": "s",
    "batch.steps": "count", "batch.lanes": "count",
    "batch.fallback_lanes": "count", "batch.arena_mb": "MB",
    "cache.store_s": "s", "cache.load_s": "s", "cache.parse_s": "s",
    "cache.from_doc_s": "s", "cache.verify_s": "s", "cache.entry_mb": "MB",
    "cache.memory_hits": "count", "cache.disk_hits": "count",
    "cache.misses": "count",
    "exec.replay_s": "s", "exec.schedule_share": "ratio",
    "exec.recursive_s": "s", "exec.kernel_calls": "count",
    **{f"ops.{op}_{kind}": unit for op in OPCODES
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "ops.batched_calls": "count", "ops.batch_fallbacks": "count",
    "session.overhead_ms": "ms",
    "proc.import_s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """A worker crashed or the run overran its deadline."""


def _env(pass_dir: Path) -> dict:
    """Hermetic child environment: nothing is shared between runs."""
    env = dict(os.environ)
    for name in ("plans", "ledger", "history", "xdg"):
        (pass_dir / name).mkdir()
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_PLAN_CACHE": str(pass_dir / "plans"),
        "REPRO_LEDGER": str(pass_dir / "ledger"),
        "REPRO_HISTORY": str(pass_dir / "history"),
        "XDG_CACHE_HOME": str(pass_dir / "xdg"),
    })
    return env


def _spawn(role: str, request: dict, env: dict, pass_dir: Path,
           deadline: float) -> dict:
    """Run one worker to completion; returns its result document."""
    request = dict(request, out=str(pass_dir / f"{role}.json"))
    req_path = pass_dir / f"{role}-request.json"
    req_path.write_text(json.dumps(request), encoding="utf-8")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), role, str(req_path)],
            env=env, cwd=str(ROOT), stdout=sys.stderr, stdin=subprocess.DEVNULL,
            timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{role} worker overran the run deadline") from err
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with {proc.returncode}")
    result = json.loads(Path(request["out"]).read_text(encoding="utf-8"))
    result["t_spawn"] = t_spawn
    return result


def run_pass(workload: str, args, trace: bool, tmp: Path,
             deadline: float) -> dict:
    """One sim -> setup -> restart sequence; the raw worker results."""
    pass_dir = Path(tempfile.mkdtemp(dir=tmp, prefix="pass-"))
    env = _env(pass_dir)
    request = dict(WORKLOADS[workload], seed=args.seed, seconds=args.seconds,
                   trace=trace, cache_dir=str(pass_dir / "plans"),
                   oracle=str(pass_dir / "oracle.npz"),
                   reference=str(REFERENCE))
    raw = {}
    raw["sim"] = _spawn("sim", request, env, pass_dir, deadline)
    raw["setup"] = _spawn("setup", request, env, pass_dir, deadline)
    entries = sorted((pass_dir / "plans").glob("plan-*.json"))
    raw["entry_bytes"] = sum(p.stat().st_size for p in entries)
    raw["restart"] = _spawn("restart", request, env, pass_dir, deadline)
    tallies = [raw[role]["tally"] for role in ("sim", "setup", "restart")]
    raw["attempted"] = sum(t["attempted"] for t in tallies)
    raw["failed"] = sum(t["failed"] for t in tallies)
    raw["reasons"] = [r for t in tallies for r in t["reasons"]]
    if len(entries) != len(request["models"]):
        # the restart was not served by the disk tier
        raw["attempted"] += 1
        raw["failed"] += 1
        raw["reasons"].append(f"{len(entries)} plan cache entries after "
                              f"setup, expected {len(request['models'])}")
    return raw


def end_to_end(raw: dict) -> dict:
    setup = raw["setup"]
    return {
        "sim_s": sum(raw["sim"]["times"].values()),
        "setup_s": setup["setup_s"],
        # both fresh processes' first calls: after compile and after load
        "first_call_s": setup["first_call_s"] + raw["restart"]["first_call_s"],
        "call_ms": statistics.median(setup["calls_s"]) * 1e3,
        "restart_s": raw["restart"]["t_result"] - raw["restart"]["t_spawn"],
        "recursive_s": statistics.median(setup["recursive_s"]),
    }


def per_layer(traced: dict) -> dict:
    """The per-layer table from the traced pass (see NOTES.md)."""
    sim, setup, restart = traced["sim"], traced["setup"], traced["restart"]
    table = merge(sim["probes"], setup["probes"], restart["probes"])
    warm = setup["warm"]
    n_calls = len(setup["traced_calls_s"])
    plans = setup["plans"]
    lookups = 2 * len(plans)  # one compile_cached per model, two processes

    def total(field):
        return sum(p[field] for p in plans)

    compile_s = seconds(table, "plan.compile")
    annotate_s = seconds(table, "plan.annotate")
    lower_s = seconds(table, "batch.lower")
    load_s = seconds(table, "cache.load")
    from_doc_s = seconds(table, "cache.from_doc")
    verify_s = seconds(table, "cache.verify")
    misses = calls(table, "plan.compile")
    loads = calls(table, "cache.load")
    replay_s = seconds(warm, "exec.replay") / n_calls
    hits, misses_sim = sim["cache"]["sig_hits"], sim["cache"]["sig_misses"]
    out = {
        "decomp.shrink_calls": calls(table, "decomp.shrink"),
        "decomp.shrink_s": seconds(table, "decomp.shrink"),
        "decomp.best_split_calls": calls(table, "decomp.best_split"),
        "decomp.parallel_calls": calls(table, "decomp.parallel"),
        "decomp.parallel_s": seconds(table, "decomp.parallel"),
        "sim.nodes_simulated": sim["cache"]["nodes_simulated"],
        "sim.sig_hits": hits,
        "sim.sig_misses": misses_sim,
        "sim.sig_hit_ratio": hits / max(1, hits + misses_sim),
        "sim.pipeline_s": seconds(table, "sim.pipeline"),
        "sim.f100_traffic_ratio": sim["traffic_ratio"],
        "plan.compile_s": compile_s,
        "plan.walk_s": compile_s - annotate_s - lower_s,
        "plan.steps": total("steps"),
        "plan.annotate_s": annotate_s,
        "plan.fusion_groups": total("fusion_groups"),
        "batch.lower_s": lower_s,
        "batch.schedule_s": seconds(table, "batch.schedule"),
        "batch.arena_s": seconds(table, "batch.arena"),
        "batch.steps": total("batched_steps"),
        "batch.lanes": total("batched_lanes"),
        "batch.fallback_lanes": total("fallback_lanes"),
        "batch.arena_mb": total("arena_bytes") / 2**20,
        "cache.store_s": seconds(table, "cache.store"),
        "cache.load_s": load_s,
        "cache.parse_s": load_s - from_doc_s - verify_s,
        "cache.from_doc_s": from_doc_s,
        "cache.verify_s": verify_s,
        "cache.entry_mb": traced["entry_bytes"] / 2**20,
        "cache.memory_hits": lookups - loads,
        "cache.disk_hits": loads - misses,
        "cache.misses": misses,
        "exec.replay_s": replay_s,
        "exec.schedule_share": (sum(p["schedule_engine"] for p in plans)
                                / len(plans)),
        "exec.recursive_s": statistics.median(setup["recursive_s"]),
        # kernel invocations per call; a stacked call counts once
        "exec.kernel_calls": sum(
            c for name, (c, _) in warm.items()
            if name.startswith("ops.") and name != "ops.batched") / n_calls,
        "ops.batched_calls": calls(warm, "ops.batched") / n_calls,
        "ops.batch_fallbacks": sum(p["fallback_lanes"] for p in plans
                                   if p["schedule_engine"]),
        "session.overhead_ms": (sum(setup["traced_calls_s"]) / n_calls
                                - replay_s) * 1e3,
        "proc.import_s": restart["t_imported"] - restart["t_spawn"],
        "trace.overhead_pct": 100.0 * (
            statistics.median(setup["traced_calls_s"])
            / statistics.median(setup["calls_s"]) - 1.0),
    }
    for bench in SIM_BENCHMARKS:
        for machine in ("f1", "f100"):
            out[f"sim.{bench}.{machine}_s"] = sim["times"].get(
                f"{bench}.{machine}", 0.0)
    for op in OPCODES:
        out[f"ops.{op}_s"] = seconds(warm, f"ops.{op}") / n_calls
        out[f"ops.{op}_calls"] = calls(warm, f"ops.{op}") / n_calls
    return out


def _write_trace(workload: str, seed: int, traced: dict) -> Path:
    """The traced pass's spans and probe tables, for later inspection."""
    path = WORK / f"trace-{workload}-seed{seed}.json"
    doc = {role: {k: traced[role][k] for k in ("spans", "probes", "warm",
                                               "plans")
                  if k in traced[role]}
           for role in ("sim", "setup", "restart")}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="warm-call window of the setup process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds like an exception, so the running worker is killed
    # and waited for, and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"perfbench: run from the repository root ({SRC / 'repro'} and "
              f"{REFERENCE} are required)", file=sys.stderr)
        return 2
    # Byte-compile once per checkout, so every worker imports from .pyc and
    # the first run of a fresh checkout does not pay compilation.
    if not compileall.compile_dir(str(SRC / "repro"), quiet=1):
        print("perfbench: src/repro does not compile", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    try:
        raw = run_pass(args.workload, args, bool(args.trace), tmp, deadline)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    e2e = end_to_end(raw)
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN)
                          .ru_maxrss / 1024)
    print(f"perfbench: {args.workload} seed {args.seed}"
          f"{' (traced)' if args.trace else ''}: "
          + ", ".join(f"{k}={v:.4g}" for k, v in e2e.items())
          + f"; call_ms is the median of {len(raw['setup']['calls_s'])} "
          "warm calls", file=sys.stderr)
    if args.trace:
        values, units = per_layer(raw), PER_LAYER
        trace_path = _write_trace(args.workload, args.seed, raw)
        print(f"perfbench: spans written to {trace_path}", file=sys.stderr)
    else:
        values, units = e2e, END_TO_END
    for reason in raw["reasons"]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
