"""Benchmark-side tracing: timed wrappers around each layer's public calls.

The traced run installs :class:`Probes` in every worker process.  Each
probe replaces one module- or class-level binding (``shrink_sequential``
as the plan compiler imported it, ``DiskPlanCache.load``, ...) with a
wrapper that counts calls and accumulates wall-clock seconds.  Nothing
under ``src/`` changes: the program runs the code it always runs, only
the bindings it looks up at call time are wrapped.

Timing is outermost-only per probe name, so a recursive or nested call of
the same layer is counted but never double-timed.  Coarse stages also
record spans (name, start, end, parent) that the benchmark writes out
when it ends; per-kernel and per-decision probes only count, because
ResNet-152 alone makes ~10^5 of them per call.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, probe name, record spans).  Several bindings
#: of one function share a probe name: modules that did
#: ``from ..decomposition import shrink_sequential`` hold their own
#: reference, so each must be wrapped for the count to be complete.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    # core.decomposition: SD and PD entry points, wherever they are bound.
    ("repro.core.decomposition", "decompose_parallel", "decomp.parallel", False),
    ("repro.core.controller.parallel", "decompose_parallel", "decomp.parallel", False),
    ("repro.core.executor", "decompose_parallel", "decomp.parallel", False),
    ("repro.plan.compiler", "decompose_parallel", "decomp.parallel", False),
    ("repro.core.controller.sequential", "shrink_sequential", "decomp.shrink", False),
    ("repro.core.executor", "shrink_sequential", "decomp.shrink", False),
    ("repro.plan.compiler", "shrink_sequential", "decomp.shrink", False),
    ("repro.core.decomposition.base", "best_shrink_split", "decomp.best_split", False),
    # sim.pipeline: the closed-form 5-stage schedule of every node.
    ("repro.sim.simulator", "schedule_pipeline", "sim.pipeline", False),
    # plan.compiler / plan.analysis / plan.batch
    ("repro.plan.cache", "compile_program", "plan.compile", True),
    ("repro.plan.compiler", "annotate_plan", "plan.annotate", True),
    ("repro.plan.compiler", "lower_plan", "batch.lower", True),
    ("repro.plan.batch", "build_schedule", "batch.schedule", True),
    ("repro.plan.batch", "build_arena_layout", "batch.arena", True),
    # plan.cache: the disk tier and the stages of a load.
    ("repro.plan.cache", "DiskPlanCache.store", "cache.store", True),
    ("repro.plan.cache", "DiskPlanCache.load", "cache.load", True),
    ("repro.plan.cache", "plan_from_doc", "cache.from_doc", True),
    ("repro.plan.cache", "verify_plan", "cache.verify", True),
    # core.executor: plan replay, either engine.
    ("repro.core.executor", "FractalExecutor.run_plan", "exec.replay", True),
)


class Probes:
    """Installed wrappers plus the counts, seconds and spans they record.

    Installation is for the life of the worker process; nothing restores
    the original bindings.
    """

    def __init__(self) -> None:
        #: while False every wrapper calls straight through, so the traced
        #: run can time untraced calls in the same process (the tracing-
        #: overhead base); wrappers captured at install time stay in place.
        self.active = True
        #: probe name -> [calls, seconds]
        self.stats: Dict[str, List[float]] = {}
        self.spans: List[dict] = []
        self._depth: Dict[str, int] = {}
        self._open: List[str] = []
        self._kernels: Dict[object, Callable] = {}
        self._stacked: Dict[object, Callable] = {}

    # -- recording ------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, spans: bool) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0])
        depth = self._depth
        depth.setdefault(name, 0)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stats[0] += 1
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] = 1
            if spans:
                parent = self._open[-1] if self._open else None
                self._open.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stats[1] += end - start
                depth[name] = 0
                if spans:
                    self._open.pop()
                    self.spans.append({"name": name, "start": start,
                                       "end": end, "parent": parent})

        return wrapper

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        return {name: (c, s) for name, (c, s) in self.stats.items()}

    @staticmethod
    def delta(after: Dict[str, Tuple[int, float]],
              before: Dict[str, Tuple[int, float]]) -> Dict[str, List[float]]:
        out = {}
        for name, (calls, secs) in after.items():
            c0, s0 = before.get(name, (0, 0.0))
            if calls != c0:
                out[name] = [calls - c0, secs - s0]
        return out

    # -- installation ---------------------------------------------------------

    def install(self) -> "Probes":
        for module_name, path, name, spans in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self._timed(name, getattr(owner, attr),
                                             spans))
        self._install_kernels()
        return self

    def _install_kernels(self) -> None:
        """Wrap every kernel the executor can obtain.

        ``ops.execute`` (recursion, classic replay) and ``build_schedule``
        (schedule replay) both fetch kernels through these two lookups at
        call time, so wrapping the lookups covers every kernel call.
        """
        from repro.ops import batch, dispatch

        kernel_for = dispatch.kernel_for
        batched_kernel_for = batch.batched_kernel_for

        def traced_kernel_for(opcode):
            got = self._kernels.get(opcode)
            if got is None:
                got = self._timed(f"ops.{opcode.value}", kernel_for(opcode),
                                  False)
                self._kernels[opcode] = got
            return got

        def traced_batched_kernel_for(opcode):
            kern = batched_kernel_for(opcode)
            if kern is None:
                return None
            got = self._stacked.get(opcode)
            if got is None:
                counted = self._timed(f"ops.{opcode.value}", kern, False)
                stacked = self.stats.setdefault("ops.batched", [0, 0.0])

                def got(ins, attrs, _inner=counted):
                    if self.active:
                        stacked[0] += 1
                    return _inner(ins, attrs)

                self._stacked[opcode] = got
            return got

        dispatch.kernel_for = traced_kernel_for
        batch.batched_kernel_for = traced_batched_kernel_for


def calls(stats: Dict[str, List[float]], name: str) -> int:
    return int(stats.get(name, (0, 0.0))[0])


def seconds(stats: Dict[str, List[float]], name: str) -> float:
    return float(stats.get(name, (0, 0.0))[1])


def merge(*tables: Optional[Dict[str, List[float]]]) -> Dict[str, List[float]]:
    """Sum probe tables (e.g. one per worker process)."""
    out: Dict[str, List[float]] = {}
    for table in tables:
        for name, (c, s) in (table or {}).items():
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += c
            acc[1] += s
    return out
