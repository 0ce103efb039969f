"""Schedule replay tests: suite-wide bit-identity, the stacked-kernel
lowering, the tensor arena, plan-document cache round-trips/poisoning,
batched counters, and the sentinel wiring for the replay metrics.

The acceptance bar for plan replay is *bit-identity*: for every paper
benchmark on both machine instances, replaying the schedule must produce
byte-for-byte the arrays recursive execution (the reference) produces.
Everything else here defends the supporting structure -- only groups
with a stacked kernel are lowered, the arena never aliases two
concurrently-live tensors, a tampered cache entry can never steer the
executor, and a collapse of ``replay_speedup`` trips the perf-trend
sentinel.
"""

from __future__ import annotations

import json
import warnings
from typing import Dict, Tuple

import numpy as np
import pytest

from conftest import tiny_machine
from repro import (
    FractalExecutor,
    Instruction,
    Opcode,
    Tensor,
    TensorStore,
    cambricon_f1,
    cambricon_f100,
    telemetry,
)
from repro.obs import RunHistory, analyze_history, metric_polarity
from repro.obs.history import points_from_report
from repro.ops.batch import batched_kernel_for, batched_opcodes
from repro.plan import (
    DiskPlanCache,
    PLAN_SCHEMA_VERSION,
    PlanCache,
    compile_cached,
    compile_program,
    machine_fingerprint,
    plan_from_doc,
)
from repro.analysis import program_digest
from repro.workloads import profile_benchmark, profile_benchmark_names

pytestmark = pytest.mark.plan

#: canonical suite names ('matmul' is an alias of 'MATMUL').
SUITE = [n for n in profile_benchmark_names() if n != "matmul"]

_MACHINES = {"f1": cambricon_f1, "f100": cambricon_f100}

#: (machine_key, benchmark) -> (machine, workload, plan); compiling the
#: F100 models dominates the cost of this module, so every test shares
#: one compilation per combination.
_PLANS: Dict[Tuple[str, str], tuple] = {}


def _suite_plan(machine_key: str, name: str):
    got = _PLANS.get((machine_key, name))
    if got is None:
        machine = _MACHINES[machine_key]()
        w = profile_benchmark(name)
        plan = compile_program(machine, w.program)
        got = _PLANS[(machine_key, name)] = (machine, w, plan)
    return got


def _bound_tensors(w):
    return list(w.inputs.values()) + list(w.params.values())


def _run_outputs(machine, w, plan):
    """Run the workload -- recursively when ``plan`` is None, else by
    replaying it -- and return the executor and its output arrays."""
    rng = np.random.default_rng(0)
    store = TensorStore()
    for t in _bound_tensors(w):
        store.bind(t, rng.normal(size=t.shape))
    executor = FractalExecutor(machine, store)
    executor.run_program(w.program, plan=plan)
    return executor, {n: store.read(t.region()) for n, t in w.outputs.items()}


def _lowering(batched):
    """Comparable identity of a lowering (lanes hold per-plan tensors)."""
    return [(b.start, b.stop, b.kind, b.opcode, b.level) for b in batched]


# -- suite-wide bit-identity --------------------------------------------------

class TestSuiteBitIdentity:
    """Schedule replay == recursive execution, byte for byte, on every
    (benchmark, machine) combination of the paper suite."""

    @pytest.mark.parametrize("machine_key", ["f1", "f100"])
    @pytest.mark.parametrize("name", SUITE)
    def test_batched_replay_bit_identical(self, machine_key, name):
        machine, w, plan = _suite_plan(machine_key, name)
        _, reference = _run_outputs(machine, w, None)
        executor, replayed = _run_outputs(machine, w, plan)
        assert executor.stats.batched_steps == \
            plan.replay_schedule().batched_steps
        for out_name in reference:
            np.testing.assert_array_equal(replayed[out_name],
                                          reference[out_name])


# -- the stacked-kernel registry ---------------------------------------------

class TestBatchedKernelRegistry:
    def test_registered_opcodes_are_the_bit_identical_set(self):
        ops = set(batched_opcodes())
        assert Opcode.MATMUL in ops
        assert Opcode.ACT1D in ops
        # Collapsed convolutions take a different BLAS path than the
        # reference im2col loop, so they are deliberately absent: their
        # groups stay unlowered and replay as single steps.
        assert Opcode.CV2D not in ops
        assert Opcode.CV3D not in ops
        assert Opcode.MERGE1D not in ops

    def test_kernel_for_mirrors_registry(self):
        for op in Opcode:
            kern = batched_kernel_for(op)
            assert (kern is not None) == (op in set(batched_opcodes()))

    def test_lowering_skips_opcodes_without_stacked_kernel(self):
        """ResNet-152's conv fusion groups have no stacked kernel: they are
        left unlowered, so every BatchedStep the schedule runs is one
        stacked call."""
        _, _, plan = _suite_plan("f1", "ResNet-152")
        grouped = {plan.steps[start].inst.opcode
                   for start, _stop in plan.fusion_groups}
        assert any(batched_kernel_for(op) is None for op in grouped)
        assert all(batched_kernel_for(b.opcode) is not None
                   for b in plan.ensure_lowered())
        schedule = plan.replay_schedule()
        assert schedule.fallback_lanes == 0 and schedule.fully_batched


# -- the tensor arena ---------------------------------------------------------

class TestArenaLayout:
    """K-Means on F1 owns hundreds of small intermediates -- enough churn
    to exercise recycling, re-zeroing, and the free-list coalescing."""

    def _schedule(self):
        _, _, plan = _suite_plan("f1", "K-Means")
        return plan, plan.replay_schedule()

    def _live_intervals(self, plan, items):
        """Independent re-derivation of each plan-owned tensor's live
        interval in schedule-item ordinals (the allocator's oracle)."""
        external = set(plan.external_uids())
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        sizes: Dict[int, int] = {}
        for ordinal, item in enumerate(items):
            steps = plan.steps[item.start:item.stop]
            for step in steps:
                for r in list(step.inst.inputs) + list(step.inst.outputs):
                    uid = r.tensor.uid
                    if uid in external:
                        continue
                    first.setdefault(uid, ordinal)
                    last[uid] = ordinal
                    sizes[uid] = r.tensor.nelems
        return first, last, sizes

    def test_concurrently_live_tensors_never_overlap(self):
        plan, schedule = self._schedule()
        arena = schedule.arena
        assert arena.bindings  # the plan owns real intermediates
        first, last, _sizes = self._live_intervals(plan, schedule.items)
        spans = [(t.uid, off, off + t.nelems) for t, off in arena.bindings]
        assert {uid for uid, _, _ in spans} == set(first)
        for i, (uid_a, lo_a, hi_a) in enumerate(spans):
            for uid_b, lo_b, hi_b in spans[i + 1:]:
                if first[uid_a] <= last[uid_b] and first[uid_b] <= last[uid_a]:
                    assert hi_a <= lo_b or hi_b <= lo_a, (
                        f"live tensors {uid_a} and {uid_b} share arena bytes")

    def test_high_water_matches_the_liveness_oracle(self):
        plan, schedule = self._schedule()
        arena = schedule.arena
        first, last, sizes = self._live_intervals(plan, schedule.items)
        peak = 0
        for ordinal in range(len(schedule.items)):
            live = sum(sizes[uid] for uid in sizes
                       if first[uid] <= ordinal <= last[uid])
            peak = max(peak, live)
        total = sum(sizes.values())
        # The packing cannot beat the liveness peak, must recycle (stay
        # below the no-reuse total), and stays under the analyzer's
        # step-granular high-water mark (which also counts externals).
        assert peak <= arena.total_elems < total
        assert arena.nbytes <= plan.stats.peak_live_bytes

    def test_zero_items_reference_real_bindings(self):
        _, schedule = self._schedule()
        arena = schedule.arena
        assert arena.zero_items  # recycling actually happened
        n_items = len(schedule.items)
        for ordinal, bi in arena.zero_items:
            assert 0 <= bi < len(arena.bindings)
            assert 0 <= ordinal < n_items

    def test_attach_arena_binds_views_of_one_buffer(self):
        _, schedule = self._schedule()
        arena = schedule.arena
        store = TensorStore()
        views = store.attach_arena(arena.bindings, arena.total_elems)
        assert store.arena_bytes == arena.nbytes
        assert len(views) == len(arena.bindings)
        for (tensor, _off), view in zip(arena.bindings, views):
            assert view.shape == tensor.shape
            assert view.base is not None  # a view, not an allocation
            np.testing.assert_array_equal(store.read(tensor.region()), view)


# -- plan documents: disk round-trip, migration, poisoning -------------------

def _groupy_plan():
    """A small plan with real fusion groups (tiny machine, one matmul)."""
    n = 96
    a, b, c = Tensor("a", (n, n)), Tensor("b", (n, n)), Tensor("c", (n, n))
    program = [Instruction(Opcode.MATMUL, (a.region(), b.region()),
                           (c.region(),))]
    machine = tiny_machine()
    plan = compile_program(machine, program)
    assert plan.batched  # precondition for every test below
    return machine, program, plan


class TestSchemaV3Cache:
    """The plan-document disk tier: round-trips re-derive the lowering,
    poisoned entries recompile, and entries of older schema versions
    (v2, v3) miss silently under their old file names."""

    def test_doc_round_trip_preserves_batched_table(self):
        machine, program, plan = _groupy_plan()
        doc = json.loads(json.dumps(plan.to_doc()))
        assert doc["version"] == PLAN_SCHEMA_VERSION == 4
        assert "batched" not in doc  # re-derived on load, never stored
        back = plan_from_doc(doc, plan.externals,
                             machine_fingerprint=plan.machine_fingerprint)
        assert _lowering(back.batched) == _lowering(plan.batched)
        rng = np.random.default_rng(5)
        arrays = {r.tensor.uid: rng.normal(size=r.tensor.shape)
                  for r in program[0].inputs}
        results = []
        for use_plan in (None, back):
            store = TensorStore()
            for r in program[0].inputs:
                store.bind(r.tensor, arrays[r.tensor.uid])
            FractalExecutor(machine, store).run_program(program, plan=use_plan)
            results.append(store.read(program[0].outputs[0]))
        np.testing.assert_array_equal(results[1], results[0])

    def test_poisoned_disk_entry_warns_and_recompiles(self, tmp_path):
        machine, program, plan = _groupy_plan()
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        disk.store(fp, digest, plan)
        path = disk._path(fp, digest)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["fusion_groups"].pop(0)  # cache poisoning: what lowering reads
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="fusion groups"):
            fresh = compile_cached(machine, program, disk_dir=tmp_path,
                                   memory_cache=PlanCache())
        assert _lowering(fresh.batched) == _lowering(plan.batched)

    def _assert_silent_miss(self, tmp_path, old_version):
        """An older-schema cache file lives under its old filename: the
        current lookup never opens it, so migration is a plain miss +
        recompile with no warning noise."""
        machine, program, plan = _groupy_plan()
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        new_path = disk._path(fp, digest)
        assert "plan-v4-" in new_path.name
        old_path = new_path.parent / new_path.name.replace(
            "plan-v4-", f"plan-v{old_version}-")
        old_path.parent.mkdir(parents=True, exist_ok=True)
        old_doc = plan.to_doc()
        old_doc["version"] = old_version
        old_path.write_text(json.dumps(old_doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            fresh = compile_cached(machine, program, disk_dir=tmp_path,
                                   memory_cache=PlanCache())
        assert fresh.n_steps == plan.n_steps
        assert new_path.exists()  # the recompile persisted a v4 entry
        assert old_path.exists()  # ... without touching the stale one

    def test_v2_entry_is_a_silent_miss(self, tmp_path):
        self._assert_silent_miss(tmp_path, 2)

    def test_v3_entry_is_a_silent_miss(self, tmp_path):
        self._assert_silent_miss(tmp_path, 3)

    def test_stale_document_under_current_name_warns_and_recompiles(
            self, tmp_path):
        machine, program, plan = _groupy_plan()
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        disk.store(fp, digest, plan)
        path = disk._path(fp, digest)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["version"] = 3
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="plan version"):
            fresh = compile_cached(machine, program, disk_dir=tmp_path,
                                   memory_cache=PlanCache())
        assert fresh.n_steps == plan.n_steps


# -- executor counters and observability --------------------------------------

class TestBatchedCounters:
    def test_batched_counters_published(self):
        machine, w, plan = _suite_plan("f1", "K-Means")
        schedule = plan.replay_schedule()
        rng = np.random.default_rng(0)
        with telemetry.enabled_scope() as (registry, _tracer):
            telemetry.reset()
            store = TensorStore()
            for t in _bound_tensors(w):
                store.bind(t, rng.normal(size=t.shape))
            executor = FractalExecutor(machine, store)
            executor.run_program(w.program, plan=plan)
            assert registry.value("plan.batched_steps") == \
                schedule.batched_steps
            assert registry.value("plan.batched_lanes") == \
                schedule.batched_lanes
            assert schedule.arena.nbytes > 0
            assert registry.gauge("store.arena_bytes").value == \
                schedule.arena.nbytes
        assert executor.stats.batched_steps == schedule.batched_steps
        assert executor.stats.batched_lanes == schedule.batched_lanes

    def test_alias_scan_skip_counted_and_correct(self):
        """An in-place ACT1D step carries a precomputed copy-mask: the
        schedule path skips the runtime overlap scan (counted) and still
        produces the reference result."""
        t = Tensor("x", (64,))
        program = [Instruction(Opcode.ACT1D, (t.region(),), (t.region(),),
                               {"func": "relu"})]
        machine = tiny_machine()
        plan = compile_program(machine, program)
        assert not all(s.safe_zero_copy for s in plan.steps)
        store = TensorStore()
        store.bind(t, np.linspace(-1, 1, 64))
        executor = FractalExecutor(machine, store)
        executor.run_program(program, plan=plan)
        assert executor.stats.alias_scan_skips > 0
        np.testing.assert_array_equal(
            store.read(t.region()),
            np.maximum(np.linspace(-1, 1, 64), 0.0))

    def test_batched_replay_beats_and_reports_progress(self):
        """Schedule replay's observability contract: one watchdog beat per
        plan step (bulk per group) and strided ``replay.progress``
        events."""
        import repro.core.executor as executor_mod
        from repro import obs
        from repro.obs import Watchdog

        machine, program, plan = _groupy_plan()
        rng = np.random.default_rng(2)
        store = TensorStore()
        for r in program[0].inputs:
            if not store.has(r.tensor):
                store.bind(r.tensor, rng.normal(size=r.tensor.shape))
        wd = obs.install_watchdog(Watchdog())
        log = obs.get_event_log()
        log.reset()
        log.enable()
        old_stride = executor_mod.REPLAY_PROGRESS_STRIDE
        executor_mod.REPLAY_PROGRESS_STRIDE = 2
        try:
            FractalExecutor(machine, store).run_program(program, plan=plan)
        finally:
            executor_mod.REPLAY_PROGRESS_STRIDE = old_stride
            log.disable()
            log.reset()
            obs.install_watchdog(None)
        assert wd.beats >= plan.n_steps


# -- sentinel / run-history wiring --------------------------------------------

class TestSentinelWiring:
    def test_polarity_of_batching_metrics(self):
        assert metric_polarity("replay_speedup") == "down_bad"

    def test_speedup_collapse_flags_regression(self, tmp_path):
        history = RunHistory(tmp_path)
        history.append([
            {"benchmark": "mm_fc", "machine": "Cambricon-F100",
             "metric": "replay_speedup", "value": v, "ts": 1000.0 + i,
             "source": "test"}
            for i, v in enumerate([6.5] * 10 + [1.05])
        ])
        [entry] = analyze_history(history).entries
        assert entry.status == "regression"

    def test_points_from_report_extracts_batching_metrics(self):
        doc = {
            "benchmark": "paper-suite", "machine": "Cambricon-F1",
            "counters": {"plan.batched_steps": 640},
            "notes": {"plan_microbench": {
                "benchmark": "mm_fc",
                "speedup": 6.5, "warm_replay_s": 0.04,
            }},
        }
        points = {p["metric"]: p for p in points_from_report(doc)}
        assert points["replay_speedup"]["value"] == pytest.approx(6.5)
        assert points["replay_speedup"]["benchmark"] == "mm_fc"
        assert points["warm_replay_s"]["value"] == pytest.approx(0.04)
        # only the replay points remain
        assert set(points) == {"replay_speedup", "warm_replay_s"}
