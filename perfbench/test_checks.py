"""Tests of the benchmark's own checks: a perturbed output or reference
must be counted as a failed operation.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import Tally, f1_mismatches, f100_violations, output_mismatches  # noqa: E402

REFERENCE = ROOT / "benchmarks" / "baselines" / "BENCH_reference.json"


def _observed(entry):
    return {
        "total_time_s": entry["total_time_s"],
        "attained_ops": entry["attained_ops"],
        "root_traffic_bytes": entry["root_traffic_bytes"],
        "attribution_totals_s": dict(entry["attribution"]["totals_s"]),
    }


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)["notes"]["benchmarks"]


class TestF1Reference:
    def test_equal_entry_passes(self, reference):
        entry = reference["K-NN"]
        assert f1_mismatches(_observed(entry), entry) == []

    @pytest.mark.parametrize("field", ["total_time_s", "attained_ops",
                                       "root_traffic_bytes"])
    def test_one_ulp_off_fails(self, reference, field):
        entry = reference["K-NN"]
        got = _observed(entry)
        got[field] = math.nextafter(float(got[field]), math.inf)
        tally = Tally()
        tally.record("K-NN.f1", f1_mismatches(got, entry))
        assert (tally.attempted, tally.failed) == (1, 1)
        assert field in tally.reasons[0]

    def test_perturbed_reference_fails(self, reference):
        entry = json.loads(json.dumps(reference["K-NN"]))
        got = _observed(entry)
        entry["attribution"]["totals_s"]["dma"] *= 1.0 + 1e-12
        assert f1_mismatches(got, entry)

    def test_live_simulation_matches_and_perturbation_counts(self, reference):
        from repro import cambricon_f1
        from repro.perf.attribution import attribute_report
        from repro.sim import FractalSimulator
        from repro.workloads import paper_benchmark

        rep = FractalSimulator(cambricon_f1(), collect_profiles=False).simulate(
            paper_benchmark("K-NN").program)
        got = {"total_time_s": rep.total_time,
               "attained_ops": rep.attained_ops,
               "root_traffic_bytes": rep.root_traffic,
               "attribution_totals_s": attribute_report(rep).totals()}
        tally = Tally()
        tally.record("live", f1_mismatches(got, reference["K-NN"]))
        got["root_traffic_bytes"] += 1
        tally.record("perturbed", f1_mismatches(got, reference["K-NN"]))
        assert (tally.attempted, tally.failed) == (2, 1)
        assert tally.reasons[0].startswith("perturbed")


class TestF100Invariants:
    ARGS = dict(makespan=1.0, attribution_totals={"compute": 0.75, "dma": 0.25},
                work=100.0, root_traffic=100.0, peak_ops=200.0,
                root_bandwidth=100.0)

    def test_consistent_report_passes(self):
        assert f100_violations(**self.ARGS) == []

    def test_attribution_not_summing_fails(self):
        args = dict(self.ARGS, attribution_totals={"compute": 0.75,
                                                   "dma": 0.2501})
        assert f100_violations(**args)

    def test_faster_than_peak_fails(self):
        assert f100_violations(**dict(self.ARGS, work=201.0))

    def test_faster_than_duplex_root_port_fails(self):
        assert f100_violations(**dict(self.ARGS, root_traffic=201.0))


class TestOutputs:
    def _pair(self):
        rng = np.random.default_rng(0)
        want = {"logits": rng.normal(size=(4, 10))}
        return {"logits": want["logits"].copy()}, want

    def test_identical_passes(self):
        got, want = self._pair()
        assert output_mismatches(got, want) == []

    def test_one_ulp_fails_and_is_counted(self):
        got, want = self._pair()
        got["logits"][2, 3] = np.nextafter(got["logits"][2, 3], np.inf)
        tally = Tally()
        tally.record("ok", output_mismatches(want, want))
        tally.record("perturbed", output_mismatches(got, want))
        assert (tally.attempted, tally.failed) == (2, 1)

    def test_dtype_shape_and_key_changes_fail(self):
        got, want = self._pair()
        assert output_mismatches({"logits": got["logits"].astype(np.float32)},
                                 want)
        assert output_mismatches({"logits": got["logits"].reshape(8, 5)}, want)
        assert output_mismatches({}, want)

    def test_raised_call_is_counted(self):
        tally = Tally()
        tally.error("call0", ValueError("boom"))
        assert (tally.attempted, tally.failed) == (1, 1)
        assert "boom" in tally.reasons[0]

    def test_live_replay_matches_oracle_and_perturbation_counts(self, tmp_path):
        from repro import cambricon_f100

        from models import Model

        model = Model("K-NN", cambricon_f100(), via_session=False)
        model.build()
        model.make_data(seed=7, index=0)
        model.compile(str(tmp_path))
        oracle = model.recursive()
        got = model.call()
        tally = Tally()
        tally.record("replay", output_mismatches(got, oracle))
        key = sorted(got)[0]
        got[key] = got[key] + 1.0
        tally.record("perturbed", output_mismatches(got, oracle))
        assert (tally.attempted, tally.failed) == (2, 1)


def test_benchmark_json_matches_run_py():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
