"""Correctness checks: every benchmark operation is verified, and counted.

An operation is one simulation (``sim-table5``) or one model call
(``serve-*``).  It fails when it raises or when one of these checks
reports a problem; :class:`Tally` counts failures against attempts.

* Cambricon-F1 simulations must equal the committed reference
  (``benchmarks/baselines/BENCH_reference.json``) exactly.
* Cambricon-F100 simulations have no committed reference, and the
  benchmark keeps no private copy of the model's output: they are held to
  model invariants computed from the live report.
* Every serve call must be bit-identical to the recursive oracle run on
  the same seeded inputs.
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Mapping

import numpy as np

#: relative tolerance of "attribution sums to makespan" (the attribution
#: engine's documented exactness, as its own tests use it)
ATTRIBUTION_REL = 1e-9


def f1_mismatches(observed: Mapping[str, object],
                  reference: Mapping[str, object]) -> List[str]:
    """Fields of an F1 simulation that differ from the reference entry.

    ``observed`` holds ``total_time_s``, ``attained_ops``,
    ``root_traffic_bytes`` and ``attribution_totals_s``; ``reference`` is
    one ``notes.benchmarks`` entry of the reference RunReport.  Equality
    is exact: the simulator is deterministic.
    """
    problems = []
    for key in ("total_time_s", "attained_ops", "root_traffic_bytes"):
        if observed[key] != reference[key]:
            problems.append(f"{key} {observed[key]!r} != reference "
                            f"{reference[key]!r}")
    want = (reference.get("attribution") or {}).get("totals_s")
    got = observed["attribution_totals_s"]
    if want != got:
        problems.append(f"attribution totals {got!r} != reference {want!r}")
    return problems


def f100_violations(makespan: float, attribution_totals: Mapping[str, float],
                    work: float, root_traffic: float, peak_ops: float,
                    root_bandwidth: float) -> List[str]:
    """Model invariants an F100 simulation must meet.

    * the attribution categories sum to the makespan;
    * the makespan respects the roofline: it is no shorter than the work
      at peak rate, and no shorter than the root-port traffic at the root
      bandwidth per direction.  The DMA is duplex (loads and write-backs
      on separate channels, as ``tests/test_simulator.py`` states), so
      combined load+store traffic bounds the makespan from below at twice
      the single-direction bandwidth.
    """
    problems = []
    total = sum(attribution_totals.values())
    if abs(total - makespan) > ATTRIBUTION_REL * abs(makespan):
        problems.append(f"attribution sums to {total!r}, makespan "
                        f"{makespan!r}")
    compute_bound = work / peak_ops
    if makespan < compute_bound:
        problems.append(f"makespan {makespan!r} < work/peak "
                        f"{compute_bound!r}")
    traffic_bound = root_traffic / (2.0 * root_bandwidth)
    if makespan < traffic_bound:
        problems.append(f"makespan {makespan!r} < root traffic / duplex "
                        f"root bandwidth {traffic_bound!r}")
    return problems


def output_mismatches(got: Mapping[str, np.ndarray],
                      want: Mapping[str, np.ndarray]) -> List[str]:
    """Outputs that are not bit-identical (same keys, shape, dtype, bits)."""
    problems = []
    if set(got) != set(want):
        problems.append(f"outputs {sorted(got)} != oracle {sorted(want)}")
    for key in sorted(set(got) & set(want)):
        a, b = np.asarray(got[key]), np.asarray(want[key])
        if a.shape != b.shape or a.dtype != b.dtype:
            problems.append(f"{key}: {a.dtype}{a.shape} != oracle "
                            f"{b.dtype}{b.shape}")
        elif not np.array_equal(a, b):
            problems.append(f"{key}: values differ from the oracle "
                            f"(max abs diff {np.max(np.abs(a - b))!r})")
    return problems


class Tally:
    """Attempted/failed operation counts with the first failure reasons."""

    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, label: str, problems: List[str]) -> bool:
        """Count one operation; ``problems`` empty means it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(f"{label}: {'; '.join(problems)}")
        return not problems

    def error(self, label: str, err: BaseException) -> None:
        """Count one operation that raised."""
        lines = traceback.format_exception_only(type(err), err)
        self.record(label, [lines[-1].strip()])

    def to_doc(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": self.reasons}
