"""The serve workloads' models: build, compile, call and the recursive oracle.

Each model is a functional-scale suite benchmark on Cambricon-F100 with
seeded inputs (and, for ResNet-152, seeded parameters).  ``call`` is what
a user of the library runs per request; ``recursive`` runs the same
program through ``FractalExecutor.run_program`` with no plan, the oracle
every call is compared against.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import FractalExecutor, TensorStore
from repro.plan import compile_cached
from repro.runtime import InferenceSession
from repro.workloads import profile_benchmark

#: workload -> (model names, driven through InferenceSession?)
SERVE = {
    "serve-resnet-f100": (("ResNet-152",), True),
    "serve-mlalgo-f100": (("mm_fc", "K-NN", "K-Means", "LVQ", "SVM"), False),
}


def _short(full: str) -> str:
    return full.split(".")[-1]


class Model:
    """One model of a serve workload, driven through the public library."""

    def __init__(self, name: str, machine, via_session: bool) -> None:
        self.name = name
        self.machine = machine
        self.via_session = via_session
        self.workload = None
        self.session = None
        self.plan = None
        self.arrays: Dict[str, np.ndarray] = {}

    def build(self) -> None:
        """Construct the workload (and its session)."""
        self.workload = profile_benchmark(self.name)
        if self.via_session:
            self.session = InferenceSession(self.workload,
                                            machine=self.machine)

    def make_data(self, seed: int, index: int) -> None:
        """Seeded inputs, plus He-scaled parameters (kept finite so
        ``np.array_equal`` compares bits, never NaNs)."""
        rng = np.random.default_rng([seed, index])
        w = self.workload
        for full, t in sorted(w.inputs.items()):
            self.arrays[full] = rng.normal(size=t.shape)
        for full, t in sorted(w.params.items()):
            fan_in = max(1, int(np.prod(t.shape[:-1])))
            self.arrays[full] = (0.1 * (2.0 / fan_in) ** 0.5
                                 * rng.normal(size=t.shape))
        if self.session is not None:
            self.session.load_parameters(
                {full: self.arrays[full] for full in w.params})

    def compile(self, cache_dir: str) -> None:
        if self.session is not None:
            self.plan = self.session.compile(plan_cache_dir=cache_dir)
        else:
            self.plan = compile_cached(self.machine, self.workload.program,
                                       disk_dir=cache_dir)

    def _store(self) -> TensorStore:
        store = TensorStore()
        w = self.workload
        for full, t in list(w.inputs.items()) + list(w.params.items()):
            store.bind(t, self.arrays[full])
        return store

    def _outputs(self, store: TensorStore) -> Dict[str, np.ndarray]:
        return {_short(full): store.read(t.region())
                for full, t in self.workload.outputs.items()}

    def call(self) -> Dict[str, np.ndarray]:
        """One request on freshly bound inputs, default replay engine."""
        if self.session is not None:
            return self.session(**{_short(full): self.arrays[full]
                                   for full in self.workload.inputs})
        store = self._store()
        FractalExecutor(self.machine, store).run_program(
            self.workload.program, plan=self.plan)
        return self._outputs(store)

    def recursive(self) -> Dict[str, np.ndarray]:
        """The oracle: full fractal recursion, no plan."""
        store = self._store()
        FractalExecutor(self.machine, store).run_program(self.workload.program)
        return self._outputs(store)
