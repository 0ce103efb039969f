"""Concrete tensor storage for functional execution.

The functional executor models every node's memory as views into one global
store: a mapping from tensor uid to a numpy array.  (Physically the data
would be copied down the hierarchy; numerically, views are equivalent, and
the *timing* simulator is the component that accounts for the copies.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Region, Tensor


class TensorStore:
    """Maps logical tensors to backing numpy arrays.

    ``zero_copy_reads`` / ``copied_reads`` are plain-int tallies of the
    :meth:`read` fast and slow paths (mirrored into the telemetry registry
    as ``store.zero_copy_reads`` / ``store.copied_reads`` by the executor;
    kept as bare attributes because ``read`` is the hottest line of
    functional execution).  ``static_zero_copy`` counts operand reads whose
    runtime aliasing-guard scan was skipped entirely because the plan
    analyzer proved the step alias-free (``PlanStep.safe_zero_copy``);
    the executor bumps it, the store just hosts the tally next to its
    siblings.
    """

    def __init__(self):
        self._arrays: Dict[int, np.ndarray] = {}
        self._tensors: Dict[int, Tensor] = {}
        self._arena: Optional[np.ndarray] = None
        self.zero_copy_reads: int = 0
        self.copied_reads: int = 0
        self.static_zero_copy: int = 0
        #: size of the last arena attached by :meth:`attach_arena` (the
        #: executor mirrors it as the ``store.arena_bytes`` gauge).
        self.arena_bytes: int = 0

    def bind(self, tensor: Tensor, array: np.ndarray) -> None:
        """Attach a concrete array (copied) as the tensor's contents."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.shape != tensor.shape:
            raise ValueError(f"shape mismatch: tensor {tensor.shape}, array {arr.shape}")
        self._arrays[tensor.uid] = arr.copy()
        self._tensors[tensor.uid] = tensor

    def ensure(self, tensor: Tensor) -> np.ndarray:
        """Materialize (zero-filled) storage for ``tensor`` if absent."""
        if tensor.uid not in self._arrays:
            self._arrays[tensor.uid] = np.zeros(tensor.shape, dtype=np.float64)
            self._tensors[tensor.uid] = tensor
        return self._arrays[tensor.uid]

    def has(self, tensor: Tensor) -> bool:
        return tensor.uid in self._arrays

    def read(self, region: Region, copy: bool = True) -> np.ndarray:
        """The region's contents.

        By default a private copy (callers may mutate it freely).  With
        ``copy=False`` -- the zero-copy fast path on the hottest line of
        functional execution -- a **read-only view** of the backing array
        is returned instead: no bytes move, and an in-place-mutating caller
        trips numpy's writeable guard rather than corrupting the store.
        Callers must only take the view when the region cannot alias a
        pending write (see ``FractalExecutor._read_operands``).
        """
        base = self.ensure(region.tensor)
        view = base[tuple(slice(lo, hi) for lo, hi in region.bounds)]
        if copy:
            self.copied_reads += 1
            return view.copy()
        view.flags.writeable = False  # fresh view object; base is untouched
        self.zero_copy_reads += 1
        return view

    def _coerce(self, region: Region, value, verb: str) -> np.ndarray:
        """Validate/shape ``value`` for storage into ``region``.

        1-D opcode outputs (sort/merge/count/hsum) are flat; an exact-size
        reshape is allowed so rank-1 results land in rank-N regions.  Shared
        by :meth:`write` and :meth:`write_accumulate` (the two copies had
        drifted apart in their error prefixes only).
        """
        value = np.asarray(value, dtype=np.float64)
        if value.shape != region.shape:
            if value.size == region.nelems:
                value = value.reshape(region.shape)
            else:
                raise ValueError(
                    f"{verb} shape mismatch: region {region.shape}, "
                    f"value {value.shape}"
                )
        return value

    def write(self, region: Region, value: np.ndarray) -> None:
        base = self.ensure(region.tensor)
        slices = tuple(slice(lo, hi) for lo, hi in region.bounds)
        base[slices] = self._coerce(region, value, "write")

    def write_accumulate(self, region: Region, value: np.ndarray) -> None:
        """Add ``value`` into the region (MAC-array style accumulation)."""
        base = self.ensure(region.tensor)
        slices = tuple(slice(lo, hi) for lo, hi in region.bounds)
        base[slices] += self._coerce(region, value, "accumulate")

    def attach_arena(self, bindings: Sequence[Tuple[Tensor, int]],
                     total_elems: int) -> List[np.ndarray]:
        """Back a set of tensors with slots of one flat preallocated buffer.

        ``bindings`` maps each tensor to its element offset (from
        :class:`repro.plan.batch.ArenaLayout`); a fresh zeroed float64
        buffer of ``total_elems`` is allocated and each tensor is bound to
        a contiguous view of it, so schedule replay resolves intermediates
        with offset arithmetic instead of growing ``_arrays`` one
        ``np.zeros`` at a time.  Returns the views in binding order (the
        executor re-zeroes recycled slots through them).  Existing
        bindings for the same uids are replaced; the caller guarantees
        slot lifetimes do not overlap while their tensors are live.
        """
        buf = np.zeros(int(total_elems), dtype=np.float64)
        self._arena = buf
        self.arena_bytes = buf.nbytes
        views: List[np.ndarray] = []
        arrays, tensors = self._arrays, self._tensors
        for tensor, offset in bindings:
            shape = tensor.shape
            view = buf[offset:offset + tensor.nelems]
            if len(shape) != 1:  # rank-1 slots are already shaped
                view = view.reshape(shape)
            arrays[tensor.uid] = view
            tensors[tensor.uid] = tensor
            views.append(view)
        return views

    def tensor(self, uid: int) -> Optional[Tensor]:
        return self._tensors.get(uid)

    def array(self, tensor: Tensor) -> np.ndarray:
        """Direct reference to the backing array (read-only use)."""
        return self.ensure(tensor)
