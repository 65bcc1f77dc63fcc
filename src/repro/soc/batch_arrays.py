"""Array form of a drained batch, kept for the benchmark's breakdown.

Nothing in the program calls this module.  It is what remains of the
removed columnar correlate path, which rebuilt each drained batch as
numpy arrays for a vectorized observe; on the benchmark's own traffic
that path measured slower than ``CorrelationEngine.observe_batch`` on
every workload, so it was deleted.  The traced benchmark run
(``perfbench/layers.py``) still imports :class:`StringInterner` and
:func:`build_batch` from :mod:`repro.soc` and times the array build as a
separate breakdown, so the build itself is kept, unchanged in cost,
until the benchmark drops that breakdown.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.soc.events import SecurityEvent

__all__ = ["BatchArrays", "StringInterner", "build_batch"]

# Bloom geometry the removed ledger screens used: 2^23 bits.
_BLOOM_MASK = np.int64((1 << 23) - 1)


def _bloom_coords(hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(byte index, bit mask) arrays for a batch of 64-bit hashes."""
    hh = hashes & _BLOOM_MASK
    return hh >> 3, np.left_shift(np.uint8(1), (hh & 7).astype(np.uint8))


class StringInterner:
    """Monotonic string -> int32 table (``table[i]`` inverts it)."""

    __slots__ = ("ids", "table")

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.table: List[str] = []

    def intern(self, s: str) -> int:
        i = self.ids.get(s)
        if i is None:
            i = len(self.table)
            self.ids[s] = i
            self.table.append(s)
        return i

    def intern_many(self, strings: Sequence[str]) -> np.ndarray:
        """Intern a batch of strings; one C-level pass when all are
        already known."""
        raw = list(map(self.ids.get, strings))
        if None in raw:
            intern = self.intern
            for i, v in enumerate(raw):
                if v is None:
                    raw[i] = intern(strings[i])
        return np.array(raw, dtype=np.int32)


class BatchArrays:
    """One drained batch as arrays: times, severities, interned
    signatures, vehicles, id/key ledgers with bloom coordinates, and a
    stable per-signature grouping."""

    def __init__(self, events: Sequence[SecurityEvent]) -> None:
        self.events: List[SecurityEvent] = list(events)
        self.n = len(self.events)


def build_batch(events: Sequence[SecurityEvent],
                interner: StringInterner) -> BatchArrays:
    """Build the array form of one drained batch."""
    cb = BatchArrays(events)
    n = cb.n
    if n == 0:
        return cb
    evs = cb.events
    t_list = cb.t_list = [e.time for e in evs]
    eids = [e.event_id for e in evs]
    vehs = [e.vehicle_id for e in evs]
    sigs = [e.signature for e in evs]

    t = cb.t = np.array(t_list, dtype=np.float64)
    cb.sev = np.fromiter((e.severity for e in evs), dtype=np.int16, count=n)
    cb.sev_min = int(cb.sev.min())
    cb.t_max = max(t_list)
    cb.t_min = min(t_list)

    cb.sig_ids = interner.intern_many(sigs)
    cb.veh_obj = np.array(vehs, dtype=object)
    hv = np.fromiter(map(hash, vehs), dtype=np.int64, count=n)
    cb.key_bloom = _bloom_coords(
        hv ^ (cb.sig_ids.astype(np.int64) * np.int64(-0x61C8864680B583EB)))
    cb.id_time = dict(zip(eids, t_list))
    cb.ids_unique = len(cb.id_time) == n
    cb.id_bloom = _bloom_coords(
        np.fromiter(map(hash, eids), dtype=np.int64, count=n))
    keys = list(zip(vehs, sigs))
    cb.key_time = dict(zip(keys, t_list))
    cb.keys_unique = len(cb.key_time) == n
    if not cb.keys_unique:
        counts: Dict[Tuple[str, str], int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        cb.dup_key_idx = [i for i, key in enumerate(keys) if counts[key] > 1]

    order = cb.order = np.argsort(cb.sig_ids, kind="stable")
    sig_sorted = cb.sig_ids[order]
    cuts = np.flatnonzero(sig_sorted[1:] != sig_sorted[:-1]) + 1
    bounds = cb.group_bounds = [0, *cuts.tolist(), n]
    table = interner.table
    cb.group_sigs = [table[sig_sorted[b]] for b in bounds[:-1]]
    cb.times_sorted = bool(n < 2 or np.all(t[1:] >= t[:-1]))
    return cb
