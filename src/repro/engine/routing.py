"""Hash/broadcast routing of tuples to store tasks.

An :class:`~repro.core.topology.EdgeSpec` names the attribute of the
*sending* tuple whose value determines the target partition (``route_by``);
without one the tuple is broadcast to every task of the target store — the
χ > 1 case of the cost model (Section IV, marker 7 in Figure 2).
"""

from __future__ import annotations

import zlib
from typing import List, Optional

from ..core.topology import EdgeSpec, StoreSpec
from .tuples import StreamTuple

__all__ = ["target_tasks", "stable_hash", "storage_task"]


def stable_hash(value: object) -> int:
    """Deterministic, process-independent hash for partitioning."""
    return zlib.crc32(repr(value).encode("utf-8"))


def target_tasks(
    edge: EdgeSpec, spec: StoreSpec, tup: StreamTuple
) -> List[int]:
    """Task indices of ``spec`` that must receive ``tup`` along ``edge``."""
    if spec.parallelism <= 1:
        return [0]
    if edge.route_by is None:
        return list(range(spec.parallelism))
    value = tup.get(edge.route_by)
    if value is None:
        # The routing attribute is missing from the tuple (should not happen
        # for well-built topologies); fall back to broadcast for correctness.
        return list(range(spec.parallelism))
    return [stable_hash(value) % spec.parallelism]


def storage_task(spec: StoreSpec, tup: StreamTuple, attr: Optional[str]) -> int:
    """The one task of ``spec`` that stores ``tup``: by its value of the
    routing attribute ``attr``, else by a stable hash of the whole tuple.

    The cascade places a tuple that :func:`target_tasks` would broadcast
    along a storage edge here, and a repartitioning places every stored
    tuple here by the store's partitioning attribute — the attribute
    storage edges route by — so both agree on where each tuple lives.
    """
    if spec.parallelism <= 1:
        return 0
    if attr is not None:
        value = tup.get(attr)
        if value is not None:
            return stable_hash(value) % spec.parallelism
    return stable_hash(tup.key()) % spec.parallelism
