"""Adaptive execution experiments: Figures 8a / 8b (Section VII.B).

Both use the four-way linear query R(a), S(a,b), T(b,c), U(c).

* **8a** — equal input rates; the optimizer is initialized "with a little
  higher selectivity for S(b),T(b)" so the probe orders avoid the S⋈T
  join.  At the shift time every S tuple suddenly finds many partners in R
  but none in T (and vice versa): the static plan's intermediate results
  explode, latency climbs, and the worker eventually dies of memory
  overflow; the adaptive plan re-orders probes after about one window and
  recovers.

* **8b** — R arrives orders of magnitude faster than S, T, U.  At the
  shift the S⋈T⋈U intermediate becomes very small; the adaptive optimizer
  introduces an STU store so the R torrent probes one store instead of
  three, and the average latency settles at a lower level.

Outputs are latency-over-time series (like the paper's plots) plus failure
and reconfiguration markers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.adaptive import AdaptiveController
from ..core.catalog import StatisticsCatalog
from ..core.ilp_builder import OptimizerConfig
from ..core.partitioning import ClusterConfig
from ..core.predicates import JoinPredicate
from ..core.query import Query
from ..engine.adaptivity import AdaptivityLoop
from ..engine.profiles import CLASH_PROFILE
from ..engine.runtime import RuntimeConfig
from ..streams.generators import StreamSpec, generate_streams
from .timed import TimedSimulator

__all__ = ["Fig8Outcome", "run_fig8a", "run_fig8b", "LINEAR_QUERY"]

LINEAR_QUERY = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
_ATTRS = {"R": ["a"], "S": ["a", "b"], "T": ["b", "c"], "U": ["c"]}


@dataclass
class Fig8Outcome:
    """Result of one adaptive-vs-static run."""

    mode: str  # "adaptive" | "static"
    latency_timeline: List[Tuple[float, float]]  # (second, mean latency s)
    failed: bool
    failure_time: Optional[float]
    switches: List[float]
    mir_installed: bool
    mean_latency_before: float
    mean_latency_after: float


def _catalog(rates: Dict[str, float], window: float) -> StatisticsCatalog:
    catalog = StatisticsCatalog(default_selectivity=0.01, default_window=window)
    for name, rate in rates.items():
        catalog.with_rate(name, rate).with_window(name, window)
    # Initialization bias of Sec VII.B: S(b)=T(b) looks slightly costlier,
    # steering the initial plan to <S,R,T,U> / <T,U,R,S>-style orders.
    catalog.with_selectivity(JoinPredicate.of("S.b", "T.b"), 0.05)
    return catalog


def _run(
    rates: Dict[str, float],
    value_gen,
    duration: float,
    window: float,
    epoch_length: float,
    adapt: bool,
    shift_at: float,
    memory_limit: Optional[float],
    parallelism: int,
    seed: int,
    profile_scale: float,
    solver: str = "auto",
) -> Fig8Outcome:
    catalog = _catalog(rates, window)
    config = OptimizerConfig(
        cluster=ClusterConfig(default_parallelism=parallelism)
    )
    controller = AdaptiveController(catalog, [LINEAR_QUERY], config, solver=solver)
    loop = AdaptivityLoop(
        controller,
        epoch_length=epoch_length,
        cluster=config.cluster,
        adapt=adapt,
    )
    runtime = TimedSimulator(
        loop.deploy(),
        {name: window for name in rates},
        RuntimeConfig(collect_outputs=False, memory_limit_units=memory_limit),
        profile=CLASH_PROFILE.scaled(profile_scale),
        loop=loop,
    )

    specs = [
        StreamSpec(
            relation=name,
            rate=rates[name],
            attributes={a: value_gen(name, a) for a in _ATTRS[name]},
        )
        for name in _ATTRS
    ]
    _, inputs = generate_streams(specs, duration, seed=seed)
    runtime.run(inputs)

    metrics = runtime.metrics
    timeline = metrics.latency_timeline(bucket=1.0)
    before = [lat for t, lat in timeline if t < shift_at]
    after = [lat for t, lat in timeline if t >= shift_at + 2 * window / 3]
    mir_installed = any(
        any("+" in s for s in record.added_stores) for record in runtime.switches
    )
    return Fig8Outcome(
        mode="adaptive" if adapt else "static",
        latency_timeline=timeline,
        failed=metrics.failed,
        failure_time=metrics.last_completion if metrics.failed else None,
        switches=[record.time for record in runtime.switches],
        mir_installed=mir_installed,
        mean_latency_before=(sum(before) / len(before)) if before else 0.0,
        mean_latency_after=(sum(after) / len(after)) if after else 0.0,
    )


def run_fig8a(
    rate: float = 60.0,
    duration: float = 30.0,
    shift_at: float = 15.0,
    window: float = 5.0,
    epoch_length: float = 1.0,
    parallelism: int = 2,
    memory_limit: float = 60_000.0,
    seed: int = 1,
    profile_scale: float = 8.0,
    solver: str = "auto",
) -> Dict[str, Fig8Outcome]:
    """Selectivity flip: static dies of memory overflow, adaptive recovers.

    Before the shift each attribute draws from a domain ≈ 2·rate·window
    (half the tuples find a partner).  After the shift S.a/R.a collapse to
    a tiny domain (every S tuple finds ~100 partners in R) while S.b and
    T.b move to disjoint ranges (no S⋈T matches) — the Section VII.B event.
    """
    rates = {name: rate for name in _ATTRS}
    base = max(2, int(2 * rate * window))
    tiny = max(2, int(rate * window / 100))

    def value_gen(relation: str, attr: str):
        def gen(rng, now):
            shifted = now >= shift_at
            qualified = f"{relation}.{attr}"
            if qualified in ("R.a", "S.a"):
                return rng.randrange(tiny if shifted else base)
            if qualified == "S.b":
                return rng.randrange(base)  # stays low range
            if qualified == "T.b":
                # moves to a disjoint high range: no S.b = T.b matches
                return base + rng.randrange(base) if shifted else rng.randrange(base)
            return rng.randrange(base)

        return gen

    return {
        "adaptive": _run(
            rates, value_gen, duration, window, epoch_length, True,
            shift_at, memory_limit, parallelism, seed, profile_scale, solver,
        ),
        "static": _run(
            rates, value_gen, duration, window, epoch_length, False,
            shift_at, memory_limit, parallelism, seed, profile_scale, solver,
        ),
    }


def run_fig8b(
    fast_rate: float = 300.0,
    slow_rate: float = 4.0,
    duration: float = 30.0,
    shift_at: float = 15.0,
    window: float = 5.0,
    epoch_length: float = 1.0,
    parallelism: int = 2,
    seed: int = 2,
    profile_scale: float = 8.0,
    solver: str = "auto",
) -> Dict[str, Fig8Outcome]:
    """Rate skew: shrinking the S⋈T⋈U intermediate triggers an STU store.

    R floods the system; after the shift T.c/U.c matches become rare, the
    S⋈T⋈U result gets very small, and the adaptive optimizer materializes
    it so R probes one store instead of iterating through three.
    """
    rates = {"R": fast_rate, "S": slow_rate, "T": slow_rate, "U": slow_rate}
    slow_base = max(2, int(2 * slow_rate * window))

    def value_gen(relation: str, attr: str):
        def gen(rng, now):
            qualified = f"{relation}.{attr}"
            if qualified in ("R.a", "S.a"):
                return rng.randrange(slow_base)
            if qualified in ("T.c", "U.c") and now >= shift_at:
                return rng.randrange(20 * slow_base)  # matches become rare
            return rng.randrange(slow_base)

        return gen

    return {
        "adaptive": _run(
            rates, value_gen, duration, window, epoch_length, True,
            shift_at, None, parallelism, seed, profile_scale, solver,
        ),
        "static": _run(
            rates, value_gen, duration, window, epoch_length, False,
            shift_at, None, parallelism, seed, profile_scale, solver,
        ),
    }
