"""Seeded workload generation and output checks for the benchmark.

Each workload is a list of :class:`repro.service.JobSpec` generated from
the benchmark's ``--seed``; the program only ever sees those specs.  The
seed orders the points of ``fig9-sweep`` and ``option-mix`` and draws the
fault plan (its loss-roll seed and the slowed node).  Tile counts stay fixed: jittering them by one tile
moved ``comm_gb`` by 7% and peak RSS by up to 10% between seeds
(measured), which would swamp the spread of every size-driven metric.
See ``README.md`` next to this file for why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from typing import Any

from repro.comm.fast_counter import (
    cholesky_message_count,
    cholesky_volume_exact,
    lu_message_count,
    lu_volume_exact,
)
from repro.config import bora
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD
from repro.runtime.bounds import cholesky_bounds
from repro.runtime.faults import FaultPlan, SlowdownWindow
from repro.schedulers import POLICIES
from repro.service import JobSpec, report_to_dict
from repro.topology import fat_tree

#: Policies that keep owner-computes placement, so the distribution's
#: closed-form message count applies to their runs.  ``heft-lookahead``
#: migrates tasks and is checked only against the work bound.
OWNER_COMPUTES = frozenset({"critical-path", "bytes-critical-path",
                            "work-stealing", "comm-avoiding", "fork-join"})


def _potrf_scale(rng: random.Random) -> list[JobSpec]:
    # Two cold large graphs (0.24M tasks each): the event loop, priority
    # sweep and direct build dominate; service costs vanish.  N=112 rather
    # than the paper-scale 200 so that seven cold passes fit in one run.
    # The order is fixed, not drawn from the seed: at N=160, with SBC first
    # the same pass peaked at 281 or 292 MiB from run to run (allocator
    # reuse of the first graph's memory), with 2DBC first at 265 MiB every
    # time.
    n = 112
    machine = bora(36)
    return [JobSpec.make("cholesky", n, 512, BlockCyclic2D(6, 6), machine),
            JobSpec.make("cholesky", n, 512, SymmetricBlockCyclic(9), machine)]


def _fig9_sweep(rng: random.Random) -> list[JobSpec]:
    # The paper's Fig. 9 series: 18 medium points, so per-point service
    # overheads count 18 times, and the 2.5D configs take the object
    # builder + compile_graph lowering path (no direct compiler).  The
    # sizes stop at N=55 so that seven cold passes fit in one run.
    configs = [
        (SymmetricBlockCyclic(8), 28, "critical-path"),
        (BlockCyclic2D(7, 4), 28, "critical-path"),
        (BlockCyclic2D(6, 5), 30, "critical-path"),
        (TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), 3), 24,
         "critical-path"),
        (TwoDotFiveD(BlockCyclic2D(3, 3), 3), 27, "critical-path"),
        # COnfCHOX-like static schedule.
        (BlockCyclic2D(8, 4), 32, "fork-join"),
    ]
    specs = [JobSpec.make("cholesky", n, 500, dist, bora(nodes), policy=policy)
             for n in (30, 40, 55) for dist, nodes, policy in configs]
    rng.shuffle(specs)
    return specs


def _option_mix(rng: random.Random) -> list[JobSpec]:
    # One structure swept over every simulation-time option: the graph is
    # built once and reused by the other POTRF points, so the time goes to
    # scheduler plans and the general loop's per-option branches.  N=48
    # so that seven cold passes fit in one run.
    n = 48
    dist = SymmetricBlockCyclic(8)
    machine = bora(28)
    net = machine.network
    faults = FaultPlan(
        seed=rng.randrange(2**31),
        loss_rate=0.01,
        slowdowns=(SlowdownWindow(node=rng.randrange(machine.nodes),
                                  factor=2.0, start=0.2, end=0.6),),
    )
    tree = replace(machine, topology=fat_tree(
        machine.nodes, arity=4, bandwidth=net.bandwidth, latency=net.latency))
    potrf = [JobSpec.make("cholesky", n, 512, dist, machine, policy=p)
             for p in sorted(POLICIES)]
    potrf += [
        JobSpec.make("cholesky", n, 512, dist, machine, broadcast="tree"),
        JobSpec.make("cholesky", n, 512, dist, machine, aggregate=True),
        JobSpec.make("cholesky", n, 512, dist, machine, faults=faults),
        JobSpec.make("cholesky", n, 512, dist, tree),
    ]
    rng.shuffle(potrf)
    # LU last: a different structure would evict the reused POTRF graph.
    return potrf + [JobSpec.make("lu", n, 512, dist, machine)]


_GENERATORS = {
    "potrf-scale": _potrf_scale,
    "fig9-sweep": _fig9_sweep,
    "option-mix": _option_mix,
}


#: Spans a traced cold pass of the workload must contain beyond the
#: tracer's ``COLD_SPANS``: the layers that exist for it to exercise.
COLD_SPANS_EXTRA: dict[str, frozenset[str]] = {
    "potrf-scale": frozenset(),
    "fig9-sweep": frozenset({"graph.object_build", "graph.compile_graph"}),
    "option-mix": frozenset({"topology.compile"}),
}


def generate(workload: str, seed: int) -> list[JobSpec]:
    """The workload's points for ``seed`` (same seed, same specs)."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def _plain(spec: JobSpec) -> bool:
    """Owner-computes run on a clique with no option that changes traffic."""
    return (spec.faults is None and spec.broadcast == "direct"
            and not spec.aggregate and spec.policy in OWNER_COMPUTES
            and spec.machine_spec().topology is None
            and not isinstance(spec.distribution(), TwoDotFiveD))


def check_cold(spec: JobSpec, result: Any) -> list[str]:
    """Violations of the closed-form invariants by one cold-pass result."""
    if result.status != "ok" or result.report is None:
        return [f"status {result.status}: {result.error}"]
    if result.cached:
        return ["served from the store on an empty-store pass"]
    rep = result.report
    machine = spec.machine_spec()
    bad = []
    if not (math.isfinite(rep.makespan) and rep.makespan > 0):
        bad.append(f"makespan {rep.makespan!r}")
    # Work bound: every task runs at most at the kernel rate on one core.
    work = rep.total_flops / (machine.nodes * machine.cores
                              * machine.kernel.rate(spec.b))
    if rep.makespan < work:
        bad.append(f"makespan {rep.makespan} below work bound {work}")
    if _plain(spec):
        dist = spec.distribution()
        esize = machine.element_size
        if spec.algorithm == "cholesky":
            volume = cholesky_volume_exact(dist, spec.ntiles, spec.b, esize)
            messages = cholesky_message_count(dist, spec.ntiles)
            bound = cholesky_bounds(dist, spec.ntiles, spec.b,
                                    machine).makespan_lower_bound
            if rep.makespan < bound:
                bad.append(f"makespan {rep.makespan} below bound {bound}")
        else:
            volume = lu_volume_exact(dist, spec.ntiles, spec.b, esize)
            messages = lu_message_count(dist, spec.ntiles)
        if rep.comm_bytes != volume:
            bad.append(f"comm_bytes {rep.comm_bytes} != exact {volume}")
        if rep.comm_messages != messages:
            bad.append(f"comm_messages {rep.comm_messages} != exact {messages}")
    return bad


def check_warm(expected: dict[str, str], warm: Any) -> list[str]:
    """Violations by one warm-replay result of a point whose cold result
    had ``expected["hash"]`` and report text ``expected["report"]``."""
    if not warm.cached:
        return ["replay was not served from the store"]
    if warm.status != "ok" or warm.hash != expected["hash"]:
        return [f"replay status/hash {warm.status}/{warm.hash} differ"]
    if report_json(warm) != expected["report"]:
        return ["replayed report is not bit-identical"]
    return []


def report_json(result: Any) -> str:
    """Exact text of a result's report (floats as repr, so bit-exact)."""
    return json.dumps(report_to_dict(result.report), sort_keys=True)
