"""Discrete-event simulation of a task graph on a cluster.

Models the execution environment of the paper's experiments:

* each node runs ``machine.cores`` workers; a ready task is started on a
  free worker, highest priority first (StarPU's dynamic local scheduling);
* the owner-computes placement is already encoded in the graph;
* data produced on one node and read on another travels as one eager
  point-to-point message per (version, destination), overlapped with
  computation (§V-C: communications are asynchronous and per-tile);
* a scheduler plan that sets ``synchronized`` (the ``"fork-join"``
  policy) withholds tasks of iteration ``k`` until every task of
  iteration ``k-1`` has completed — the static fork-join behaviour of
  classical MPI implementations, used as the COnfCHOX-style baseline.

The simulated transferred bytes are, by construction, exactly the volume
reported by :func:`repro.comm.count_communications` on the same graph;
the test suite verifies the equality.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional

from ...config import MachineSpec
from ...graph.priorities import set_critical_path_priorities
from ...graph.task import DataKey, Task, TaskGraph
from ...obs import Recorder, TaskEvent, TransferEvent
from ..faults import FaultPlan, SimulatedFailure
from .network import NetworkSim, Transfer

__all__ = ["SimReport", "simulate"]


@dataclass
class SimReport:
    """Outcome of one simulated execution."""

    makespan: float
    total_flops: float
    num_nodes: int
    comm_bytes: int
    comm_messages: int
    busy_time: list[float] = field(default_factory=list)
    time_by_kind: dict[str, float] = field(default_factory=dict)
    num_tasks: int = 0
    cores_per_node: int = 1
    trace: Optional[list[TaskEvent]] = None
    transfers: Optional[list[TransferEvent]] = None
    #: the recorder that collected the trace (None on un-traced runs);
    #: carries the metrics registry and feeds the repro.obs exporters.
    obs: Optional[Recorder] = None

    @property
    def gflops_per_node(self) -> float:
        """The paper's figure of merit: #flops / (t * P) in GFlop/s."""
        return self.total_flops / (self.makespan * self.num_nodes) / 1e9

    @property
    def avg_utilization(self) -> float:
        """Mean fraction of worker-time spent computing."""
        if not self.busy_time or self.makespan <= 0:
            return 0.0
        workers = len(self.busy_time) * self.cores_per_node
        return sum(self.busy_time) / (self.makespan * workers)

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable summary (durations in seconds, traffic in bytes)."""
        return {
            "makespan": self.makespan,
            "gflops_per_node": self.gflops_per_node,
            "total_flops": self.total_flops,
            "num_nodes": self.num_nodes,
            "cores_per_node": self.cores_per_node,
            "comm_bytes": self.comm_bytes,
            "comm_messages": self.comm_messages,
            "avg_utilization": self.avg_utilization,
            "num_tasks": self.num_tasks,
            "time_by_kind": dict(self.time_by_kind),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"makespan {self.makespan:.3f}s, {self.gflops_per_node:.1f} GFlop/s/node, "
            f"{self.comm_bytes / 1e9:.2f} GB in {self.comm_messages} messages, "
            f"utilization {self.avg_utilization:.2f}"
        )


class _NodeState:
    """Worker pool and ready queue of one simulated node."""

    __slots__ = ("free_workers", "ready", "seq")

    def __init__(self, workers: int):
        self.free_workers = workers
        self.ready: list = []
        self.seq = 0

    def push(self, task: Task) -> None:
        self.seq += 1
        heapq.heappush(self.ready, (-task.priority, self.seq, task))

    def pop(self) -> Optional[Task]:
        if not self.ready:
            return None
        return heapq.heappop(self.ready)[2]


def simulate(
    graph: TaskGraph,
    machine: MachineSpec,
    duration_fn: Optional[Callable[[Task], float]] = None,
    auto_priorities: bool = True,
    trace: bool = False,
    broadcast: str = "direct",
    aggregate: bool = False,
    recorder: Optional[Recorder] = None,
    faults: Optional[FaultPlan] = None,
    scheduler=None,
) -> SimReport:
    """Simulate ``graph`` on ``machine``; see module docstring for the model.

    ``trace=True`` records per-task and per-message events; pass your own
    :class:`repro.obs.Recorder` as ``recorder`` to also collect metrics
    across several runs or to export the trace (``repro.obs.export``).
    The recorder is returned on ``SimReport.obs``.

    ``aggregate`` coalesces queued messages sharing a (source,
    destination) pair into one wire message — same bytes, fewer messages.

    ``broadcast`` selects how a version reaches its remote consumers:
    ``"direct"`` (the paper's setup: the producer sends one point-to-point
    message per destination) or ``"tree"`` (binomial forwarding: receivers
    relay the tile onwards, spreading the port load and reducing the
    depth of large fan-outs to log2 — the collective-communication
    optimization §V-C notes Chameleon does not perform).  Total message
    and byte counts are identical in both modes.

    ``faults`` injects a seeded :class:`repro.runtime.faults.FaultPlan`:
    straggler windows multiply task durations, link degradations multiply
    wire time, transient losses drop deliveries and retransmit after a
    timeout (retransmitted bytes/messages count), and worker crashes
    fail-stop a node — the run then raises a diagnostic
    :class:`SimulatedFailure` naming the crashed node.  The same plan
    produces bit-identical results on :func:`simulate_compiled`; see
    ``docs/network-model.md`` ("Fault model").

    ``scheduler`` selects a policy from :mod:`repro.schedulers` (a name
    from ``repro.schedulers.POLICIES`` or a ``SchedulerInterface``
    instance).  The default ``None`` — like the default
    ``"critical-path"`` policy — runs the engine's native behaviour
    bit-exactly; other policies may replace priorities, override task
    placement (only if they declare ``migrates``; the graph's node
    fields are restored afterwards), force fork-join barriers, or plug
    in a dynamic ready-queue discipline.  See ``docs/schedulers.md``.
    """
    if broadcast not in ("direct", "tree"):
        raise ValueError(f"unknown broadcast mode {broadcast!r}")
    if not graph.tasks:
        raise ValueError("cannot simulate an empty graph")
    if duration_fn is None:
        b = graph.b
        kernel = machine.kernel
        topo = machine.topology
        if topo is not None and topo.speed:
            # Heterogeneous nodes: the per-node speed multiplier divides
            # the homogeneous duration.  The compiled engine evaluates the
            # identical IEEE expression vectorized, keeping bit-equality.
            speed = topo.speed
            duration_fn = lambda t: kernel.duration(t.flops, b) / speed[t.node]  # noqa: E731
        else:
            duration_fn = lambda t: kernel.duration(t.flops, b)  # noqa: E731

    queue = None
    synchronized = False
    saved_nodes: Optional[list[int]] = None
    saved_prios: Optional[list[float]] = None
    if scheduler is not None:
        from ...schedulers import ObjectGraphView, get_policy

        policy = get_policy(scheduler)
        splan = policy.plan(ObjectGraphView(graph, machine, duration_fn))
        synchronized = splan.synchronized
        if splan.priorities is not None:
            prios = list(splan.priorities)
            if len(prios) != len(graph.tasks):
                raise ValueError(
                    f"policy {policy.name!r} returned {len(prios)} "
                    f"priorities for {len(graph.tasks)} tasks")
            saved_prios = [t.priority for t in graph.tasks]
            for t in graph.tasks:
                t.priority = prios[t.id]
            auto_priorities = False
        if splan.assignment is not None:
            asg = list(splan.assignment)
            if len(asg) != len(graph.tasks):
                raise ValueError(
                    f"policy {policy.name!r} returned {len(asg)} "
                    f"assignments for {len(graph.tasks)} tasks")
            if any(not 0 <= n < machine.nodes for n in asg):
                raise ValueError(
                    f"policy {policy.name!r} assigned a task outside "
                    f"nodes [0, {machine.nodes})")
            saved_nodes = [t.node for t in graph.tasks]
            for t in graph.tasks:
                t.node = asg[t.id]
        if splan.queue_factory is not None:
            queue = splan.queue_factory(machine.nodes, machine.cores)
    try:
        return _simulate(graph, machine, synchronized, duration_fn,
                         auto_priorities, trace, broadcast, aggregate,
                         recorder, faults, queue)
    finally:
        if saved_nodes is not None:
            for t in graph.tasks:
                t.node = saved_nodes[t.id]
        if saved_prios is not None:
            for t in graph.tasks:
                t.priority = saved_prios[t.id]


def _simulate(
    graph: TaskGraph,
    machine: MachineSpec,
    synchronized: bool,
    duration_fn: Callable[[Task], float],
    auto_priorities: bool,
    trace: bool,
    broadcast: str,
    aggregate: bool,
    recorder: Optional[Recorder],
    faults: Optional[FaultPlan],
    queue,
) -> SimReport:
    """The event loop behind :func:`simulate` (placement already applied)."""
    if graph.nodes_used() > machine.nodes:
        raise ValueError(
            f"graph uses {graph.nodes_used()} nodes but machine has {machine.nodes}"
        )
    num_nodes = machine.nodes
    if auto_priorities and all(t.priority == 0.0 for t in graph.tasks):
        # Bottom-level priorities mirror Chameleon's scheduling hints and
        # let both workers and the network favour the critical path.
        set_critical_path_priorities(graph, duration_fn)

    tasks = graph.tasks
    n_tasks = len(tasks)

    # --- dependency bookkeeping --------------------------------------------
    # missing[t] = input instances not yet present at t.node.
    missing = [0] * n_tasks
    # consumers on the producing node, released when the producer finishes.
    local_consumers: dict[DataKey, list[int]] = defaultdict(list)
    # consumers at remote nodes, released when the transfer arrives.
    remote_needers: dict[tuple[DataKey, int], list[int]] = defaultdict(list)
    # destination nodes awaiting each key (drives eager transfer fan-out).
    key_dsts: dict[DataKey, list[int]] = defaultdict(list)
    initial_sources: list[tuple[DataKey, int]] = []  # misplaced initial data
    for t in tasks:
        for k in t.reads:
            pid = graph.producer.get(k)
            if pid is not None:
                missing[t.id] += 1
                if tasks[pid].node == t.node:
                    local_consumers[k].append(t.id)
                else:
                    if (k, t.node) not in remote_needers:
                        key_dsts[k].append(t.node)
                    remote_needers[(k, t.node)].append(t.id)
            else:
                home = graph.initial[k][0]
                if home != t.node:
                    missing[t.id] += 1
                    if (k, t.node) not in remote_needers:
                        if k not in key_dsts:
                            initial_sources.append((k, home))
                        key_dsts[k].append(t.node)
                    remote_needers[(k, t.node)].append(t.id)

    # --- synchronized-mode bookkeeping -------------------------------------
    iterations = sorted({t.iteration for t in tasks})
    iter_pos = {it: i for i, it in enumerate(iterations)}
    iter_remaining = [0] * len(iterations)
    for t in tasks:
        iter_remaining[iter_pos[t.iteration]] += 1
    iter_blocked: dict[int, list[Task]] = defaultdict(list)
    released_idx = 0  # tasks with iteration index <= released_idx may run

    # --- fault-plan state ---------------------------------------------------
    fault_slow = faults is not None and bool(faults.slowdowns)
    crash_after = (
        {c.node: c.after_tasks for c in faults.crashes}
        if faults is not None and faults.crashes else None
    )
    dead = [False] * num_nodes if crash_after is not None else None
    completed_on = [0] * num_nodes
    loss = faults.loss_state() if faults is not None else None
    wire_factor = (
        faults.link_factor if faults is not None and faults.links else None
    )

    nodes = [_NodeState(machine.cores_for(i)) for i in range(num_nodes)]
    ctopo = (machine.topology.compiled()
             if machine.topology is not None else None)
    net = NetworkSim(machine.network, num_nodes, aggregate=aggregate,
                     wire_factor=wire_factor, topology=ctopo)
    if loss is None:
        lost_fn = None
    elif ctopo is None:
        lost_fn = loss.lost
    else:
        # Loss targets topology edges: roll every hop of the pair's
        # deterministic route (single-hop cliques reduce to loss.lost).
        lost_fn = lambda s, d: ctopo.roll_loss(loss, s, d)  # noqa: E731

    # --- event loop ---------------------------------------------------------
    events: list = []  # (time, seq, kind, payload)
    seq = 0
    busy_time = [0.0] * num_nodes
    time_by_kind: dict[str, float] = defaultdict(float)
    done = 0
    now = 0.0

    def push_event(time: float, kind: str, payload) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(events, (time, seq, kind, payload))

    if recorder is not None and recorder.enabled:
        rec = recorder
        trace = True
    else:
        # A NullRecorder counts as "tracing disabled": zero-cost no-op.
        rec = Recorder(source="simulator") if trace and recorder is None else None
        trace = rec is not None
    ready_time = [0.0] * n_tasks if trace else None
    first_chunk_start: dict[tuple[DataKey, int], float] = {}

    if trace and faults is not None:
        # Declare the plan's windows up front so the trace shows them even
        # if nothing lands inside one.
        for w in faults.slowdowns:
            rec.record_fault("slowdown", time=w.start, node=w.node,
                             detail=f"x{w.factor} until {w.end:g}")
        for ln in faults.links:
            rec.record_fault("degraded", time=ln.start, src=ln.src, dst=ln.dst,
                             detail=f"x{ln.factor} until {ln.end:g}")

    def start_task(task: Task, time: float) -> None:
        dur = duration_fn(task)
        if fault_slow:
            dur *= faults.compute_factor(task.node, time)
        busy_time[task.node] += dur
        time_by_kind[task.kind] += dur
        if trace:
            rec.record_task(task.id, task.kind, task.node,
                            ready_time[task.id], time, time + dur, task.flops)
        push_event(time + dur, "task", task)

    def enqueue_ready(task: Task, time: float) -> None:
        """Task has all inputs at its node; start it or queue it."""
        if trace:
            ready_time[task.id] = time
        if synchronized and iter_pos[task.iteration] > released_idx:
            iter_blocked[iter_pos[task.iteration]].append(task)
            return
        st = nodes[task.node]
        if dead is not None and dead[task.node]:
            # Fail-stopped node: the task is parked forever; the run ends
            # with a diagnostic SimulatedFailure.
            if queue is not None:
                queue.push(task.node, task.id, task.priority)
            else:
                st.push(task)
            return
        if st.free_workers > 0:
            st.free_workers -= 1
            start_task(task, time)
        else:
            if queue is not None:
                queue.push(task.node, task.id, task.priority)
            else:
                st.push(task)
            if trace:
                depth = (queue.depth(task.node) if queue is not None
                         else len(st.ready))
                rec.metrics.gauge(
                    "queue.depth.max", "peak ready-queue depth per node"
                ).set_max(depth, labels=(task.node,))

    def data_arrived_local(key: DataKey, time: float) -> None:
        for tid in local_consumers.get(key, ()):
            missing[tid] -= 1
            if missing[tid] == 0:
                enqueue_ready(tasks[tid], time)

    def data_arrived_remote(key: DataKey, dst: int, time: float) -> None:
        for tid in remote_needers.pop((key, dst), ()):
            missing[tid] -= 1
            if missing[tid] == 0:
                enqueue_ready(tasks[tid], time)

    def launch(chunk) -> None:
        tr = chunk.transfer
        if trace and (tr.key, tr.dst) not in first_chunk_start:
            first_chunk_start[(tr.key, tr.dst)] = chunk.egress_done
        push_event(chunk.egress_done, "sent", chunk)
        if chunk.final:
            push_event(chunk.delivery, "xfer", tr)

    # Forwarding plans for tree broadcasts: (key, node) -> child nodes.
    tree_children: dict[tuple[DataKey, int], list[int]] = {}

    def _send(key: DataKey, src: int, dst: int, prio: float, time: float) -> None:
        started = net.submit(Transfer(key, src, dst, graph.data_bytes(key), prio), time)
        if started is not None:
            launch(started)

    def request_transfers(key: DataKey, src: int, time: float) -> None:
        """Eagerly push a fresh version to every remote consumer node."""
        dsts = key_dsts.pop(key, None)
        if not dsts:
            return
        prios = {
            dst: max(tasks[tid].priority for tid in remote_needers[(key, dst)])
            for dst in dsts
        }
        if broadcast == "direct" or len(dsts) == 1:
            for dst in dsts:
                _send(key, src, dst, prios[dst], time)
            return
        # Binomial tree: urgent destinations closest to the root; node at
        # index i is served by the node at index i - 2^floor(log2 i).
        order = sorted(dsts, key=lambda d: -prios[d])
        ring = [src] + order
        children: dict[int, list[int]] = defaultdict(list)
        for i in range(1, len(ring)):
            parent = i - (1 << (i.bit_length() - 1))
            children[parent].append(i)
        # Each edge carries the max priority of the subtree it serves.
        subtree_prio = [0.0] * len(ring)
        for i in range(len(ring) - 1, 0, -1):
            subtree_prio[i] = max(
                [prios[ring[i]]] + [subtree_prio[c] for c in children.get(i, ())]
            )
        for i in range(1, len(ring)):
            kids = children.get(i)
            if kids:
                tree_children[(key, ring[i])] = [ring[c] for c in kids]
        for c in children[0]:
            _send(key, src, ring[c], subtree_prio[c], time)
        # Stash subtree priorities for the forwarding hops.
        for i in range(1, len(ring)):
            for c in children.get(i, ()):
                _forward_prios[(key, ring[c])] = subtree_prio[c]

    _forward_prios: dict[tuple[DataKey, int], float] = {}

    def release_iterations(time: float) -> None:
        nonlocal released_idx
        while (
            released_idx + 1 < len(iterations)
            and iter_remaining[released_idx] == 0
        ):
            released_idx += 1
            for task in iter_blocked.pop(released_idx, []):
                if missing[task.id] == 0:
                    enqueue_ready(task, time)

    # Kick off: source tasks and transfers of misplaced initial data.
    for t in tasks:
        if missing[t.id] == 0:
            enqueue_ready(t, 0.0)
    for key, home in initial_sources:
        request_transfers(key, home, 0.0)

    while events:
        now, _, kind, payload = heapq.heappop(events)
        if kind == "task":
            task = payload
            done += 1
            n = task.node
            if crash_after is not None and not dead[n]:
                completed_on[n] += 1
                point = crash_after.get(n)
                if point is not None and completed_on[n] >= point:
                    # Fail-stop: in-flight tasks finish (their events are
                    # queued), nothing new starts on this node.
                    dead[n] = True
                    if trace:
                        rec.record_fault("crash", time=now, node=n,
                                         detail=f"after {completed_on[n]} tasks")
            st = nodes[n]
            if dead is not None and dead[n]:
                pass  # no workers left to pick up the next ready task
            else:
                if queue is not None:
                    tid = queue.pop(n)
                    nxt = None if tid is None else tasks[tid]
                else:
                    nxt = st.pop()
                if nxt is not None:
                    start_task(nxt, now)
                else:
                    st.free_workers += 1
            if task.write is not None:
                data_arrived_local(task.write, now)
                request_transfers(task.write, task.node, now)
            if synchronized:
                iter_remaining[iter_pos[task.iteration]] -= 1
                release_iterations(now)
        elif kind == "sent":  # source egress channel freed
            nxt = net.egress_freed(payload.transfer.src, now)
            if nxt is not None:
                launch(nxt)
        elif kind == "retry":  # retransmission of a lost message
            old = payload
            nt = Transfer(old.key, old.src, old.dst, old.nbytes, old.priority)
            nt.keys = list(old.keys)  # preserve aggregated payloads
            if trace:
                rec.record_fault("retry", time=now, src=old.src, dst=old.dst,
                                 key=old.key)
            started = net.submit(nt, now)
            if started is not None:
                launch(started)
        else:  # transfer delivered at the destination
            tr = payload
            if lost_fn is not None and lost_fn(tr.src, tr.dst):
                # Transient loss: the message evaporates in flight; the
                # sender retransmits after the plan's timeout (the lost
                # bytes stayed on the wire and remain counted).
                if trace:
                    rec.record_fault(
                        "loss", time=tr.end, src=tr.src, dst=tr.dst,
                        key=tr.key,
                        detail=f"retry at {tr.end + faults.retransmit_timeout:.6g}",
                    )
                push_event(tr.end + faults.retransmit_timeout, "retry", tr)
                continue
            if trace:
                rec.record_transfer(
                    key=tr.key,
                    src=tr.src,
                    dst=tr.dst,
                    nbytes=tr.nbytes,
                    submitted=tr.submitted,
                    started=first_chunk_start.get((tr.key, tr.dst), tr.submitted),
                    delivered=tr.end,
                )
            for key in tr.keys:
                data_arrived_remote(key, tr.dst, tr.end)
                for child in tree_children.pop((key, tr.dst), ()):
                    _send(
                        key,
                        tr.dst,
                        child,
                        _forward_prios.pop((key, child), tr.priority),
                        tr.end,
                    )

    if done != n_tasks:
        if dead is not None and any(dead):
            crashed = ", ".join(
                f"node {i} after {completed_on[i]} tasks"
                for i in range(num_nodes) if dead[i]
            )
            raise SimulatedFailure(
                f"simulated worker crash ({crashed}): "
                f"{n_tasks - done}/{n_tasks} tasks never ran"
            )
        raise RuntimeError(
            f"simulation deadlock: executed {done}/{n_tasks} tasks "
            f"({sum(len(v) for v in iter_blocked.values())} blocked on barriers)"
        )

    if trace:
        rec.finalize_utilization(busy_time, now, machine.cores)
        rec.metrics.gauge("makespan.seconds", "simulated makespan").set(now)
    return SimReport(
        makespan=now,
        total_flops=graph.total_flops(),
        num_nodes=machine.nodes,
        comm_bytes=net.total_bytes,
        comm_messages=net.total_messages,
        busy_time=busy_time,
        time_by_kind=dict(time_by_kind),
        num_tasks=n_tasks,
        cores_per_node=machine.cores,
        trace=rec.task_events if trace else None,
        transfers=rec.transfer_events if trace else None,
        obs=rec if trace else None,
    )
