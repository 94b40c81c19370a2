"""Unit tests for the pluggable scheduler framework (repro.schedulers).

The cross-engine equality of every policy is pinned in
``tests/test_compiled_engine.py`` (TestPolicyConformance); this file
covers the framework pieces in isolation: the graph views feeding
policies identical columns on both planes, the plan contract, queue
determinism, and the SCHED-PLACE analyzer rule.
"""

import numpy as np
import pytest

from repro.analyze.schedule import verify_policy_placement
from repro.config import laptop
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.graph import build_cholesky_graph
from repro.graph.compiled import compile_graph
from repro.runtime.simulator import simulate, simulate_compiled
from repro.schedulers import (
    DEFAULT_POLICY,
    POLICIES,
    CompiledGraphView,
    ObjectGraphView,
    SchedulePlan,
    SchedulerInterface,
    WorkStealingQueues,
    get_policy,
)

DIST = SymmetricBlockCyclic(4)
N, B = 10, 32


def _views():
    g = build_cholesky_graph(N, B, DIST)
    cg = compile_graph(g)
    m = laptop(nodes=DIST.num_nodes, cores=2)
    kernel = m.kernel
    duration_fn = lambda t: kernel.duration(t.flops, g.b)  # noqa: E731
    durations = kernel.overhead + cg.flops / kernel.rate(cg.b)
    return ObjectGraphView(g, m, duration_fn), CompiledGraphView(cg, m, durations)


# --------------------------------------------------------------------------
# the views: both planes expose bit-identical columns
# --------------------------------------------------------------------------

class TestGraphViews:
    def test_scalar_columns_match(self):
        ov, cv = _views()
        assert ov.n_tasks == cv.n_tasks
        assert ov.num_nodes == cv.num_nodes
        assert ov.cores == cv.cores
        assert ov.bandwidth == cv.bandwidth
        assert ov.latency == cv.latency

    def test_array_columns_bit_identical(self):
        ov, cv = _views()
        assert list(ov.node) == list(cv.node)
        assert list(ov.kinds) == list(cv.kinds)
        assert list(ov.iterations) == list(cv.iterations)
        assert list(ov.out_bytes) == list(cv.out_bytes)
        # Durations must be IEEE-identical, not merely close: policies
        # fold them into priorities that break scheduling ties.
        assert list(ov.durations) == list(cv.durations)

    def test_consumers_and_inputs_identical(self):
        ov, cv = _views()
        assert [list(c) for c in ov.consumers] == [list(c) for c in cv.consumers]
        assert [list(i) for i in ov.inputs] == [list(i) for i in cv.inputs]

    def test_consumers_are_sorted_with_duplicates_kept(self):
        """A consumer reading two outputs of the same task appears once
        per read, ascending — both planes agree on the convention."""
        _, cv = _views()
        for cons in cv.consumers:
            assert list(cons) == sorted(cons)

    def test_comm_cost_is_latency_plus_wire_time(self):
        ov, _ = _views()
        nbytes = 8192
        assert ov.comm_cost(nbytes) == ov.latency + nbytes / ov.bandwidth


# --------------------------------------------------------------------------
# the registry and the plan contract
# --------------------------------------------------------------------------

class TestRegistry:
    def test_registry_has_the_zoo(self):
        assert len(POLICIES) >= 5
        assert DEFAULT_POLICY == "critical-path"
        for name, cls in POLICIES.items():
            assert cls.name == name
            assert cls.description

    def test_get_policy_resolution(self):
        assert get_policy(None).name == DEFAULT_POLICY
        assert get_policy("fork-join").name == "fork-join"
        inst = POLICIES["work-stealing"]()
        assert get_policy(inst) is inst
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            get_policy("does-not-exist")

    def test_default_policy_plan_is_native(self):
        _, cv = _views()
        plan = get_policy(None).plan(cv)
        assert plan.is_native()
        assert not plan.synchronized

    def test_plans_are_deterministic(self):
        ov, cv = _views()
        for name in POLICIES:
            p1 = get_policy(name).plan(cv)
            p2 = get_policy(name).plan(ov)
            if p1.priorities is None:
                assert p2.priorities is None
            else:
                assert list(p1.priorities) == list(p2.priorities), name
            if p1.assignment is None:
                assert p2.assignment is None
            else:
                assert list(p1.assignment) == list(p2.assignment), name

    def test_only_heft_migrates(self):
        migrating = {n for n, c in POLICIES.items() if c.migrates}
        assert migrating == {"heft-lookahead"}

    def test_bad_priority_length_rejected(self):
        class Short(SchedulerInterface):
            name = "short"
            description = "returns too few priorities"

            def plan(self, view):
                return SchedulePlan(priorities=[1.0])

        g = build_cholesky_graph(6, B, BlockCyclic2D(2, 2))
        cg = compile_graph(g)
        m = laptop(nodes=4, cores=2)
        with pytest.raises(ValueError, match="priorities"):
            simulate(g, m, scheduler=Short())
        with pytest.raises(ValueError, match="priorities"):
            simulate_compiled(cg, m, scheduler=Short())

    def test_out_of_range_assignment_rejected(self):
        class Offworld(SchedulerInterface):
            name = "offworld"
            description = "assigns tasks to a node the machine lacks"
            migrates = True

            def plan(self, view):
                return SchedulePlan(assignment=[view.num_nodes] * view.n_tasks)

        g = build_cholesky_graph(6, B, BlockCyclic2D(2, 2))
        cg = compile_graph(g)
        m = laptop(nodes=4, cores=2)
        with pytest.raises(ValueError, match="outside"):
            simulate(g, m, scheduler=Offworld())
        with pytest.raises(ValueError, match="outside"):
            simulate_compiled(cg, m, scheduler=Offworld())


# --------------------------------------------------------------------------
# the work-stealing queue discipline
# --------------------------------------------------------------------------

class TestWorkStealingQueues:
    def test_lifo_own_then_fifo_steal(self):
        q = WorkStealingQueues(num_nodes=1, cores=2)
        # core 0 gets tasks 0, 2; core 1 gets 1, 3
        for t in range(4):
            q.push(0, t, 0.0)
        assert q.total() == 4
        assert q.pop(0) == 2   # core 0's turn: LIFO of [0, 2]
        assert q.pop(0) == 3   # core 1's turn: LIFO of [1, 3]
        assert q.pop(0) == 0   # core 0 again
        assert q.pop(0) == 1
        assert q.pop(0) is None
        assert q.total() == 0

    def test_steals_from_longest_sibling(self):
        q = WorkStealingQueues(num_nodes=1, cores=2)
        q.push(0, 1, 0.0)  # -> core 1
        q.push(0, 3, 0.0)  # -> core 1
        assert q.pop(0) == 1  # core 0 empty: steal FIFO end of core 1
        assert q.pop(0) == 3

    def test_depth_is_per_node(self):
        q = WorkStealingQueues(num_nodes=2, cores=2)
        q.push(0, 0, 0.0)
        q.push(1, 1, 0.0)
        q.push(1, 2, 0.0)
        assert q.depth(0) == 1
        assert q.depth(1) == 2
        assert q.total() == 3


# --------------------------------------------------------------------------
# the SCHED-PLACE analyzer rule
# --------------------------------------------------------------------------

class TestPlacementRule:
    def _cg_and_machine(self):
        cg = compile_graph(build_cholesky_graph(N, B, DIST))
        return cg, laptop(nodes=DIST.num_nodes, cores=2)

    def test_zoo_is_clean(self):
        cg, m = self._cg_and_machine()
        for name in POLICIES:
            rep = verify_policy_placement(cg, m, name)
            assert rep.ok(), name

    def test_undeclared_migration_is_flagged(self):
        class Sneaky(SchedulerInterface):
            name = "sneaky"
            description = "migrates without declaring it"
            # migrates stays False

            def plan(self, view):
                moved = [(n + 1) % view.num_nodes for n in view.node]
                return SchedulePlan(assignment=moved)

        cg, m = self._cg_and_machine()
        rep = verify_policy_placement(cg, m, Sneaky())
        assert not rep.ok()
        assert any(f.rule == "SCHED-PLACE" for f in rep)

    def test_declared_migration_passes_in_range(self):
        class Honest(SchedulerInterface):
            name = "honest"
            description = "migrates and says so"
            migrates = True

            def plan(self, view):
                moved = [(n + 1) % view.num_nodes for n in view.node]
                return SchedulePlan(assignment=moved)

        cg, m = self._cg_and_machine()
        assert verify_policy_placement(cg, m, Honest()).ok()

    def test_out_of_range_flagged_even_when_migrating(self):
        class Offworld(SchedulerInterface):
            name = "offworld2"
            description = "assigns outside the machine"
            migrates = True

            def plan(self, view):
                return SchedulePlan(
                    assignment=[view.num_nodes] * view.n_tasks)

        cg, m = self._cg_and_machine()
        rep = verify_policy_placement(cg, m, Offworld())
        assert not rep.ok()


# --------------------------------------------------------------------------
# ranking sanity: the tournament's headline orderings hold at small N
# --------------------------------------------------------------------------

def test_policies_differentiate_makespan():
    """The zoo must actually explore the schedule space: at least three
    distinct makespans across policies, with fork-join strictly worse
    than the default (the paper's asynchronous-beats-synchronized
    claim, restated per policy)."""
    g = build_cholesky_graph(12, B, DIST)
    m = laptop(nodes=DIST.num_nodes, cores=2)
    spans = {name: simulate(g, m, scheduler=name).makespan
             for name in POLICIES}
    assert len(set(spans.values())) >= 3
    assert spans["fork-join"] > spans["critical-path"]
