"""Sweep-as-batch: advance an entire RunSpec grid in one vectorized loop.

The fork strategy in :mod:`repro.parallel.engine` pays a whole process
per run; BENCH_sweep.json showed that overhead swamping small runs.
This module batches instead: every run in a grid whose machines share a
compiled layout signature is stacked as extra *rows* on one
:class:`repro.core.compiled._Group`, and a lockstep driver advances all
runs one global tick at a time — per-run management (balancer, web
servers, daemons, fiddle scripts, faults) stays per-simulation python,
while the thermal physics of the whole grid is a single
:func:`repro.core.compiled.tick_group` call.

Equivalence is bitwise, not approximate, and rests on three facts:

* every array operation in ``tick_group`` is elementwise along axis 0,
  so a row's result is a pure function of that row's values — adding
  more runs as rows cannot perturb any run (the only cross-row
  reductions pick between bit-equivalent code paths);
* the lockstep driver dispatches each member's kernel events in exactly
  the order ``ClusterSimulation._advance_ticks`` would — the deferred
  physics is flushed before any event that can observe temperatures;
* the pool computes no inlets: each member's solver evaluates its own
  :class:`~repro.core.inlets.InletOperator` at its tick, exactly as an
  unpooled solver does, and the pool stacks those values at flush.

Runs the batch cannot express are *evicted* to the per-run
``execute_spec`` path: python-engine specs and crash-hook specs up
front (:func:`partition_specs`), opaque power models at adoption, and
structural edits mid-run (the member keeps running in the lockstep
loop, just on a private compiled engine).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.simulation import ClusterSimulation
from ..core.compiled import (
    CompiledEngine,
    MachinePlan,
    _Group,
    compile_layout,
    tick_group,
)
from ..errors import SweepError
from .spec import RunSpec

#: Eviction reasons, recorded per evicted run for tests and logging.
EVICT_ENGINE = "engine"              #: spec does not use the compiled engine
EVICT_CRASH_HOOK = "crash_hook"      #: crash_at needs the worker-crash path
EVICT_OPAQUE_POWER = "opaque_power_model"  #: plan cannot batch the model
EVICT_DT = "dt_mismatch"             #: member ticks on a different grid
EVICT_STRUCTURAL = "structural_edit"  #: mid-run mutation outside the plan
EVICT_STACK = "scale_stack"          #: scale-stack runs are already vectorized


def partition_specs(
    specs: Sequence[RunSpec],
) -> Tuple[List[RunSpec], List[Tuple[RunSpec, str]]]:
    """Split a grid into batchable specs and (spec, reason) evictions.

    Only statically-decidable evictions happen here; opaque power
    models surface at adoption time and structural edits at run time.
    """
    eligible: List[RunSpec] = []
    evicted: List[Tuple[RunSpec, str]] = []
    for spec in specs:
        if spec.stack != "cluster":
            # A ScaleSimulation is one flattened solve already; the
            # cluster batch pool has nothing to add.
            evicted.append((spec, EVICT_STACK))
        elif spec.engine != "compiled":
            evicted.append((spec, EVICT_ENGINE))
        elif spec.crash_at is not None:
            evicted.append((spec, EVICT_CRASH_HOOK))
        else:
            eligible.append(spec)
    return eligible, evicted


class _PoolSlot:
    """Bookkeeping for one pooled simulation."""

    def __init__(self, simulation: ClusterSimulation, order: int) -> None:
        self.simulation = simulation
        self.solver = simulation.solver
        self.order = order
        #: True between this member's solver tick and the pool flush.
        self.pending = False
        #: The inlets the member's solver mixed for its pending tick.
        self.inlets: Mapping[str, float] = {}


class _BatchMemberEngine:
    """The solver engine installed on every pooled member.

    ``tick`` keeps the member's inlets and marks it pending: the pool
    computes the physics of all members at once in
    :meth:`BatchPool.flush` and writes the exhausts back.
    """

    deferred = True
    measure_host_latency = False

    def __init__(self, pool: "BatchPool", slot: _PoolSlot) -> None:
        self._pool = pool
        self._slot = slot

    def tick(self, inlet_temps) -> None:
        slot = self._slot
        if slot.pending:
            raise SweepError(
                "batched member ticked twice without a pool flush"
            )
        slot.inlets = inlet_temps
        slot.pending = True
        self._pool._pending += 1


class _PoolGroup:
    """All pooled machines sharing one plan, across every member."""

    def __init__(self, plan: MachinePlan) -> None:
        self.plan = plan
        #: (slot, machine name, state) per row, in adoption order.
        self.entries: List[Tuple[_PoolSlot, str, object]] = []
        self.group: Optional[_Group] = None
        #: Slots whose flow edits still owe a recompile telemetry inc.
        self.dirty: set = set()

    def rebuild(self) -> None:
        """(Re)materialize the stacked arrays from the member states.

        The state dicts are authoritative between ticks (every flush
        writes temperatures back), so a rebuild after adoption,
        eviction, or retirement reproduces the array contents bitwise.
        The flow arrays are rebuilt silently: recompile telemetry is
        driven by the per-member ``dirty`` set instead, mirroring what
        each member's own engine would have reported.
        """
        self.group = _Group(
            self.plan, [(name, state) for (_, name, state) in self.entries]
        )
        self.group.rebuild_flows()

    def write_back(self) -> None:
        """Push computed temperatures into every member's state dict."""
        plan = self.plan
        names = plan.node_names
        exhaust = plan.n_comps + plan.exhaust_air
        data = self.group.T.tolist()
        for row, (slot, name, state) in enumerate(self.entries):
            values = data[row]
            state.temperatures.update(zip(names, values))
            slot.solver._prev_exhaust[name] = values[exhaust]

    def member_rows(self, slot: _PoolSlot) -> int:
        return sum(1 for entry in self.entries if entry[0] is slot)


class BatchPool:
    """Stacked compiled-solver arrays spanning many simulations.

    Adopt simulations with :meth:`adopt` (before stepping them), drive
    each one through its solver tick, then :meth:`flush` once per
    global tick to compute all deferred physics vectorized.
    """

    def __init__(self, dt: float) -> None:
        self.dt = dt
        self._slots: List[_PoolSlot] = []
        self._groups: Dict[Tuple, _PoolGroup] = {}
        self._pending = 0
        #: (simulation, reason) for every mid-run eviction.
        self.evictions: List[Tuple[ClusterSimulation, str]] = []

    def __len__(self) -> int:
        return len(self._slots)

    # -- membership ------------------------------------------------------

    def adopt(self, simulation: ClusterSimulation) -> bool:
        """Fold a simulation into the pool; False when it cannot batch.

        The simulation must be freshly constructed or freshly restored
        (not mid-tick).  On refusal the simulation is untouched and
        keeps its own engine.
        """
        solver = simulation.solver
        if solver.engine != "compiled" or solver.dt != self.dt:
            return False
        plans = []
        for name, state in solver.machines.items():
            plan = compile_layout(state.layout)
            if any(comp[3][0] == "opaque" for comp in plan.signature[0]):
                return False
            plans.append((plan, name, state))
        slot = _PoolSlot(simulation, order=len(self._slots))
        self._slots.append(slot)
        for plan, name, state in plans:
            pool_group = self._groups.get(plan.signature)
            if pool_group is None:
                pool_group = _PoolGroup(plan)
                self._groups[plan.signature] = pool_group
            pool_group.entries.append((slot, name, state))
            # First-tick recompile parity: a per-run engine starts with
            # dirty flows and reports one recompile on its first tick.
            pool_group.dirty.add(slot)
        solver._impl = _BatchMemberEngine(self, slot)
        self._rebuild()
        return True

    def evict(self, simulation: ClusterSimulation,
              reason: str = EVICT_STRUCTURAL) -> None:
        """Remove a member mid-run and hand it a private compiled engine.

        The member keeps running (the lockstep driver does not care
        which engine a member uses); its state dicts already hold the
        current values, so the fresh engine continues bit-exactly.
        """
        slot = self._find(simulation)
        if slot is None:
            raise SweepError("simulation is not pooled")
        if slot.pending:
            raise SweepError("cannot evict a member with a pending tick")
        dirty_signatures = set()
        for signature, pool_group in list(self._groups.items()):
            if slot in pool_group.dirty:
                dirty_signatures.add(signature)
                pool_group.dirty.discard(slot)
            pool_group.entries = [
                entry for entry in pool_group.entries if entry[0] is not slot
            ]
            if not pool_group.entries:
                del self._groups[signature]
        self._slots.remove(slot)
        self._rebuild()
        engine = CompiledEngine(slot.solver)
        for group in engine.groups:
            if group.plan.signature not in dirty_signatures:
                # The member owed no recompile; rebuild silently so the
                # fresh engine does not report a spurious one.
                group.rebuild_flows()
        slot.solver._impl = engine
        self.evictions.append((simulation, reason))

    def retire_many(self, simulations: Sequence[ClusterSimulation]) -> None:
        """Drop finished members' rows in one rebuild.

        Unlike :meth:`evict`, no replacement engine is installed: a
        finished member never ticks again (a stray tick would trip the
        flush invariant loudly, since its slot is no longer counted).
        A pending recompile owed by a retiring member is dropped for the
        same reason — a per-run engine would only have reported it on
        the next tick, which never comes.  Retiring en masse keeps the
        common everyone-finishes-together teardown at one rebuild
        instead of one per member.
        """
        retiring = set()
        for simulation in simulations:
            slot = self._find(simulation)
            if slot is None:
                raise SweepError("simulation is not pooled")
            if slot.pending:
                raise SweepError("cannot retire a member with a pending tick")
            retiring.add(slot)
        if not retiring:
            return
        for signature, pool_group in list(self._groups.items()):
            pool_group.dirty -= retiring
            pool_group.entries = [
                entry for entry in pool_group.entries
                if entry[0] not in retiring
            ]
            if not pool_group.entries:
                del self._groups[signature]
        self._slots = [slot for slot in self._slots if slot not in retiring]
        self._rebuild()

    def _find(self, simulation: ClusterSimulation) -> Optional[_PoolSlot]:
        for slot in self._slots:
            if slot.simulation is simulation:
                return slot
        return None

    def _rebuild(self) -> None:
        for pool_group in self._groups.values():
            pool_group.rebuild()
            for row, (slot, name, state) in enumerate(pool_group.entries):
                state.listener = self._listener(pool_group, slot, row)

    def _listener(self, pool_group: _PoolGroup, slot: _PoolSlot, row: int):
        group = pool_group.group

        def on_change(field: str, key, value: float) -> None:
            try:
                if group.apply(row, field, key, value):
                    pool_group.dirty.add(slot)
            except KeyError:
                # A mutation the shared plan cannot express (structural
                # edit): the state dict already holds the new value, so
                # a private engine snapshotting it continues bit-exactly.
                self.evict(slot.simulation, reason=EVICT_STRUCTURAL)

        return on_change

    # -- the vectorized tick ---------------------------------------------

    def flush(self) -> None:
        """Compute every pending member's deferred solver tick at once."""
        if self._pending != len(self._slots):
            raise SweepError(
                f"flush with {self._pending} of {len(self._slots)} "
                f"members pending; the lockstep driver must tick every "
                f"pooled member first"
            )
        for pool_group in self._groups.values():
            group = pool_group.group
            if group.flows_dirty or pool_group.dirty:
                if group.flows_dirty:
                    group.rebuild_flows()
                for slot in sorted(pool_group.dirty, key=lambda s: s.order):
                    self._note_recompile(slot, pool_group)
                pool_group.dirty.clear()
            inlet = np.array([
                slot.inlets[name] for slot, name, _ in pool_group.entries
            ])
            tick_group(group, inlet, self.dt)
            pool_group.write_back()
        for slot in self._slots:
            slot.pending = False
        self._pending = 0

    def _note_recompile(self, slot: _PoolSlot, pool_group: _PoolGroup) -> None:
        """Report a flow recompile exactly as the member's own engine would.

        The per-run engine increments ``solver_recompiles_total`` inside
        the tick, before the solver advances its clock; at flush time the
        member's clock already sits one dt later, so it is rewound for
        the increment to keep the metric's sim_time stamp identical.
        """
        solver = slot.solver
        if not solver.telemetry.enabled:
            return
        clock = slot.simulation.kernel.clock
        finish = clock.now
        clock.advance(solver.time - solver.dt)
        try:
            solver._tel_recompiles.inc()
            solver.telemetry.event(
                "engine_recompile",
                "solver",
                machines=pool_group.member_rows(slot),
                reason="flows_dirty",
            )
        finally:
            clock.advance(finish)


class BatchMember:
    """One run inside a :class:`BatchRunner`."""

    def __init__(self, spec: RunSpec, simulation: ClusterSimulation,
                 resumed: bool = False) -> None:
        self.spec = spec
        self.simulation = simulation
        self.resumed = resumed
        self.pooled = False
        self.ticks_total = int(round(spec.duration / simulation.dt))
        self.ticks_done = int(round(simulation.time / simulation.dt))
        self.since_checkpoint = 0.0
        #: Most recent periodic checkpoint (checkpoint_every cadence).
        self.last_checkpoint: Optional[dict] = None

    @property
    def finished(self) -> bool:
        return self.ticks_done >= self.ticks_total


class BatchRunner:
    """Lockstep driver advancing many simulations one global tick at a time.

    Members the pool adopts defer their physics to the shared flush;
    members it refuses (or later evicts) run their own engine inline —
    both kinds interleave in the same loop, so a mixed batch still
    completes in one pass.
    """

    def __init__(self, members: Sequence[BatchMember]) -> None:
        self.members = list(members)
        for member in self.members:
            if member.spec.crash_at is not None:
                raise SweepError(
                    f"{member.spec.run_id!r} sets crash_at; route it "
                    f"through the fork path"
                )
        dt = self.members[0].simulation.dt if self.members else 1.0
        self.pool = BatchPool(dt)
        #: How many pool evictions this runner has already folded into
        #: its members' ``pooled`` flags.
        self._evictions_seen = 0
        for member in self.members:
            if not member.finished:
                member.pooled = self.pool.adopt(member.simulation)

    def run_ticks(self, ticks: Optional[int] = None) -> int:
        """Advance every unfinished member up to ``ticks`` more ticks.

        ``None`` runs everything to completion.  Returns the number of
        global ticks executed.
        """
        done = 0
        live = [m for m in self.members if not m.finished]
        while ticks is None or done < ticks:
            if not live:
                break
            for member in live:
                member.simulation._run_until_tick()
            if len(self.pool):
                self.pool.flush()
            self._reconcile_evictions(live)
            finished_pooled = []
            still_live = []
            for member in live:
                member.simulation._drain_tick_tail()
                member.ticks_done += 1
                self._checkpoint_cadence(member)
                if member.finished:
                    if member.pooled:
                        # Release the rows so the remaining members'
                        # arrays shrink and the flush invariant stays
                        # exact.  A drain-phase structural eviction can
                        # land after the post-flush reconcile, so check
                        # the pool rather than trust the flag.
                        member.pooled = False
                        if self.pool._find(member.simulation) is not None:
                            finished_pooled.append(member.simulation)
                else:
                    still_live.append(member)
            if finished_pooled:
                self.pool.retire_many(finished_pooled)
            live = still_live
            done += 1
        return done

    def _reconcile_evictions(self, live: Sequence[BatchMember]) -> None:
        """Fold new pool evictions into the members' ``pooled`` flags.

        A structural fiddle edit evicts its member from inside the
        member's own tick; the runner only learns about it here.  The
        member keeps running on its private engine — only the flag (and
        therefore the finish-time retirement) changes.
        """
        if len(self.pool.evictions) == self._evictions_seen:
            return
        evicted = {
            id(simulation)
            for simulation, _ in self.pool.evictions[self._evictions_seen:]
        }
        self._evictions_seen = len(self.pool.evictions)
        for member in live:
            if member.pooled and id(member.simulation) in evicted:
                member.pooled = False

    def run(self) -> None:
        """Run every member to completion."""
        self.run_ticks(None)

    def checkpoints(self) -> Dict[str, dict]:
        """Fresh checkpoints of every unfinished member, by run_id.

        Taken at the current global-tick boundary, these are exactly the
        snapshots ``execute_spec`` would produce at the same tick, so
        either path can resume them.
        """
        return {
            member.spec.run_id: member.simulation.checkpoint()
            for member in self.members
            if not member.finished
        }

    def _checkpoint_cadence(self, member: BatchMember) -> None:
        every = member.spec.checkpoint_every
        if every <= 0:
            return
        member.since_checkpoint += member.simulation.dt
        if member.since_checkpoint >= every:
            member.last_checkpoint = member.simulation.checkpoint()
            member.since_checkpoint = 0.0


def run_batch(
    specs: Sequence[RunSpec],
    checkpoints: Optional[Mapping[str, Mapping[str, object]]] = None,
):
    """Run a batch of specs in lockstep; returns per-run results.

    ``checkpoints`` maps run_id to a simulation checkpoint to resume
    from (the worker-crash resume contract: a resumed run's telemetry
    registry covers only the tail, and its result is flagged
    ``resumed``).  Results come back in spec order.
    """
    from .engine import build_simulation, collect_result

    members: List[BatchMember] = []
    for spec in specs:
        simulation = build_simulation(spec)
        checkpoint = (checkpoints or {}).get(spec.run_id)
        if checkpoint is not None:
            simulation.apply_checkpoint(checkpoint)
        members.append(
            BatchMember(spec, simulation, resumed=checkpoint is not None)
        )
    runner = BatchRunner(members)
    runner.run()
    return [
        collect_result(member.spec, member.simulation, member.resumed)
        for member in runner.members
    ]
