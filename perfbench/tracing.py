"""The traced run: spans around the calls into each repro layer.

:func:`install` replaces module globals and class attributes of the
program with thin wrappers that record a span per call (or, for calls
that fire once per datagram or once per server per tick, only a count,
to keep the overhead bounded).  Nothing under ``src/`` changes and
:meth:`Tracer.uninstall` puts every original back.

A span is ``(id, name, start, end, parent id, tick)``; spans of one
tick share that tick's simulated time as ``tick``.  Spans stay in
memory (up to :data:`MAX_SPANS`; later ones are counted as dropped,
while the per-name totals keep counting) and are written as JSON by
:meth:`Tracer.dump` when the run ends.  A span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept for the dump; per-name totals cover every call regardless.
MAX_SPANS = 200_000

#: Every event kind ``ClusterSimulation`` registers with its kernel;
#: each gets a ``kernel.<kind>_s`` metric (the self-tests fail when the
#: program registers a kind missing here).
KERNEL_KINDS = (
    "tick", "record", "faults", "command", "sample_gate", "stats",
    "wake", "deliver", "evaluate", "policy", "governor", "watchdog",
)


class Tracer:
    """Span recorder plus the set of wrappers it installed."""

    def __init__(self) -> None:
        #: Simulated time of the tick being traced (the span id of a tick).
        self.tick = 0.0
        self.spans: List[Tuple] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        self._stack: List[List] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn: Callable,
              tick_of: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records one span called ``name``.

        A call made while a span of the same name is innermost (a
        subclass method calling ``super()``) joins that span instead of
        nesting a second one, so totals never count the time twice.
        ``tick_of(args)`` names the tick the call belongs to.
        """
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            if tick_of is not None:
                tracer.tick = tick_of(args)
            ident = tracer._next_id
            tracer._next_id = ident + 1
            frame = [ident, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[2]
                parent = None
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                if len(spans) < MAX_SPANS:
                    spans.append((ident, name, start, end, parent, tracer.tick))
                else:
                    tracer.dropped += 1

        return wrapper

    def counted(self, name: str, fn: Callable,
                ok: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` to count calls (and, with ``ok``, calls whose
        result ``ok`` accepts, under ``name + ".ok"``); no timing."""
        counts = self.counts
        ok_name = name + ".ok"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if ok is None or ok(result):
                counts[ok_name] += 1
            return result

        return wrapper

    def patch(self, owner: object, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` (module global or class attribute)
        with ``make(original)``, remembering the original."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def dump(self, path: str, meta: Dict[str, object]) -> None:
        """Write the spans, totals and counts as one JSON document.
        Span times are seconds since the first recorded span."""
        origin = min((s[2] for s in self.spans), default=0.0)
        document = dict(meta)
        document.update(
            {
                "fields": ["id", "name", "start", "end", "parent", "tick"],
                "spans": [
                    [i, n, round(a - origin, 9), round(b - origin, 9), p, t]
                    for i, n, a, b, p, t in self.spans
                ],
                "dropped_spans": self.dropped,
                "totals": {
                    name: {"calls": int(c), "total_s": tot, "self_s": own}
                    for name, (c, tot, own) in sorted(self.totals.items())
                },
                "counts": dict(sorted(self.counts.items())),
            }
        )
        with open(path, "w") as handle:
            json.dump(document, handle)


def install(tracer: Tracer) -> None:
    """Wrap the public calls into each layer (see ``perfbench/README.md``
    for the layer table).  Wrappers bind at attribute lookup time, so
    objects built after this call are traced."""
    import repro.parallel.batch as batch
    import repro.parallel.engine as engine
    import repro.serve.service as service
    import repro.telemetry.exposition as exposition
    import repro.topology.sim as scale
    from repro.cluster.lvs import LoadBalancer
    from repro.cluster.webserver import WebServer
    from repro.control import policies
    from repro.control.view import FlatStateView
    from repro.daemons.admd import Admd
    from repro.daemons.tempd import Tempd
    from repro.faults.injector import FaultInjector, LossyChannel
    from repro.freon.ec import AdmdEC
    from repro.kernel.core import EventKernel
    from repro.sensors.server import SensorService
    from repro.serve.alerts import AlertEngine
    from repro.topology.recirculation import RecirculationOperator

    t = tracer
    counts = t.counts
    patch = t.patch

    # Stepping boundaries: these name the tick every nested span joins.
    patch(scale.ScaleSimulation, "step", lambda f: t.timed(
        "scale.step", f, tick_of=lambda a: a[0].solver.time))
    patch(batch.BatchRunner, "run_ticks", lambda f: t.timed(
        "parallel.run_ticks", f,
        tick_of=lambda a: max(m.simulation.time for m in a[0].members)))

    # topology
    def flat_step(f):
        timed = t.timed("topology.step", f)

        def step(self, ticks=1):
            counts["topology.ticks"] += ticks
            return timed(self, ticks)
        return step
    patch(scale.FlatSolver, "step", flat_step)
    patch(RecirculationOperator, "inlets_array",
          lambda f: t.timed("topology.recirc", f))

    # core
    def tick_group(f):
        timed = t.timed("core.tick_group", f)

        def wrapped(g, inlet, dt):
            counts["core.row_ticks"] += g.T.shape[0]
            return timed(g, inlet, dt)
        return wrapped
    patch(scale, "tick_group", tick_group)
    patch(batch, "tick_group", tick_group)

    # cluster (load balancing, offered load, web servers)
    patch(scale, "allocate_rates", lambda f: t.timed("lvs.allocate", f))
    patch(LoadBalancer, "allocate", lambda f: t.timed("lvs.allocate", f))
    patch(scale.ScaleSimulation, "offered_rates",
          lambda f: t.timed("workload.offered", f))
    patch(WebServer, "step", lambda f: t.counted("cluster.webserver_steps", f))

    # control: every policy class's own sample/wake, plus its messages
    # and the actuations they apply through the flat view.
    for cls in vars(policies).values():
        if isinstance(cls, type) and issubclass(cls, policies.ControlPolicy):
            for attr in ("sample", "wake"):
                if attr in vars(cls):
                    patch(cls, attr, lambda f, a=attr: t.timed(f"control.{a}", f))
    patch(policies.FreonPolicy, "_post",
          lambda f: t.counted("control.msgs", f))
    for attr in ("set_weight", "set_power"):
        patch(FlatStateView, attr,
              lambda f: t.counted("control.actuations", f))

    # faults
    patch(FaultInjector, "advance_to", lambda f: t.timed("faults.advance", f))
    patch(FaultInjector, "datagram_fate",
          lambda f: t.counted("faults.fates", f, ok=lambda fate: not fate[0]))
    patch(LossyChannel, "flush", lambda f: t.timed("faults.flush", f))

    # kernel: dispatch plus one span per handler kind
    patch(EventKernel, "run_next", lambda f: t.timed("kernel.run_next", f))

    def register(f):
        def wrapped(kernel, kind, handler):
            return f(kernel, kind, t.timed(
                f"kernel.{kind}", handler, tick_of=lambda a: a[0].time))
        return wrapped
    patch(EventKernel, "register", register)

    # daemons / freon
    def tempd_wake(f):
        timed = t.timed("daemons.tempd_wake", f)

        def wake(self, now):
            before = self.stale_wakes
            try:
                return timed(self, now)
            finally:
                counts["daemons.stale_wakes"] += self.stale_wakes - before
        return wake
    patch(Tempd, "wake", tempd_wake)
    patch(Admd, "sample", lambda f: t.timed("daemons.admd", f))
    patch(AdmdEC, "evaluate", lambda f: t.timed("daemons.admd", f))

    # sensors: a failed read raises, so only returns count as ok
    patch(SensorService, "read_temperature",
          lambda f: t.counted("sensors.reads", f))

    # parallel
    patch(batch.BatchPool, "flush", lambda f: t.timed("parallel.flush", f))
    patch(batch.BatchPool, "adopt",
          lambda f: t.counted("parallel.adopt", f, ok=bool))
    patch(engine, "build_simulation", lambda f: t.timed("parallel.build", f))
    patch(engine, "collect_result", lambda f: t.timed("parallel.collect", f))
    patch(engine, "merge_results", lambda f: t.timed("parallel.merge", f))

    # serve
    patch(service.ThermalService, "advance",
          lambda f: t.timed("serve.advance", f))
    patch(AlertEngine, "evaluate", lambda f: t.timed("serve.alerts", f))

    # telemetry exposition, under both names the program calls it by
    def expo(f):
        timed = t.timed("telemetry.expo", f)

        def to_prometheus(registry):
            text = timed(registry)
            counts["telemetry.expo_bytes"] += len(text)
            return text
        return to_prometheus
    patch(exposition, "to_prometheus", expo)
    patch(service, "to_prometheus", expo)


def unit_of(name: str) -> str:
    """A per-layer metric's unit, from its name's suffix."""
    for suffix, unit in (("_per_s", "sim-s/s"), ("_frac", "fraction"),
                         ("_ms", "ms"), ("_bytes", "bytes"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, reps: int) -> Dict[str, float]:
    """Per-layer metrics from a traced phase of ``reps`` repetitions.

    Times and counts are per repetition of the workload; fractions are
    over the whole phase; ``telemetry.expo_*`` are per exposition call.
    Layers a workload never enters read 0.
    """
    t = tracer
    c = t.counts
    per = 1.0 / reps
    metrics = {
        "topology.step_self_s": t.self_time("topology.step") * per,
        "topology.recirc_s": t.total("topology.recirc") * per,
        "topology.ticks": c["topology.ticks"] * per,
        "core.tick_group_s": t.total("core.tick_group") * per,
        "core.row_ticks": c["core.row_ticks"] * per,
        "lvs.allocate_s": t.total("lvs.allocate") * per,
        "workload.offered_s": t.total("workload.offered") * per,
        "cluster.webserver_steps": c["cluster.webserver_steps"] * per,
        "control.wake_s": t.total("control.sample", "control.wake") * per,
        "control.wakes": t.calls("control.wake") * per,
        "control.msgs": c["control.msgs"] * per,
        "control.actuations": c["control.actuations"] * per,
        "control.useful_frac": _ratio(c["control.actuations"], c["control.msgs"]),
        "faults.fates": c["faults.fates"] * per,
        "faults.delivered_frac": _ratio(c["faults.fates.ok"], c["faults.fates"]),
        "faults.advance_s": t.total("faults.advance") * per,
        "kernel.events": t.calls("kernel.run_next") * per,
        "kernel.self_s": t.self_time("kernel.run_next") * per,
    }
    for kind in KERNEL_KINDS:
        metrics[f"kernel.{kind}_s"] = t.total(f"kernel.{kind}") * per
    metrics.update(
        {
            "daemons.tempd_wake_s": t.total("daemons.tempd_wake") * per,
            "daemons.admd_s": t.total("daemons.admd") * per,
            "daemons.stale_wakes": c["daemons.stale_wakes"] * per,
            "sensors.reads": c["sensors.reads"] * per,
            "sensors.ok_frac": _ratio(c["sensors.reads.ok"], c["sensors.reads"]),
            "parallel.flush_s": t.total("parallel.flush") * per,
            "parallel.collect_s": t.total("parallel.collect", "parallel.merge") * per,
            "parallel.pooled_frac": _ratio(c["parallel.adopt.ok"], c["parallel.adopt"]),
            "serve.advance_s": t.total("serve.advance") * per,
            "serve.alerts_s": t.total("serve.alerts") * per,
            "telemetry.expo_s": _ratio(t.total("telemetry.expo"), t.calls("telemetry.expo")),
            "telemetry.expo_bytes": _ratio(c["telemetry.expo_bytes"], t.calls("telemetry.expo")),
        }
    )
    return metrics
