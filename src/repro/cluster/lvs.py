"""A user-space model of LVS weighted least-connections scheduling.

Freon manipulates LVS (the Linux Virtual Server kernel module) through
exactly three knobs, all modeled here:

* **per-server weights** — LVS "directs requests to the server i with the
  lowest ratio of active connections and weight,
  min(Conns_i / Weight_i)"; in fluid steady state that allocates load
  proportionally to weights;
* **per-server concurrent-connection limits** — Freon caps a hot
  server's connections at its recent average;
* **server membership** — Freon-EC instructs LVS to stop using a server
  (quiesce + drain) and to start using it again.

The balancer works on per-tick request *rates* (a fluid approximation of
per-connection dispatch — see DESIGN.md): each tick the offered rate is
split proportionally to the weights of servers that can accept load,
water-filling around servers pinned at their connection caps or capacity
limits, and anything no server can absorb is dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ClusterError, ServerStateError

#: Weight resolution: LVS weights are integers; we keep floats internally
#: but never let an active server's weight fall below this.
MIN_WEIGHT = 1e-3

_INF = float("inf")


class ServerState(enum.Enum):
    """Lifecycle of a real server behind the balancer."""

    ACTIVE = "active"
    QUIESCING = "quiescing"  # no new connections; draining existing ones
    OFF = "off"


@dataclass
class RealServer:
    """Balancer-side bookkeeping for one backend."""

    name: str
    weight: float = 1.0
    #: None means unlimited concurrent connections.
    connection_limit: Optional[float] = None
    state: ServerState = ServerState.ACTIVE
    #: Fluid count of in-flight connections (updated by the cluster sim).
    active_connections: float = 0.0


@dataclass(frozen=True)
class Allocation:
    """Result of one tick of load distribution."""

    rates: Dict[str, float]
    dropped_rate: float


@dataclass(frozen=True)
class CloningConfig:
    """Request-cloning policy (processor-sharing cloning model).

    Every request is dispatched to ``clones`` backends simultaneously;
    the first response wins and the remaining clones are cancelled.  For
    synchronized processor-sharing clones of exponentially distributed
    demands the first completion arrives after ``1/clones`` of the
    solo service time (the min of d exponentials), so cloning buys a
    ``latency_scale`` of ``1/clones`` — at the price of extra backend
    work: each of the ``clones - 1`` losers has attained the same
    service as the winner and its cancellation costs a further
    ``cancel_overhead`` fraction of that attained service, giving a
    ``work_multiplier`` of ``1 + (clones - 1) * cancel_overhead /
    clones``.

    Cloning is worth it only while the cluster has headroom.  When the
    cloned work would push utilization past ``utilization_ceiling`` the
    balancer opportunistically sheds to plain single-dispatch for that
    tick, so a loaded cluster degrades gracefully to the uncloned
    throughput instead of collapsing under self-inflicted work.
    """

    clones: int = 2
    cancel_overhead: float = 0.10
    utilization_ceiling: float = 0.75

    def __post_init__(self) -> None:
        if self.clones < 1:
            raise ClusterError("clones must be >= 1")
        if not 0.0 <= self.cancel_overhead <= 1.0:
            raise ClusterError("cancel_overhead must be in [0, 1]")
        if not 0.0 < self.utilization_ceiling <= 1.0:
            raise ClusterError("utilization_ceiling must be in (0, 1]")

    @property
    def work_multiplier(self) -> float:
        """Backend work per request relative to single dispatch."""
        d = self.clones
        return 1.0 + (d - 1) * self.cancel_overhead / d

    @property
    def latency_scale(self) -> float:
        """Response-time factor relative to single dispatch."""
        return 1.0 / self.clones


@dataclass(frozen=True)
class CloneAllocation:
    """Result of one tick of cloned load distribution.

    ``rates`` are backend *work* rates (what the servers actually
    process, inflated by the work multiplier when cloning was active
    this tick) so downstream utilization and heat stay physical;
    ``dropped_rate`` is back in *request* units.  ``latency_scale`` is
    the response-time factor in effect this tick (``1/clones`` when
    cloned, ``1.0`` when shed), and ``cloned`` says which it was.
    """

    rates: Dict[str, float]
    dropped_rate: float
    latency_scale: float
    cloned: bool


class LoadBalancer:
    """Weighted least-connections request distribution with caps."""

    def __init__(self, servers: "List[str]") -> None:
        if not servers:
            raise ClusterError("the balancer needs at least one real server")
        self._servers: Dict[str, RealServer] = {
            name: RealServer(name) for name in servers
        }
        self.total_dropped = 0.0
        self.total_offered = 0.0
        #: (active servers in registration order, their weight sum),
        #: rebuilt lazily after any state or weight change.  Membership
        #: and weights change on management actions (a few per run);
        #: :meth:`allocate` reads them every tick.
        self._active_cache: Optional[Tuple[List[RealServer], float]] = None

    # -- administrative interface (what admd calls) ------------------------

    def server(self, name: str) -> RealServer:
        """Bookkeeping record for one backend."""
        try:
            return self._servers[name]
        except KeyError:
            raise ClusterError(f"unknown real server {name!r}") from None

    @property
    def server_map(self) -> Mapping[str, RealServer]:
        """The live name → record mapping (hot-path read access)."""
        return self._servers

    def servers(self) -> "List[RealServer]":
        """All backends, in registration order."""
        return list(self._servers.values())

    def active_servers(self) -> "List[RealServer]":
        """Backends currently accepting new connections."""
        return list(self._actives()[0])

    def _actives(self) -> Tuple["List[RealServer]", float]:
        """Cached (active servers, total weight); see ``_active_cache``."""
        cached = self._active_cache
        if cached is None:
            eligible = [
                s for s in self._servers.values()
                if s.state is ServerState.ACTIVE
            ]
            cached = (eligible, sum(s.weight for s in eligible))
            self._active_cache = cached
        return cached

    def invalidate_caches(self) -> None:
        """Drop derived caches after out-of-band mutation (restore)."""
        self._active_cache = None

    def set_weight(self, name: str, weight: float) -> None:
        """Set a server's scheduling weight."""
        if weight < MIN_WEIGHT:
            weight = MIN_WEIGHT
        self.server(name).weight = weight
        self._active_cache = None

    def set_connection_limit(self, name: str, limit: Optional[float]) -> None:
        """Cap (or uncap, with None) a server's concurrent connections."""
        if limit is not None and limit < 0.0:
            raise ClusterError("connection limit must be non-negative")
        self.server(name).connection_limit = limit

    def quiesce(self, name: str) -> None:
        """Stop sending new connections to a server (drain begins)."""
        server = self.server(name)
        if server.state is ServerState.OFF:
            raise ServerStateError(f"server {name!r} is off")
        server.state = ServerState.QUIESCING
        self._active_cache = None

    def mark_off(self, name: str) -> None:
        """Record that a drained server has been shut down."""
        server = self.server(name)
        if server.active_connections > 1e-6:
            raise ServerStateError(
                f"server {name!r} still has {server.active_connections:.2f} "
                "connections; drain before shutdown"
            )
        server.state = ServerState.OFF
        self._active_cache = None

    def activate(self, name: str) -> None:
        """Start (or resume) scheduling new connections to a server."""
        self.server(name).state = ServerState.ACTIVE
        self._active_cache = None

    # -- scheduling ----------------------------------------------------------

    def allocate(
        self,
        offered_rate: float,
        capacity: Mapping[str, float],
        response_time: Mapping[str, float],
    ) -> Allocation:
        """Split one tick's offered request rate across the backends.

        ``capacity`` is each server's maximum sustainable request rate
        (req/s) this tick; ``response_time`` its current mean response
        time (s), used to translate connection caps into rate caps via
        Little's law.  Returns per-server rates and the dropped rate.
        """
        if offered_rate < 0.0:
            raise ClusterError("offered rate must be non-negative")
        self.total_offered += offered_rate
        eligible, total_weight = self._actives()
        rates: Dict[str, float] = dict.fromkeys(self._servers, 0.0)
        if not eligible or offered_rate == 0.0:
            self.total_dropped += offered_rate
            return Allocation(rates=rates, dropped_rate=offered_rate)

        # Water-filling: distribute proportionally to weight; servers that
        # hit their ceiling keep the ceiling and the excess is reoffered
        # to the rest.  The first pass runs straight off ``eligible``
        # (same iteration order as the open set it would seed) with each
        # server's hard ceiling — capacity, further capped by the
        # connection limit translated through Little's law (L = lambda T)
        # — computed inline, so the common nobody-saturates tick builds
        # neither the ceiling dict nor the open-set dict.
        remaining = offered_rate
        saturated: List[str] = []
        if remaining > 1e-12 and total_weight > 0.0:
            distributed = 0.0
            for server in eligible:
                name = server.name
                limit = capacity.get(name, _INF)
                if server.connection_limit is not None:
                    t_resp = response_time.get(name, 0.0)
                    if t_resp < 1e-6:
                        t_resp = 1e-6
                    cap_rate = server.connection_limit / t_resp
                    if cap_rate < limit:
                        limit = cap_rate
                share = remaining * server.weight / total_weight
                headroom = (limit if limit > 0.0 else 0.0) - rates[name]
                take = share if share < headroom else headroom
                rates[name] += take
                distributed += take
                if share >= headroom - 1e-12:
                    saturated.append(name)
            remaining -= distributed
        if saturated and remaining > 1e-12:
            ceiling: Dict[str, float] = {}
            for server in eligible:
                limit = capacity.get(server.name, _INF)
                if server.connection_limit is not None:
                    t_resp = max(response_time.get(server.name, 0.0), 1e-6)
                    limit = min(limit, server.connection_limit / t_resp)
                ceiling[server.name] = max(limit, 0.0)
            open_set = {
                server.name: server.weight for server in eligible
            }
            for name in saturated:
                open_set.pop(name, None)
            while remaining > 1e-12 and open_set:
                total_weight = sum(open_set.values())
                if total_weight <= 0.0:
                    break
                saturated = []
                distributed = 0.0
                for name, weight in open_set.items():
                    share = remaining * weight / total_weight
                    headroom = ceiling[name] - rates[name]
                    take = min(share, headroom)
                    rates[name] += take
                    distributed += take
                    if share >= headroom - 1e-12:
                        saturated.append(name)
                remaining -= distributed
                if not saturated:
                    break
                for name in saturated:
                    open_set.pop(name, None)
        # Water-filling leaves float residue of order 1e-13; only count a
        # physically meaningful remainder as dropped load.
        dropped = remaining if remaining > 1e-9 * max(offered_rate, 1.0) else 0.0
        self.total_dropped += dropped
        return Allocation(rates=rates, dropped_rate=dropped)

    def allocate_cloned(
        self,
        offered_rate: float,
        capacity: Mapping[str, float],
        response_time: Mapping[str, float],
        config: CloningConfig,
    ) -> CloneAllocation:
        """Split one tick's offered *request* rate with cloning.

        Dispatches each request to ``config.clones`` backends (first
        response wins, losers cancelled) by offering the inflated work
        rate ``offered_rate * work_multiplier`` to :meth:`allocate`.
        When the cloned work would exceed ``utilization_ceiling`` of the
        active servers' aggregate capacity the tick sheds to plain
        single dispatch instead — cloning never costs throughput.

        The returned per-server ``rates`` are work rates (drive
        utilization/heat as usual); ``dropped_rate`` and the balancer's
        cumulative ``total_offered``/``total_dropped`` counters stay in
        request units so :meth:`drop_fraction` keeps meaning "fraction
        of *requests* lost" with or without cloning.
        """
        multiplier = config.work_multiplier
        cloned = config.clones > 1
        if cloned and offered_rate > 0.0:
            eligible, _ = self._actives()
            total_capacity = 0.0
            for server in eligible:
                limit = capacity.get(server.name, _INF)
                if server.connection_limit is not None:
                    t_resp = max(response_time.get(server.name, 0.0), 1e-6)
                    limit = min(limit, server.connection_limit / t_resp)
                total_capacity += max(limit, 0.0)
            ceiling = config.utilization_ceiling * total_capacity
            if offered_rate * multiplier > ceiling:
                cloned = False  # opportunistic shed: no headroom to clone
        if not cloned:
            inner = self.allocate(offered_rate, capacity, response_time)
            return CloneAllocation(
                rates=inner.rates,
                dropped_rate=inner.dropped_rate,
                latency_scale=1.0,
                cloned=False,
            )
        inner = self.allocate(
            offered_rate * multiplier, capacity, response_time
        )
        # allocate() counted work units; rewind the cumulative counters
        # to request units so drop_fraction() stays comparable.
        dropped = inner.dropped_rate / multiplier
        self.total_offered -= offered_rate * (multiplier - 1.0)
        self.total_dropped -= inner.dropped_rate - dropped
        return CloneAllocation(
            rates=inner.rates,
            dropped_rate=dropped,
            latency_scale=config.latency_scale,
            cloned=True,
        )

    # -- statistics (what admd samples every few seconds) -------------------

    def connection_stats(self) -> Dict[str, float]:
        """Current active-connection counts, as LVS would report them."""
        return {
            name: server.active_connections
            for name, server in self._servers.items()
        }

    def drop_fraction(self) -> float:
        """Cumulative fraction of offered load that was dropped."""
        if self.total_offered <= 0.0:
            return 0.0
        return self.total_dropped / self.total_offered


def allocate_rates(offered_rate: float, weights, ceilings):
    """Vectorized water-filling over a whole machine axis.

    The array form of :meth:`LoadBalancer.allocate` used by the
    flattened datacenter simulation (:mod:`repro.topology.sim`), where
    per-server dict bookkeeping would dominate the tick at 1k-10k
    machines: split ``offered_rate`` proportionally to ``weights``,
    re-offering the excess of servers pinned at their ``ceilings`` until
    everyone is saturated or the load is placed.  Servers with zero (or
    negative) weight receive nothing.  Returns ``(rates, dropped)``
    where ``rates`` is a float array aligned with the inputs.

    The water-filling rounds converge because every round either places
    all remaining load or permanently closes at least one server.
    """
    if offered_rate < 0.0:
        raise ClusterError("offered rate must be non-negative")
    weights = np.asarray(weights, dtype=float)
    ceilings = np.asarray(ceilings, dtype=float)
    rates = np.zeros_like(weights)
    open_mask = weights > 0.0
    remaining = float(offered_rate)
    while remaining > 1e-12 and open_mask.any():
        total_weight = weights[open_mask].sum()
        if total_weight <= 0.0:
            break
        share = np.where(open_mask, remaining * weights / total_weight, 0.0)
        headroom = np.maximum(ceilings - rates, 0.0)
        take = np.minimum(share, headroom)
        rates += take
        remaining -= float(take.sum())
        saturated = open_mask & (share >= headroom - 1e-12)
        if not saturated.any():
            break
        open_mask &= ~saturated
    # Water-filling leaves float residue of order 1e-13; only count a
    # physically meaningful remainder as dropped load.
    dropped = (
        remaining if remaining > 1e-9 * max(offered_rate, 1.0) else 0.0
    )
    return rates, dropped


def allocate_rates_cloned(offered_rate, weights, ceilings, config):
    """Vectorized cloned water-filling over a whole machine axis.

    The array form of :meth:`LoadBalancer.allocate_cloned`, used by
    :class:`repro.topology.sim.ScaleSimulation` at 1k-10k machines:
    offer ``offered_rate * work_multiplier`` through
    :func:`allocate_rates`, shedding to single dispatch when the cloned
    work would exceed ``utilization_ceiling`` of the aggregate ceiling.
    Infinite ceilings mean unbounded capacity, so cloning never sheds.
    Returns ``(rates, dropped, latency_scale, cloned)`` with ``rates``
    in work units and ``dropped`` in request units.
    """
    multiplier = config.work_multiplier
    cloned = config.clones > 1
    if cloned and offered_rate > 0.0:
        ceil_arr = np.asarray(ceilings, dtype=float)
        w_arr = np.asarray(weights, dtype=float)
        total_capacity = float(
            np.maximum(ceil_arr, 0.0)[w_arr > 0.0].sum()
        )
        if offered_rate * multiplier > config.utilization_ceiling * total_capacity:
            cloned = False  # opportunistic shed: no headroom to clone
    if not cloned:
        rates, dropped = allocate_rates(offered_rate, weights, ceilings)
        return rates, dropped, 1.0, False
    rates, dropped = allocate_rates(
        offered_rate * multiplier, weights, ceilings
    )
    return rates, dropped / multiplier, config.latency_scale, True
