"""The solver-side sensor service.

"The solver ... runs on a separate machine and receives component
utilizations from a trace file or from the monitoring daemons ...
applications or system software can query the solver for temperatures."

:class:`SensorService` wraps a :class:`~repro.core.solver.Solver` behind
a thread-safe facade with two faces:

* an **in-process** face (:meth:`handle_query`, :meth:`handle_update`)
  used by the simulation harness and most tests;
* a **UDP** face binding a real socket on localhost — the same
  datagrams a remote monitord/sensor-library would send.  One endpoint
  implementation serves it: :class:`AsyncUdpSensorServer` on a running
  asyncio loop (the live service), and :class:`UdpSensorServer`, the
  same endpoint on a private loop thread for blocking callers
  (integration tests and the latency benchmark).

Sensor names resolve through an alias table (``"cpu" -> "CPU"``,
``"disk" -> "Disk Platters"``, ...) so callers can use the short names of
the paper's Figure 3 example.
"""

from __future__ import annotations

import asyncio
import threading
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from ..core.solver import Solver
from ..errors import SensorError, ServeError, UnknownSensorError
from ..telemetry import ensure as _ensure_telemetry
from . import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector


class SensorService:
    """Thread-safe query/update facade over a solver.

    When a :class:`~repro.faults.injector.FaultInjector` is attached,
    every reading served through :meth:`read_temperature` passes through
    its sensor hook (stuck-at / dropout / spike / extra noise);
    :meth:`true_temperature` bypasses faults for instrumentation that
    must observe the physical ground truth.
    """

    def __init__(
        self,
        solver: Solver,
        aliases: Optional[Mapping[str, str]] = None,
        injector: Optional["FaultInjector"] = None,
        telemetry=None,
    ) -> None:
        self._solver = solver
        self._aliases = dict(aliases or {})
        #: Memoized alias resolutions (the alias table is fixed at
        #: construction, so resolution is a pure function of the name).
        self._resolve_cache: Dict[str, str] = {}
        #: (machine, component) -> (temperatures dict, node name) for
        #: :meth:`true_temperature`.  MachineState.temperatures is
        #: mutated in place and never rebound, so caching the dict
        #: object itself is safe and skips the per-read name resolution.
        self._true_cache: Dict[Tuple[str, str], Tuple[Dict[str, float], str]] = {}
        #: machine -> (first, second, entry_a, entry_b) for
        #: :meth:`true_pair`; entries are shared with ``_true_cache``.
        self._pair_cache: Dict[
            str, Tuple[str, str, Tuple[Dict[str, float], str],
                       Tuple[Dict[str, float], str]]
        ] = {}
        self._lock = threading.RLock()
        self.injector = injector
        self.telemetry = _ensure_telemetry(telemetry)
        self._tel_queries = self.telemetry.counter(
            "sensor_queries_total", help="Sensor temperature queries served.",
        )
        self._tel_faulted = self.telemetry.counter(
            "sensor_faulted_reads_total",
            help="Sensor readings altered or dropped by injected faults.",
        )
        self._tel_updates = self.telemetry.counter(
            "sensor_utilization_updates_total",
            help="Monitord utilization updates applied to the solver.",
        )
        self._tel_errors = self.telemetry.counter(
            "sensor_errors_total", help="Malformed or unresolvable queries.",
        )
        #: Counters useful in tests and for ops visibility.
        self.queries_served = 0
        self.updates_applied = 0
        self.errors = 0

    @property
    def solver(self) -> Solver:
        """The wrapped solver (lock externally when stepping it)."""
        return self._solver

    @property
    def lock(self) -> threading.RLock:
        """Lock guarding the solver; hold it while stepping."""
        return self._lock

    def resolve(self, component: str) -> str:
        """Apply the sensor alias table."""
        try:
            return self._resolve_cache[component]
        except KeyError:
            resolved = self._aliases.get(
                component, self._aliases.get(component.lower(), component)
            )
            self._resolve_cache[component] = resolved
            return resolved

    # -- in-process face --------------------------------------------------

    def read_temperature(self, machine: str, component: str) -> float:
        """Resolve aliases and read a temperature from the solver.

        Subject to any active sensor faults; may raise
        :class:`~repro.errors.SensorError` during an injected dropout.
        """
        with self._lock:
            value = self._solver.temperature(machine, self.resolve(component))
            self.queries_served += 1
            self._tel_queries.inc()
            if self.injector is not None:
                try:
                    faulted = self.injector.filter_sensor(machine, component, value)
                except SensorError:
                    self._tel_faulted.inc()  # injected dropout
                    raise
                if faulted != value:
                    self._tel_faulted.inc()
                value = faulted
            return value

    def true_temperature(self, machine: str, component: str) -> float:
        """Read the ground-truth temperature, bypassing injected faults."""
        entry = self._true_cache.get((machine, component))
        if entry is None:
            with self._lock:
                state = self._solver.machine(machine)
                node = self._solver._resolve_node(
                    state, self.resolve(component)
                )
                self._true_cache[(machine, component)] = (
                    state.temperatures, node,
                )
                return state.temperatures[node]
        temperatures, node = entry
        with self._lock:
            return temperatures[node]

    def true_pair(
        self, machine: str, first: str = "cpu", second: str = "disk"
    ) -> Tuple[float, float]:
        """Two ground-truth readings in two cached dict lookups.

        The per-tick recorder reads every machine's CPU and disk
        temperature; this pairs the reads on the cheapest possible
        path.  Unlike the query face it takes no lock: the recorder
        runs on the thread that steps the solver, so no concurrent
        step can tear the pair (other threads only read).
        """
        pair = self._pair_cache.get(machine)
        if pair is None or pair[0] != first or pair[1] != second:
            values = (
                self.true_temperature(machine, first),
                self.true_temperature(machine, second),
            )
            entry_a = self._true_cache.get((machine, first))
            entry_b = self._true_cache.get((machine, second))
            if entry_a is not None and entry_b is not None:
                self._pair_cache[machine] = (first, second, entry_a, entry_b)
            return values
        entry_a = pair[2]
        entry_b = pair[3]
        return entry_a[0][entry_a[1]], entry_b[0][entry_b[1]]

    def apply_utilizations(self, machine: str, utilizations: Mapping[str, float]) -> None:
        """Apply a monitord update to the solver."""
        with self._lock:
            self._solver.set_utilizations(machine, dict(utilizations))
            self.updates_applied += 1
            self._tel_updates.inc()

    def step(self, ticks: int = 1) -> None:
        """Advance the solver under the service lock."""
        with self._lock:
            self._solver.step(ticks)

    # -- datagram face ----------------------------------------------------

    def handle_query(self, data: bytes) -> bytes:
        """Decode a query datagram and encode the reply."""
        try:
            query = protocol.SensorQuery.decode(data)
        except SensorError:
            self.errors += 1
            self._tel_errors.inc()
            raise
        try:
            temperature = self.read_temperature(query.machine, query.component)
            status = protocol.STATUS_OK
        except UnknownSensorError:
            self.errors += 1
            self._tel_errors.inc()
            temperature = float("nan")
            status = protocol.STATUS_UNKNOWN_SENSOR
        return protocol.SensorReply(
            request_id=query.request_id, status=status, temperature=temperature
        ).encode()

    def handle_update(self, data: bytes) -> None:
        """Decode and apply a monitord update datagram.

        The whole update is checked before any of it is applied: an
        unknown machine or component raises
        :class:`~repro.errors.SensorError` and changes nothing.
        """
        update = protocol.UtilizationUpdate.decode(data)
        with self._lock:
            state = self._solver.machines.get(update.machine)
            if state is None:
                raise SensorError(
                    f"update for unknown machine {update.machine!r}"
                )
            unknown = sorted(set(update.utilizations) - set(state.utilizations))
            if unknown:
                raise SensorError(
                    f"update for {update.machine!r} names unknown "
                    f"component(s) {unknown}"
                )
            self.apply_utilizations(update.machine, update.utilizations)




class DatagramEndpoint(asyncio.DatagramProtocol):
    """One UDP endpoint of a wire protocol, on an asyncio event loop.

    The sensor endpoint here and admd's endpoint in
    :mod:`repro.daemons.transport` share everything but the payload:
    binding in :meth:`start` (an ephemeral port by default), the
    actually-bound ``address``/``port``, an idempotent :meth:`stop` that
    releases the socket, and the counts.  A subclass implements
    :meth:`handle`, which returns the reply for an accepted datagram (or
    ``None``) and raises :class:`SensorError` to reject one.
    ``received`` counts accepted datagrams, ``replied`` the replies
    sent, and ``malformed`` the rejected datagrams.

    Lifecycle misuse (double start, start after stop, ``address`` while
    not started) raises :class:`ServeError`.
    """

    #: Names the endpoint in lifecycle errors.
    kind = "datagram"

    def __init__(self, host: str, port: int, tel_received, tel_malformed) -> None:
        self._host = host
        self._port = port
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._stopped = False
        self._tel_received = tel_received
        self._tel_malformed = tel_malformed
        self.received = 0
        self.replied = 0
        self.malformed = 0

    def handle(self, data: bytes) -> Optional[bytes]:
        """Serve one datagram; raise :class:`SensorError` to reject it."""
        raise NotImplementedError

    def connection_made(self, transport) -> None:
        self._transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            reply = self.handle(data)
        except SensorError:
            # Dropped silently, like a real UDP service, but counted.
            self.malformed += 1
            self._tel_malformed.inc()
            return
        self.received += 1
        self._tel_received.inc()
        if reply is not None:
            self.replied += 1
            self._transport.sendto(reply, addr)

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port); the endpoint must be started."""
        if self._transport is None:
            raise ServeError(f"{self.kind} endpoint not started")
        return self._transport.get_extra_info("sockname")[:2]

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ephemeral ``port=0``)."""
        return self.address[1]

    async def start(self) -> "DatagramEndpoint":
        """Bind the socket on the running loop and start serving."""
        if self._transport is not None:
            raise ServeError(f"{self.kind} endpoint already started")
        if self._stopped:
            raise ServeError(f"{self.kind} endpoint already stopped")
        await asyncio.get_running_loop().create_datagram_endpoint(
            lambda: self, local_addr=(self._host, self._port)
        )
        return self

    async def stop(self) -> None:
        """Release the socket.  Idempotent, with or without a start."""
        self._stopped = True
        transport, self._transport = self._transport, None
        if transport is not None:
            # abort() drops unsent replies and closes the socket on the
            # loop's next pass; one yield lets that run, so the port is
            # free again when stop() returns.
            transport.abort()
            await asyncio.sleep(0)

    async def __aenter__(self) -> "DatagramEndpoint":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()


def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
    try:
        loop.run_forever()
    finally:
        # Join the resolver thread a hostname bind starts, so a stopped
        # endpoint leaves no thread behind.
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()


class ThreadedEndpoint:
    """A :class:`DatagramEndpoint` behind a blocking start/stop API.

    Runs the endpoint on one private event-loop thread, for callers
    without an event loop (the Figure 3 sensor library, monitord,
    tests).  :meth:`start` binds the socket; :meth:`stop` releases it
    and joins the thread.  Lifecycle misuse raises :class:`SensorError`.
    Use as a context manager, or call :meth:`start`/:meth:`stop`.
    """

    def __init__(self, endpoint: DatagramEndpoint) -> None:
        self._endpoint = endpoint
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port); the endpoint must be started."""
        if self._thread is None:
            raise SensorError(f"{self._endpoint.kind} endpoint not started")
        return self._endpoint.address

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ephemeral ``port=0``)."""
        return self.address[1]

    @property
    def received(self) -> int:
        """Datagrams accepted so far."""
        return self._endpoint.received

    @property
    def malformed(self) -> int:
        """Datagrams rejected so far."""
        return self._endpoint.malformed

    def start(self) -> "ThreadedEndpoint":
        """Bind the socket and serve it from the loop thread."""
        kind = self._endpoint.kind
        if self._stopped:
            raise SensorError(f"{kind} endpoint already stopped")
        if self._thread is not None:
            raise SensorError(f"{kind} endpoint already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=_run_loop, args=(self._loop,), name=f"{kind}-endpoint",
            daemon=True,
        )
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                self._endpoint.start(), self._loop
            ).result()
        except BaseException:
            self.stop()  # a failed bind leaves no thread behind
            raise
        return self

    def stop(self) -> None:
        """Release the socket and join the loop thread.

        Idempotent, with or without a prior :meth:`start`.  If the
        endpoint's teardown raises, the thread is still stopped and
        joined before the error propagates.
        """
        if self._stopped:
            return
        self._stopped = True
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None
        if thread is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._endpoint.stop(), loop
            ).result()
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join()

    def __enter__(self) -> "ThreadedEndpoint":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class AsyncUdpSensorServer(DatagramEndpoint):
    """The sensor service's UDP endpoint on the running event loop.

    Answers ``SensorQuery`` datagrams with ``SensorReply`` and applies
    ``UtilizationUpdate`` datagrams.  The wrapped
    :class:`SensorService` keeps its internal lock, so one service may
    serve several endpoints and in-process callers at once.

    Use as an async context manager, or call :meth:`start`/:meth:`stop`::

        server = await AsyncUdpSensorServer(service).start()
        host, port = server.address
        ...
        await server.stop()
    """

    kind = "sensor"

    def __init__(
        self,
        service: SensorService,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry=None,
    ) -> None:
        telemetry = _ensure_telemetry(telemetry)
        super().__init__(
            host,
            port,
            telemetry.counter(
                "serve_sensor_datagrams_total",
                help="Sensor datagrams accepted (queries answered, updates "
                     "applied); malformed ones are counted apart.",
            ),
            telemetry.counter(
                "serve_sensor_datagrams_malformed_total",
                help="Sensor datagrams dropped as malformed or unservable.",
            ),
        )
        self.service = service

    def handle(self, data: bytes) -> Optional[bytes]:
        if len(data) == protocol.QUERY_SIZE:
            return self.service.handle_query(data)
        if len(data) == protocol.UPDATE_SIZE:
            self.service.handle_update(data)
            return None
        raise SensorError(f"no sensor message is {len(data)} bytes long")


class UdpSensorServer(ThreadedEndpoint):
    """A localhost UDP endpoint serving sensor queries and updates.

    The blocking face of :class:`AsyncUdpSensorServer`: the same
    endpoint, run on one private event-loop thread.
    """

    def __init__(self, service: SensorService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(AsyncUdpSensorServer(service, host, port))
        self.service = service
