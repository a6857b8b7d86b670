"""A hand-driven :class:`~repro.control.view.MachineStateView` for tests.

:class:`FakeView` lets a test set each machine's sensor readings,
utilizations, power state and daemon liveness directly, and records
every power request, so the Freon roles (tempd, admd, Freon-EC) can be
driven without a simulation.  Weights, caps and connection statistics
live in a real :class:`~repro.cluster.lvs.LoadBalancer`.  Power
switches instantly.
"""

import numpy as np

from repro.cluster.lvs import LoadBalancer
from repro.control.view import POWER_ACTIVE, POWER_OFF


class FakeView:
    def __init__(self, machines=("m1", "m2", "m3", "m4"), off=(),
                 regions=None):
        self.machines = tuple(machines)
        self.balancer = LoadBalancer(list(self.machines))
        #: machine -> {"cpu": C, "disk": C}
        self.temperatures = {
            m: {"cpu": 50.0, "disk": 40.0} for m in self.machines
        }
        #: machine -> {"cpu": u, "disk": u}
        self.utilizations = {
            m: {"cpu": 0.0, "disk": 0.0} for m in self.machines
        }
        #: Machines whose sensor reads fail.
        self.failing = set()
        #: Machines whose tempd is down.
        self.down = set()
        self.power = {
            m: POWER_OFF if m in off else POWER_ACTIVE for m in self.machines
        }
        self.on_requests = []
        self.off_requests = []
        self.regions = regions or {
            m: f"region{i % 2}" for i, m in enumerate(self.machines)
        }
        #: Queued (dropped, duplicated, delay) fates; while any remain,
        #: the view reports an active network fault.
        self.fates = []
        self.reads = 0

    # -- the sensor path ----------------------------------------------------

    def read_temperatures(self, components, mask=None):
        out = {c: np.full(len(self.machines), np.nan) for c in components}
        for i, name in enumerate(self.machines):
            if mask is not None and not mask[i]:
                continue
            self.reads += 1
            if name in self.failing:
                continue
            for c in components:
                out[c][i] = self.temperatures[name][c]
        return out

    def read_utilizations(self, components):
        return {
            c: np.array([self.utilizations[m][c] for m in self.machines])
            for c in components
        }

    # -- LVS ------------------------------------------------------------------

    def weights(self):
        return np.array(
            [self.balancer.server(m).weight for m in self.machines]
        )

    def set_weight(self, index, weight):
        self.balancer.set_weight(self.machines[index], weight)

    def set_connection_cap(self, index, cap):
        self.balancer.set_connection_limit(self.machines[index], cap)

    def connections(self):
        stats = self.balancer.connection_stats()
        return np.array([stats[m] for m in self.machines])

    # -- power, regions, daemons, network ------------------------------------

    def power_states(self):
        return np.array(
            [self.power[m] for m in self.machines], dtype=np.int64
        )

    def power_state(self, index):
        return self.power[self.machines[index]]

    def set_power(self, index, on):
        name = self.machines[index]
        (self.on_requests if on else self.off_requests).append(name)
        self.power[name] = POWER_ACTIVE if on else POWER_OFF

    def active_servers(self):
        return [m for m in self.machines if self.power[m] == POWER_ACTIVE]

    def region_of(self, index):
        return self.regions[self.machines[index]]

    def daemons_up(self):
        return np.array([m not in self.down for m in self.machines])

    def has_network_faults(self):
        return bool(self.fates)

    def datagram_fate(self):
        return self.fates.pop(0)
