"""The record the traditional thermal-emergency policy keeps.

Section 5.1's comparison point: "we also ran an experiment assuming the
traditional approach to handling emergencies, i.e. we turned servers off
when the temperature of their CPUs crossed T_r."  The policy itself is
:class:`~repro.control.policies.TraditionalControlPolicy`, which runs on
both simulation stacks; each shutdown it makes is one :class:`Shutdown`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Shutdown:
    """One red-line shutdown, for experiment records."""

    time: float
    machine: str
    component: str
    temperature: float
