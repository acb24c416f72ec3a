"""Discrete-event simulation of the whole crowd-sourced service.

The unit tests exercise components and the benchmarks replay the
paper's figures; this package answers the operational question a
deployment would ask: *what does the system look like over a day of
concurrent providers and inquirers?*  A single-threaded event loop
drives recording sessions, bundle uploads (with modelled network
delay), Poisson query arrivals and periodic clock resynchronisation,
against the real server/index/pipeline code -- no mocks.
"""

from repro.sim.cityload import zipf_weights
from repro.sim.events import Event, EventQueue
from repro.sim.simulation import ServiceSimulation, SimulationConfig, SimulationReport

__all__ = [
    "Event",
    "EventQueue",
    "ServiceSimulation",
    "SimulationConfig",
    "SimulationReport",
    "zipf_weights",
]
