"""The service simulation: a day in the life of the retrieval system.

Providers start recording sessions at random times, walk routed trips
on the street grid, and upload their descriptor bundle when they stop
(after a modelled uplink delay).  Inquirers arrive as a Poisson
process and query recent activity near a random provider location.
Everything downstream is the *real* system: the streaming segmenter,
the wire protocol, the index, the packed filter/rank engine.

The report aggregates what an operator would dashboard: indexed
segments over time, query latency percentiles, answerable-query
fraction, descriptor traffic, and clock-sync residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.camera import CameraModel
from repro.core.pipeline import ClientPipeline
from repro.core.query import Query
from repro.core.server import CloudServer
from repro.eval.statistics import percentile
from repro.net.clock import DeviceClock, SntpSynchronizer
from repro.sim.events import EventQueue
from repro.traces.citygrid import CityGrid, grid_route_trajectory
from repro.traces.noise import SensorNoiseModel
from repro.traces.scenarios import CITY_ORIGIN
from repro.geo.earth import LocalProjection

__all__ = ["SimulationConfig", "SimulationReport", "ServiceSimulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulated day (defaults: a busy hour)."""

    duration_s: float = 3600.0
    n_providers: int = 15
    recordings_per_provider: float = 2.0     # mean sessions per provider
    query_rate_hz: float = 0.05              # Poisson arrivals
    uplink_delay_s: float = 0.5              # bundle upload latency
    sensor_fps: float = 1.0
    seed: int = 0
    query_radius_m: float = 100.0
    query_window_s: float = 900.0            # inquirers ask about recent past

    def __post_init__(self):
        if self.duration_s <= 0 or self.n_providers < 1:
            raise ValueError("invalid duration or provider count")
        if self.query_rate_hz < 0 or self.uplink_delay_s < 0:
            raise ValueError("rates and delays must be non-negative")


@dataclass
class SimulationReport:
    """Aggregates an operator would plot."""

    recordings_completed: int = 0
    segments_indexed: int = 0
    descriptor_bytes: int = 0
    queries_issued: int = 0
    queries_answered: int = 0
    query_latencies_ms: list[float] = field(default_factory=list)
    index_size_timeline: list[tuple[float, int]] = field(default_factory=list)
    max_clock_error_s: float = 0.0

    @property
    def answered_fraction(self) -> float:
        if self.queries_issued == 0:
            return 0.0
        return self.queries_answered / self.queries_issued

    def latency_percentile(self, q: float) -> float:
        """Query-latency percentile in milliseconds.

        ``q`` is in percent (``50``/``99``/``99.9``); the edge-case
        contract (empty samples, ``q=0``/``q=100``, single sample) is
        the shared :func:`repro.eval.statistics.percentile` helper's,
        which the perf ledger uses too.
        """
        return percentile(self.query_latencies_ms, q)


class ServiceSimulation:
    """Run the event loop; see the module docstring."""

    def __init__(self, config: SimulationConfig | None = None,
                 camera: CameraModel | None = None):
        self.config = config or SimulationConfig()
        self.camera = camera or CameraModel()
        self.rng = np.random.default_rng(self.config.seed)
        self.grid = CityGrid(cols=8, rows=8, block_m=100.0)
        self.projection = LocalProjection(CITY_ORIGIN)
        self.noise = SensorNoiseModel()
        self.server = CloudServer(self.camera)
        self.clients: dict[str, ClientPipeline] = {}
        self.clocks: dict[str, DeviceClock] = {}
        self.sync = SntpSynchronizer(jitter_s=0.0)
        self.queue = EventQueue()
        self.report = SimulationReport()
        self._recent_positions: list[tuple[float, float, float]] = []  # t, x, y

    # -- setup -------------------------------------------------------------

    def _setup(self) -> None:
        cfg = self.config
        for k in range(cfg.n_providers):
            device_id = f"sim-device-{k:03d}"
            client = ClientPipeline(device_id, self.camera)
            self.clients[device_id] = client
            self.server.register_client(client)
            clock = DeviceClock(
                offset_s=float(self.rng.normal(0.0, 5.0)),
                drift_ppm=float(self.rng.uniform(5.0, 40.0)),
            )
            self.clocks[device_id] = clock
            self.sync.synchronize(clock, 0.0)   # boot-time NTP
            n_sessions = 1 + self.rng.poisson(
                max(0.0, cfg.recordings_per_provider - 1.0))
            for _ in range(int(n_sessions)):
                start = float(self.rng.uniform(0.0, cfg.duration_s * 0.8))
                self.queue.schedule(start, "start_recording", device_id)
        # Query arrivals: Poisson process over the whole horizon.
        t = 0.0
        while cfg.query_rate_hz > 0:
            t += float(self.rng.exponential(1.0 / cfg.query_rate_hz))
            if t >= cfg.duration_s:
                break
            self.queue.schedule(t, "query", None)

    # -- event handlers ------------------------------------------------------

    def _handle_start_recording(self, t: float, device_id: str) -> None:
        client = self.clients[device_id]
        if client.recording:
            return   # still busy with the previous session
        route = self.grid.random_route(self.rng)
        speed = float(self.rng.uniform(1.0, 2.0))
        traj = grid_route_trajectory(self.grid, route, speed_mps=speed,
                                     fps=self.config.sensor_fps, t0=t)
        trace = self.noise.apply(traj, CITY_ORIGIN, self.rng,
                                 projection=self.projection)
        clock = self.clocks[device_id]
        self.report.max_clock_error_s = max(
            self.report.max_clock_error_s, clock.error_at(t))
        client.start_recording()
        from repro.core.fov import FoV
        for rec in trace:
            # Records are stamped with the device's corrected clock.
            client.push(FoV(t=clock.corrected_time(rec.t), lat=rec.lat,
                            lng=rec.lng, theta=rec.theta))
        for i in range(0, len(traj), max(1, len(traj) // 8)):
            self._recent_positions.append(
                (float(traj.t[i]), float(traj.xy[i, 0]), float(traj.xy[i, 1])))
        end_t = float(trace.t[-1])
        self.queue.schedule(end_t + self.config.uplink_delay_s,
                            "upload", device_id)

    def _handle_upload(self, t: float, device_id: str) -> None:
        client = self.clients[device_id]
        if not client.recording:
            return
        bundle = client.stop_recording()
        self.server.receive_bundle(bundle.payload, device_id=device_id)
        self.report.recordings_completed += 1
        self.report.segments_indexed = self.server.indexed_count
        self.report.descriptor_bytes += bundle.wire_bytes
        self.report.index_size_timeline.append((t, self.server.indexed_count))

    def _handle_query(self, t: float) -> None:
        self.report.queries_issued += 1
        if not self._recent_positions:
            return
        # Inquirers ask about places with recent activity.
        rt, x, y = self._recent_positions[
            int(self.rng.integers(len(self._recent_positions)))]
        r = float(self.rng.uniform(5.0, self.camera.radius * 0.5))
        phi = float(self.rng.uniform(0.0, 2 * np.pi))
        center = self.projection.to_geo(x + r * np.sin(phi),
                                        y + r * np.cos(phi))
        query = Query(
            t_start=max(0.0, t - self.config.query_window_s), t_end=t,
            center=center, radius=self.config.query_radius_m, top_n=10)
        result = self.server.query(query)
        self.report.query_latencies_ms.append(result.elapsed_s * 1e3)
        if len(result):
            self.report.queries_answered += 1

    # -- main loop ------------------------------------------------------------

    def run(self) -> SimulationReport:
        """Drive the event loop to the horizon; returns the report."""
        self._setup()
        for event in self.queue.drain_until(self.config.duration_s):
            if event.kind == "start_recording":
                self._handle_start_recording(event.time, event.payload)
            elif event.kind == "upload":
                self._handle_upload(event.time, event.payload)
            elif event.kind == "query":
                self._handle_query(event.time)
            else:   # pragma: no cover - defensive
                raise ValueError(f"unknown event kind {event.kind!r}")
        return self.report
