"""Crowd-sourced investigation: find every camera that saw the scene.

The paper opens with the Boston-bombing investigation: thousands of
attendees filmed the area, and the police needed exactly the clips that
covered one spot during one time window.  This example simulates a
crowd of 40 phones recording around a city block, plants an "incident"
at a known place and time, and shows how the content-free system
narrows thousands of seconds of video down to a handful of matched
segments -- without a single frame leaving any phone up front.

Run:  python examples/criminal_investigation.py
"""

import numpy as np

from repro import CameraModel, CloudServer, Query
from repro.core.ranking import diversify_results
from repro.eval.groundtruth import relevant_segments
from repro.net.traffic import TrafficModel, VideoProfile
from repro.traces.dataset import CityDataset
from repro.traces.noise import SensorNoiseModel

INCIDENT_WINDOW = 600.0   # the police care about a 10-minute window


def main() -> None:
    print("Simulating the crowd: 40 phones recording around the block...")
    city = CityDataset(
        n_providers=40,
        seed=13,
        camera=CameraModel(half_angle=30.0, radius=100.0),
        noise=SensorNoiseModel(),   # consumer GPS + compass error
    )

    server = CloudServer(city.camera)
    for rec in city.recordings:
        server.register_client(city.clients[rec.device_id])
        server.receive_bundle(rec.bundle.payload, device_id=rec.device_id)

    total_video_s = city.total_recording_seconds()
    desc_bytes = city.total_descriptor_bytes()
    print(f"  {len(city.recordings)} recordings, "
          f"{total_video_s / 60:.0f} minutes of video total")
    print(f"  descriptor traffic: {desc_bytes:,} bytes "
          f"({server.indexed_count} indexed segments)")

    # --- the incident -----------------------------------------------------
    rng = np.random.default_rng(99)
    incident = city.random_query_point(rng)
    t0, t1 = city.time_span()
    window = (max(t0, (t0 + t1) / 2 - INCIDENT_WINDOW / 2),
              min(t1, (t0 + t1) / 2 + INCIDENT_WINDOW / 2))
    print(f"\nIncident at ({incident.lat:.5f}, {incident.lng:.5f}) "
          f"between t={window[0]:.0f}s and t={window[1]:.0f}s")

    query = Query(t_start=window[0], t_end=window[1], center=incident,
                  radius=100.0, top_n=20)
    result = server.query(query)
    print(f"server answered in {result.elapsed_s * 1e3:.2f} ms: "
          f"{result.candidates} nearby segments, "
          f"{result.after_filter} actually pointing at the scene")

    for rank, row in enumerate(result.ranked, start=1):
        rep = row.fov
        print(f"  #{rank:2d}: {rep.video_id} seg {rep.segment_id} "
              f"[{rep.t_start:7.1f} .. {rep.t_end:7.1f}]s  "
              f"camera at {row.distance:5.1f} m, azimuth {rep.theta:5.1f} deg")

    # --- verify against geometric ground truth ----------------------------
    xy = city.projection.to_local_arrays([incident.lat], [incident.lng])[0]
    truth = relevant_segments(city, xy, window)
    hits = sum(1 for key in result.keys() if key in truth)
    print(f"\nground truth: {len(truth)} segments truly covered the scene; "
          f"the top-{len(result)} list contains {hits} of them")

    # --- collect the evidence ---------------------------------------------
    # Over-fetch 3x the shortlist, then diversify it: an investigator
    # wants distinct viewpoints, not five near-identical clips from the
    # same cluster of phones.  Only the shortlisted segments are pulled
    # from their owning devices.
    wide = server.query(Query(t_start=window[0], t_end=window[1],
                              center=incident, radius=100.0, top_n=15))
    shortlist = diversify_results(wide.ranked, server.camera, top_n=5,
                                  redundancy_weight=0.5)
    evidence = [server.fetch_segment(row.fov) for row in shortlist]
    fetched_s = sum(seg.duration for seg in evidence)
    devices = len({row.fov.video_id for row in shortlist})
    print(f"\ninvestigation: {wide.candidates} candidates -> "
          f"{wide.after_filter} covering -> {len(shortlist)} shortlisted -> "
          f"{len(evidence)} segments collected ({fetched_s:.0f}s of video "
          f"from {devices} devices)")

    model = TrafficModel(VideoProfile(1280, 720))
    moved = model.profile.bytes_for(fetched_s) + desc_bytes
    full = model.profile.bytes_for(total_video_s)
    print(f"network total (descriptors + evidence): {moved / 1e6:.1f} MB "
          f"vs {full / 1e6:,.0f} MB if everyone had uploaded raw video "
          f"({full / moved:,.0f}x saving)")


if __name__ == "__main__":
    main()
