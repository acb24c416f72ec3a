"""Hypothesis property: a sharded snapshot round-trips to the bit.

``FOVPACK1`` stores the serving columns as they are (float64 geometry,
fixed-width UCS-4 video ids), so for *any* record set -- arbitrary
float64 orientations, video ids of mixed width including non-ASCII,
duplicate ``(video_id, segment_id)`` keys, shards that hold nothing,
1-4 shards -- ``save_sharded_snapshot`` -> ``load_sharded_snapshot``
must give back a fleet with the same per-shard ``content_digest`` and
the same ``query_many`` answers, whole rows and scores included.  (The
deleted ``FOVSNAP1`` form re-encoded records as wire bundles and
rounded every orientation to float32.)
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.camera import CameraModel
from repro.core.flatsnap import load_snapshot_file
from repro.core.fov import RepresentativeFoV
from repro.core.query import Query
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.shard import (ShardedCloudServer, load_sharded_snapshot,
                         save_sharded_snapshot)

ORIGIN = GeoPoint(lat=40.0, lng=116.3)
PROJ = LocalProjection(ORIGIN)
CAMERA = CameraModel()

# A coarse lattice wider than one 500 m routing cell: positions collide
# (score ties) and small record sets leave whole shards empty.
lattice_m = st.integers(-6, 6).map(lambda k: 211.0 * k)
# Mixed widths force the ``<U`` column to its widest id; NUL is left
# out because a fixed-width column cannot tell it from padding.
video_ids = st.one_of(
    st.sampled_from(["v", "cam-07", "vidéo-é", "视频-三", "🎥"]),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\x00"),
            min_size=1, max_size=24))


@st.composite
def records(draw):
    out = []
    for _ in range(draw(st.integers(0, 30))):
        p = PROJ.to_geo(draw(lattice_m), draw(lattice_m))
        t0 = draw(st.floats(0.0, 3000.0))
        out.append(RepresentativeFoV(
            lat=p.lat, lng=p.lng,
            theta=draw(st.floats(0.0, 360.0, exclude_max=True)),
            t_start=t0, t_end=t0 + draw(st.floats(0.0, 600.0)),
            video_id=draw(video_ids),
            segment_id=draw(st.integers(0, 3))))     # duplicate keys happen
    return out


@st.composite
def queries(draw):
    out = []
    for _ in range(draw(st.integers(1, 5))):
        out.append(Query(
            t_start=0.0, t_end=draw(st.floats(1.0, 4000.0)),
            center=PROJ.to_geo(draw(lattice_m), draw(lattice_m)),
            radius=draw(st.sampled_from([50.0, 300.0, 2000.0])),
            top_n=draw(st.integers(1, 8))))
    return out


def answer(result):
    return (result.candidates, result.after_filter,
            [(r.fov, r.distance, r.covers, r.score) for r in result.ranked])


@settings(max_examples=60, deadline=None)
@given(records(), queries(), st.integers(1, 4), st.integers(0, 3))
def test_save_load_is_bit_identical(recs, qs, n_shards, seed):
    fleet = ShardedCloudServer(CAMERA, n_shards=n_shards, origin=ORIGIN,
                               seed=seed)
    # Two commit groups, so per-shard epochs differ from the reload's.
    fleet.ingest(recs[: len(recs) // 2])
    fleet.ingest(recs[len(recs) // 2:])
    with tempfile.TemporaryDirectory() as td:
        save_sharded_snapshot(td, fleet)
        reloaded = load_sharded_snapshot(td, CAMERA)

        assert len(reloaded.epoch_vector()) == len(fleet.epoch_vector())
        for sid in range(n_shards):
            saved = fleet.shards[sid]
            assert (reloaded.shards[sid].content_digest()
                    == saved.content_digest())
            # each file holds exactly its shard's records, in row order
            columns = load_snapshot_file(Path(td) / f"shard-{sid:03d}.fovpack")
            assert list(columns) == saved.records()
            assert columns.epoch == saved.epoch
        assert ([answer(r) for r in reloaded.query_many(qs)]
                == [answer(r) for r in fleet.query_many(qs)])
