"""Flat snapshot codec: round-trip, zero-copy attach, integrity.

The ``FOVPACK1`` buffer is the contract between the code that built a
packed view and everything that serves from it (read-only loaders over
mmap, promoted replica standbys) -- so these tests pin both halves:
the attached view must be *bit-identical* to the source view (columns,
grid, and query answers), and any damaged buffer must be rejected
loudly.
"""

import struct
import zlib

import numpy as np
import pytest

from repro import CameraModel
from repro.core.flatsnap import (FLATSNAP_MAGIC, FLATSNAP_VERSION,
                                 load_snapshot_file, pack_snapshot,
                                 unpack_snapshot, write_snapshot_file)
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine, _batch_execute
from repro.net.clock import default_timer
from repro.traces.dataset import random_representative_fovs

CAMERA = CameraModel(half_angle=30.0, radius=100.0)


def workload(seed=3, n_records=1500, n_queries=24):
    rng = np.random.default_rng(seed)
    reps = random_representative_fovs(n_records, rng)
    queries = []
    for _ in range(n_queries):
        anchor = reps[int(rng.integers(len(reps)))]
        queries.append(Query(
            t_start=max(0.0, anchor.t_start - 300.0),
            t_end=anchor.t_end + 300.0,
            center=anchor.point,
            radius=float(rng.uniform(50.0, 400.0))))
    return FoVIndex.bulk(reps), queries


def restamp(blob, version):
    """``blob`` with its header's version field set to ``version`` and
    the CRC32 recomputed, so only the version can make it fail.

    Header: magic (8 bytes), version u16 at 8, reserved u16 at 10,
    CRC32 u32 at 12 covering every byte except itself.
    """
    buf = bytearray(blob)
    struct.pack_into("<H", buf, 8, version)
    struct.pack_into("<I", buf, 12,
                     zlib.crc32(buf[16:], zlib.crc32(buf[:12])))
    return bytes(buf)


def ranking(result):
    return [(r.fov.key(), r.distance, r.covers, r.score)
            for r in result.ranked]


_COLUMNS = ("lat", "lng", "theta", "t_start", "t_end",
            "segment_ids", "key_rank", "video_ids")
_GRID_ARRAYS = ("cell_offsets", "row_ids", "fused")
_GRID_SCALARS = ("n", "width", "height", "slices", "x0", "y0", "t0",
                 "x1", "y1", "t1", "inv_cw", "inv_ch", "inv_ct", "max_dur")


class TestRoundTrip:
    def test_columns_and_grid_bit_identical(self):
        index, _ = workload()
        view = index.packed_view()
        attached = unpack_snapshot(pack_snapshot(view))
        assert len(attached) == len(view)
        assert attached.epoch == view.epoch
        for name in _COLUMNS:
            assert np.array_equal(getattr(attached, name),
                                  getattr(view, name)), name
        for name in _GRID_ARRAYS:
            assert np.array_equal(getattr(attached.grid, name),
                                  getattr(view.grid, name)), name
        for name in _GRID_SCALARS:
            assert getattr(attached.grid, name) == getattr(view.grid, name)

    def test_query_parity_through_attached_view(self):
        index, queries = workload()
        view = index.packed_view()
        attached = unpack_snapshot(pack_snapshot(view))
        engine = RetrievalEngine(index, CAMERA, engine="packed")
        want = engine.execute_many(queries)
        got = _batch_execute(attached, CAMERA, True, engine.ranker,
                             queries, default_timer)
        for a, b in zip(got, want):
            assert a.candidates == b.candidates
            assert a.after_filter == b.after_filter
            assert ranking(a) == ranking(b)

    def test_attach_is_zero_copy_and_read_only(self):
        index, _ = workload(n_records=200, n_queries=1)
        blob = pack_snapshot(index.packed_view())
        attached = unpack_snapshot(blob)
        # Views alias the buffer (no copy)...
        assert attached.lat.base is not None
        assert attached.grid.fused.base is not None
        # ...and are frozen, as the packed-view contract requires.
        with pytest.raises(ValueError):
            attached.lat[0] = 0.0
        with pytest.raises(ValueError):
            attached.grid.fused[0, 0] = 0.0
        # Lazy records: only materialised on access, never stored.
        rec = attached.records[0]
        assert rec == index.records()[0] or rec in index.records()

    def test_empty_index_round_trips(self):
        index = FoVIndex.bulk([])
        attached = unpack_snapshot(pack_snapshot(index.packed_view()))
        assert len(attached) == 0
        q = Query(t_start=0.0, t_end=1.0,
                  center=workload(n_records=10, n_queries=1)[1][0].center,
                  radius=100.0)
        [res] = _batch_execute(attached, CAMERA, True,
                               RetrievalEngine(index, CAMERA).ranker,
                               [q], default_timer)
        assert res.candidates == 0 and res.ranked == []

    def test_file_write_and_mmap_load(self, tmp_path):
        index, queries = workload(n_records=600, n_queries=8)
        view = index.packed_view()
        path = tmp_path / "city.fovpack"
        nbytes = write_snapshot_file(path, view)
        assert path.stat().st_size == nbytes
        loaded = load_snapshot_file(path)
        assert np.array_equal(loaded.grid.fused, view.grid.fused)
        engine = RetrievalEngine(index, CAMERA, engine="packed")
        for q, want in zip(queries, engine.execute_many(queries)):
            [got] = _batch_execute(loaded, CAMERA, True, engine.ranker,
                                   [q], default_timer)
            assert ranking(got) == ranking(want)


class TestIntegrity:
    @pytest.fixture()
    def blob(self):
        index, _ = workload(n_records=300, n_queries=1)
        return pack_snapshot(index.packed_view())

    def test_bit_flip_fails_crc(self, blob):
        for pos in (100, len(blob) // 2, len(blob) - 1):
            bad = bytearray(blob)
            bad[pos] ^= 0x40
            with pytest.raises(ValueError, match="CRC32"):
                unpack_snapshot(bytes(bad))

    def test_flip_in_length_field_still_raises(self, blob):
        # A flip landing in the header's total-length field surfaces as
        # truncation/garbage rather than a CRC mismatch -- what matters
        # is that every damaged buffer raises ValueError.
        bad = bytearray(blob)
        bad[20] ^= 0x40
        with pytest.raises(ValueError):
            unpack_snapshot(bytes(bad))

    def test_truncation_reported_as_truncation(self, blob):
        with pytest.raises(ValueError, match="truncated"):
            unpack_snapshot(blob[:-7])
        with pytest.raises(ValueError, match="shorter than its header"):
            unpack_snapshot(blob[:16])

    def test_oversized_buffer_refused(self, blob):
        # The CRC covers the declared span only, so bytes past it would
        # pass the checksum; the length check alone must refuse them.
        with pytest.raises(ValueError, match="declares"):
            unpack_snapshot(blob + b"\x00" * 512)

    def test_bad_magic_and_version(self, blob):
        assert blob[:8] == FLATSNAP_MAGIC
        bad = bytearray(blob)
        bad[:8] = b"NOTAPACK"
        with pytest.raises(ValueError, match="magic"):
            unpack_snapshot(bytes(bad))
        bad = bytearray(blob)
        bad[8] = 99                        # version field
        with pytest.raises(ValueError, match="version"):
            unpack_snapshot(bytes(bad))

    def test_version_1_layout_refused(self, blob):
        """Version 1 (time-major cells, ``(n, 8)`` fused block) has the
        same byte count as version 2, so a CRC-clean v1 buffer would
        attach and return wrong candidates if the version went
        unchecked."""
        assert FLATSNAP_VERSION == 2
        old = restamp(blob, 1)
        with pytest.raises(ValueError, match="version 1"):
            unpack_snapshot(old)
        # Nothing but the version field differs:
        assert len(unpack_snapshot(restamp(old, FLATSNAP_VERSION))) == 300
