"""Flat snapshot codec: round-trip, zero-copy attach, integrity.

The ``FOVPACK1`` buffer is the contract between the code that took a
snapshot and everything that loads one (``.fovpack`` files over mmap,
promoted replica standbys) -- so these tests pin both halves: the
attached columns must be *bit-identical* to the source columns, and
any damaged buffer must be rejected loudly.
"""

import struct
import zlib

import numpy as np
import pytest

from repro import CameraModel
from repro.core.flatsnap import (FLATSNAP_MAGIC, FLATSNAP_VERSION,
                                 load_snapshot_file, pack_snapshot,
                                 unpack_snapshot, write_snapshot_file)
from repro.core.index import FoVIndex, RecordColumns
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine
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
            "segment_ids", "video_ids")


class TestRoundTrip:
    def test_columns_and_epoch_bit_identical(self):
        index, _ = workload()
        columns = index.record_columns()
        attached = unpack_snapshot(pack_snapshot(columns))
        assert isinstance(attached, RecordColumns)
        assert len(attached) == len(columns) == len(index)
        assert attached.epoch == columns.epoch == index.epoch
        for name in _COLUMNS:
            got, want = getattr(attached, name), getattr(columns, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    def test_attach_is_zero_copy_and_read_only(self):
        index, _ = workload(n_records=200, n_queries=1)
        attached = unpack_snapshot(pack_snapshot(index.record_columns()))
        for name in _COLUMNS:
            column = getattr(attached, name)
            # Views alias the buffer (no copy) and are frozen ...
            assert column.base is not None, name
            assert not column.flags.writeable, name
            # ... and no attribute can be rebound.
            with pytest.raises(AttributeError):
                setattr(attached, name, column.copy())
        with pytest.raises(ValueError):
            attached.lat[0] = 0.0
        # Lazy records: materialised per row on access, never stored.
        assert not hasattr(attached, "__dict__")
        assert attached[7] == index.records()[7]
        assert attached[-1] == index.records()[-1]
        assert list(attached) == index.records()

    def test_empty_index_round_trips(self):
        index = FoVIndex.bulk([])
        attached = unpack_snapshot(pack_snapshot(index.record_columns()))
        assert len(attached) == 0 and list(attached) == []
        assert attached.epoch == index.epoch

    def test_buffer_is_header_plus_seven_aligned_sections(self):
        """A 44-byte fixed header and a 7 x 16-byte section table, then
        each column on a 64-byte boundary: 48 B per record plus 4 B per
        video-id character, and nothing else."""
        index, _ = workload(n_records=333, n_queries=1)
        columns = index.record_columns()
        blob = pack_snapshot(columns)
        n, chars = len(columns), columns.video_ids.dtype.itemsize // 4

        def aligned(offset):
            return -(-offset // 64) * 64

        end = 44 + 7 * 16
        for nbytes in [8 * n] * 6 + [4 * chars * n]:
            end = aligned(end) + nbytes
        assert len(blob) == end

    def test_file_write_and_mmap_load(self, tmp_path):
        index, queries = workload(n_records=600, n_queries=8)
        path = tmp_path / "city.fovpack"
        nbytes = write_snapshot_file(path, index.record_columns())
        assert path.stat().st_size == nbytes
        loaded = load_snapshot_file(path)
        assert list(loaded) == index.records()
        # The loaded records, re-indexed, answer like the original.
        engine = RetrievalEngine(index, CAMERA, engine="packed")
        reloaded = RetrievalEngine(FoVIndex.bulk(list(loaded)), CAMERA,
                                   engine="packed")
        for want, got in zip(engine.execute_many(queries),
                             reloaded.execute_many(queries)):
            assert ranking(got) == ranking(want)


class TestIntegrity:
    @pytest.fixture()
    def blob(self):
        index, _ = workload(n_records=300, n_queries=1)
        return pack_snapshot(index.record_columns())

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
        """Versions 1 and 2 stored a cell grid and ``key_rank`` after
        the columns; only the version field tells such a buffer apart,
        so it is refused by that field, never guessed."""
        assert FLATSNAP_VERSION == 3 and FLATSNAP_MAGIC == b"FOVPACK1"
        old = restamp(blob, 1)
        with pytest.raises(ValueError, match="version 1"):
            unpack_snapshot(old)
        # Nothing but the version field differs:
        assert len(unpack_snapshot(restamp(old, FLATSNAP_VERSION))) == 300

    def test_version_2_layout_refused(self, blob):
        with pytest.raises(ValueError, match="version 2"):
            unpack_snapshot(restamp(blob, 2))
