"""Unit tests for index snapshot persistence (the ``.fovpack`` file API)."""

import pytest

from repro.core.flatsnap import (FLATSNAP_MAGIC, load_snapshot_file,
                                 write_snapshot_file)
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.traces.dataset import random_representative_fovs
from repro.traces.scenarios import CITY_ORIGIN


@pytest.fixture
def records(rng):
    return random_representative_fovs(200, rng)


def save_snapshot(path, records):
    return write_snapshot_file(path, FoVIndex.bulk(records).record_columns())


def load_snapshot(path):
    loaded = list(load_snapshot_file(path))
    return FoVIndex.bulk(loaded), loaded


class TestRoundtrip:
    def test_roundtrip_preserves_records(self, tmp_path, records):
        path = tmp_path / "index.fovpack"
        written = save_snapshot(path, records)
        assert written == path.stat().st_size
        index, loaded = load_snapshot(path)
        assert len(index) == len(records)
        assert loaded == records            # payload order, every field

    def test_loaded_index_answers_queries(self, tmp_path, records):
        path = tmp_path / "index.fovpack"
        save_snapshot(path, records)
        loaded_index, _ = load_snapshot(path)
        fresh = FoVIndex()
        fresh.insert_many(records)
        q = Query(t_start=0.0, t_end=86400.0, center=CITY_ORIGIN,
                  radius=2500.0)
        assert sorted(f.key() for f in loaded_index.range_search(q)) == \
            sorted(f.key() for f in fresh.range_search(q))

    def test_empty_snapshot(self, tmp_path):
        path = tmp_path / "empty.fovpack"
        save_snapshot(path, [])
        index, loaded = load_snapshot(path)
        assert len(index) == 0 and loaded == []

    def test_field_fidelity(self, tmp_path, records):
        path = tmp_path / "index.fovpack"
        save_snapshot(path, records[:3])
        _, loaded = load_snapshot(path)
        by_key = {r.key(): r for r in loaded}
        for orig in records[:3]:
            back = by_key[orig.key()]
            assert back.lat == orig.lat
            assert back.t_start == orig.t_start
            assert back.theta == orig.theta     # float64 column: exact


class TestCorruption:
    def test_bad_magic(self, tmp_path, records):
        path = tmp_path / "x.fovpack"
        save_snapshot(path, records)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_snapshot(path)

    def test_flipped_payload_bit_fails_crc(self, tmp_path, records):
        path = tmp_path / "x.fovpack"
        save_snapshot(path, records)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="CRC"):
            load_snapshot(path)

    def test_truncated_file(self, tmp_path, records):
        path = tmp_path / "x.fovpack"
        save_snapshot(path, records)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "x.fovpack"
        path.write_bytes(FLATSNAP_MAGIC[:6])
        with pytest.raises(ValueError):
            load_snapshot(path)
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_trailing_garbage(self, tmp_path, records):
        path = tmp_path / "x.fovpack"
        save_snapshot(path, records[:5])
        blob = path.read_bytes()
        # The CRC covers the declared span only, so appended bytes leave
        # it intact: the declared-length check alone must trip.
        path.write_bytes(blob + b"JUNK")
        with pytest.raises(ValueError, match="declares"):
            load_snapshot(path)
