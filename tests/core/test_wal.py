"""The append-only write-ahead log (``core/wal.py``).

Pins the entry framing, the group-commit contract, and the failure
taxonomy: torn tails are tolerated (truncated on recovery, skipped on
replay) while mid-file corruption of committed entries always raises
``WalCorruption``.
"""

import os
import struct

import pytest

from repro.core.wal import (
    ENTRY_OVERHEAD,
    KIND_BUNDLE,
    WAL_MAGIC,
    WalCorruption,
    WriteAheadLog,
    replay,
)


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "ingest.wal"


class TestAppendReplay:
    def test_roundtrip_in_order(self, wal_path):
        payloads = [b"alpha", b"", b"\x00" * 100, b"omega"]
        with WriteAheadLog(wal_path) as wal:
            seqs = [wal.append(p) for p in payloads]
            wal.commit()
        assert seqs == [1, 2, 3, 4]
        assert replay(wal_path) == payloads

    def test_entry_overhead_is_exact(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"x" * 10)
            wal.commit()
        assert os.path.getsize(wal_path) == ENTRY_OVERHEAD + 10

    def test_commit_counts_one_sync_per_group(self, wal_path, monkeypatch):
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: fsyncs.append(fd) or real_fsync(fd))
        with WriteAheadLog(wal_path) as wal:
            for _ in range(50):
                wal.append(b"bundle")
            assert fsyncs == []
            wal.commit()
            assert len(fsyncs) == 1
        assert replay(wal_path) == [b"bundle"] * 50

    def test_non_bundle_kinds_are_skipped_by_replay(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"keep")
            wal.append(b"skip", kind=2)
            wal.append(b"keep2")
            wal.commit()
        assert replay(wal_path) == [b"keep", b"keep2"]

    def test_empty_and_missing_files(self, wal_path):
        with pytest.raises(FileNotFoundError):
            replay(wal_path)
        wal_path.write_bytes(b"")
        assert replay(wal_path) == []


class TestRecovery:
    def _committed(self, wal_path, payloads):
        with WriteAheadLog(wal_path) as wal:
            for p in payloads:
                wal.append(p)
            wal.commit()
        return wal_path.read_bytes()

    def test_reopen_continues_sequence(self, wal_path):
        self._committed(wal_path, [b"a", b"b"])
        with WriteAheadLog(wal_path) as wal:
            assert wal.next_seq == 3
            wal.append(b"c")
            wal.commit()
        assert replay(wal_path) == [b"a", b"b", b"c"]

    @pytest.mark.parametrize("torn_bytes", [1, 10, ENTRY_OVERHEAD - 1,
                                            ENTRY_OVERHEAD + 3])
    def test_torn_tail_truncated_on_open(self, wal_path, torn_bytes):
        data = self._committed(wal_path, [b"a", b"bb"])
        # Simulate a crash mid-write: a partial third entry.
        with WriteAheadLog(wal_path) as wal:
            wal.append(b"torn-payload")
            wal.commit()
        torn = wal_path.read_bytes()[:len(data) + torn_bytes]
        wal_path.write_bytes(torn)
        assert replay(wal_path) == [b"a", b"bb"]
        with WriteAheadLog(wal_path) as wal:
            assert wal.next_seq == 3
            wal.append(b"c")
            wal.commit()
        assert os.path.getsize(wal_path) == len(data) + ENTRY_OVERHEAD + 1
        assert replay(wal_path) == [b"a", b"bb", b"c"]

    def test_complete_length_bad_crc_tail_is_torn(self, wal_path):
        data = bytearray(self._committed(wal_path, [b"a", b"bb"]))
        data[-1] ^= 0xFF  # flip the last payload byte of the final entry
        wal_path.write_bytes(bytes(data))
        assert replay(wal_path) == [b"a"]
        with WriteAheadLog(wal_path) as wal:
            assert wal.next_seq == 2

    def test_mid_file_corruption_raises(self, wal_path):
        data = bytearray(self._committed(wal_path, [b"aaaa", b"bb"]))
        data[ENTRY_OVERHEAD + 1] ^= 0xFF  # inside entry 1's payload
        wal_path.write_bytes(bytes(data))
        with pytest.raises(WalCorruption, match="CRC32"):
            replay(wal_path)
        with pytest.raises(WalCorruption):
            WriteAheadLog(wal_path)

    def test_bad_magic_raises(self, wal_path):
        self._committed(wal_path, [b"a"])
        data = bytearray(wal_path.read_bytes())
        data[0:4] = b"JUNK"
        wal_path.write_bytes(bytes(data))
        with pytest.raises(WalCorruption, match="magic"):
            replay(wal_path)

    def test_sequence_regression_raises(self, wal_path):
        # Splice the same committed entry twice: CRCs pass, seq repeats.
        self._committed(wal_path, [b"a"])
        entry = wal_path.read_bytes()
        wal_path.write_bytes(entry + entry)
        with pytest.raises(WalCorruption, match="regressed"):
            replay(wal_path)

    def test_unsupported_version_raises(self, wal_path):
        header = struct.Struct("<4sBBHQI").pack(WAL_MAGIC, 99, KIND_BUNDLE,
                                                0, 1, 0)
        from zlib import crc32
        wal_path.write_bytes(header + struct.pack("<I", crc32(header)))
        with pytest.raises(WalCorruption, match="version"):
            replay(wal_path)
