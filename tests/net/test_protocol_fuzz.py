"""Fuzzing the wire protocol: mutate, truncate, replay -- never index junk.

Three layers:

* Hypothesis property tests -- random video ids (full multi-byte
  UTF-8), random byte-level mutations and truncations of valid
  bundles, and completely arbitrary byte strings.  The contract under
  test: a damaged bundle always raises ``ValueError`` (never decodes,
  never escapes with a different exception type), and arbitrary bytes
  never crash the decoder with anything but ``ValueError``.
* A deterministic seed-matrix sweep -- the CI fuzz-smoke job sets
  ``FUZZ_SEED`` (one job per seed) and each seed drives a different
  ``numpy`` mutation schedule over a corpus of bundles, so a
  red run reproduces locally with ``FUZZ_SEED=<n> pytest <this file>``.
* A seeded differential sweep (the same ``FUZZ_SEED``): mutated,
  field-rewritten and truncated bundles either raise
  ``ValueError`` or decode to exactly the records of
  :func:`walk_records`, a per-record ``decode_fov`` walk that shares
  no code with the column decoder; a raised bad-record message is the
  walk's too.  Pinned beside it: with several bad records the first
  is named, and within one record its checksum is judged before its
  fields.

Plus the server-level redelivery property: delivering the same bundle
twice must index it exactly once.
"""

import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fov import RepresentativeFoV
from repro.core.server import CloudServer, IngestStatus
from repro.net.protocol import (decode_bundle, decode_bundle_columns,
                                decode_fov, encode_bundle)

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))


def walk_records(payload: bytes):
    """``(video_id, records)`` of a well-framed bundle, read one record
    at a time with ``struct`` and ``decode_fov``: the reference decoder.

    It skips the envelope checks, so it only judges payloads whose
    framing is sound.  A bad record raises ``ValueError`` naming it the
    way the wire protocol does: the first one, checksum before fields.
    """
    _, _, vid_len, count = struct.unpack_from("<4sBHI", payload)
    offset = 19 + vid_len
    video_id = payload[offset - vid_len: offset].decode("utf-8")
    records = []
    for i in range(count):
        rec = payload[offset: offset + 40]
        if payload[offset + 40: offset + 44] != \
                struct.pack("<I", zlib.crc32(rec)):
            raise ValueError(f"record {i} failed its checksum")
        try:
            records.append(decode_fov(rec, video_id))
        except ValueError as exc:
            raise ValueError(f"record {i}: {exc}") from None
        offset += 44
    return video_id, records


def rep(i, vid):
    return RepresentativeFoV(lat=40.0 + i * 1e-3, lng=116.3 - i * 1e-3,
                             theta=(i * 37.0) % 360.0,
                             t_start=float(i), t_end=float(i) + 3.0,
                             video_id=vid, segment_id=i)


def bundle_for(vid, n):
    return encode_bundle(vid, [rep(i, vid) for i in range(n)])


# Full unicode, incl. multi-byte/astral, minus NUL (refused below).
video_ids = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\x00"),
                    max_size=60)

fov_lists = st.lists(
    st.tuples(st.floats(-89.0, 89.0), st.floats(-179.0, 179.0),
              st.floats(0.0, 359.9), st.floats(0.0, 1e5),
              st.floats(0.0, 1e4)),
    max_size=12)


def build(video_id, rows):
    return [RepresentativeFoV(lat=lat, lng=lng, theta=theta, t_start=t0,
                              t_end=t0 + dur, video_id=video_id,
                              segment_id=i)
            for i, (lat, lng, theta, t0, dur) in enumerate(rows)]


@settings(max_examples=80)
@given(video_ids, fov_lists)
def test_roundtrip_any_unicode_video_id(video_id, rows):
    fovs = build(video_id, rows)
    vid, back = decode_bundle(encode_bundle(video_id, fovs))
    assert vid == video_id
    assert [f.key() for f in back] == [f.key() for f in fovs]


@settings(max_examples=40)
@given(video_ids, st.data())
def test_a_video_id_containing_nul_is_refused(video_id, data):
    """The index keeps video ids in a unicode column, which drops
    trailing NULs, so an id with one would come back as another."""
    at = data.draw(st.integers(0, len(video_id)))
    vid = video_id[:at] + "\x00" + video_id[at:]
    with pytest.raises(ValueError, match="NUL"):
        decode_bundle(encode_bundle(vid, [rep(0, vid)]))


@settings(max_examples=120)
@given(video_ids, fov_lists, st.data())
def test_any_mutation_of_a_v2_bundle_raises_valueerror(video_id, rows, data):
    payload = encode_bundle(video_id, build(video_id, rows))
    i = data.draw(st.integers(0, len(payload) - 1))
    xor = data.draw(st.integers(1, 255))
    mutated = bytearray(payload)
    mutated[i] ^= xor
    try:
        decode_bundle(bytes(mutated))
    except ValueError:
        return
    raise AssertionError("mutated bundle decoded instead of raising")


@settings(max_examples=80)
@given(video_ids, fov_lists, st.data())
def test_any_truncation_of_a_v2_bundle_raises_valueerror(video_id, rows,
                                                         data):
    payload = encode_bundle(video_id, build(video_id, rows))
    cut = data.draw(st.integers(0, len(payload) - 1))
    with pytest.raises(ValueError):
        decode_bundle(payload[:cut])


@settings(max_examples=200)
@given(st.binary(max_size=400))
def test_arbitrary_bytes_never_crash_with_anything_but_valueerror(blob):
    try:
        decode_bundle(blob)
    except ValueError:
        pass  # the only legal failure mode


class TestSeedMatrixSweep:
    """The CI fuzz-smoke job's deterministic mutation schedule."""

    CORPUS = [("v", 0), ("camera-01", 5), ("caméra-07", 1),
              ("視频-9", 8), ("video-4", 4), ("video-big", 9)]

    def test_mutation_sweep_is_contained(self):
        rng = np.random.default_rng(FUZZ_SEED)
        checked = 0
        for vid, n in self.CORPUS:
            payload = bundle_for(vid, n)
            for _ in range(120):
                mode = int(rng.integers(0, 3))
                if mode == 0:                       # flip one byte
                    buf = bytearray(payload)
                    buf[int(rng.integers(0, len(buf)))] ^= \
                        int(rng.integers(1, 256))
                    mutated = bytes(buf)
                elif mode == 1:                     # truncate the tail
                    mutated = payload[:int(rng.integers(0, len(payload)))]
                else:                               # append garbage
                    mutated = payload + rng.bytes(int(rng.integers(1, 9)))
                # The checksums and length fields catch *every* mutation.
                with pytest.raises(ValueError):
                    decode_bundle(mutated)
                checked += 1
        assert checked == 120 * len(self.CORPUS)


def reseal(payload: bytes | bytearray, record_starts=()) -> bytes:
    """Re-checksum a tampered bundle: the records starting at
    ``record_starts``, then the bundle, so only later checks fire."""
    buf = bytearray(payload)
    for o in record_starts:
        buf[o + 40: o + 44] = struct.pack("<I", zlib.crc32(buf[o: o + 40]))
    buf[15:19] = struct.pack("<I", zlib.crc32(buf[19:],
                                              zlib.crc32(buf[:15])))
    return bytes(buf)


#: (offset, struct format) of each float field in a 40-byte record, and
#: values that fail its semantic check.
FIELDS = [(0, "<d"), (8, "<d"), (16, "<f"), (20, "<d"), (28, "<d")]
BAD_VALUES = [float("nan"), float("inf"), -float("inf"), 200.0, -400.0,
              1e9, -1e-3]


class TestWalkParity:
    """The column decoder against :func:`walk_records`, byte for byte."""

    CORPUS = [("v", 0), ("camera-01", 5), ("視频-9", 9), ("video-4", 4),
              ("video-big", 9)]

    def test_decode_is_the_walk_or_a_valueerror(self):
        rng = np.random.default_rng(FUZZ_SEED)
        decoded = 0
        for vid, n in self.CORPUS:
            payload = bundle_for(vid, n)
            head = 19 + len(vid.encode("utf-8"))
            for _ in range(150):
                buf = bytearray(payload)
                mode = int(rng.integers(0, 3))
                if mode == 2 and n:                 # rewrite some fields
                    starts = []
                    for _ in range(int(rng.integers(1, 4))):
                        o = head + int(rng.integers(0, n)) * 44
                        at, fmt = FIELDS[int(rng.integers(0, len(FIELDS)))]
                        value = BAD_VALUES[int(rng.integers(0,
                                                            len(BAD_VALUES)))]
                        struct.pack_into(fmt, buf, o + at, value)
                        if rng.random() < 0.8:
                            starts.append(o)
                    mutated = reseal(buf, starts)
                elif mode == 1:                     # truncate the tail
                    mutated = payload[:int(rng.integers(0, len(payload)))]
                else:                               # flip one byte
                    buf[int(rng.integers(0, len(buf)))] ^= \
                        int(rng.integers(1, 256))
                    mutated = bytes(buf)
                try:
                    columns = decode_bundle_columns(mutated)
                except ValueError as exc:
                    if str(exc).startswith("record "):
                        with pytest.raises(ValueError) as walked:
                            walk_records(mutated)
                        assert str(walked.value) == str(exc), (
                            f"seed {FUZZ_SEED}: vid={vid!r}")
                    continue
                assert (columns.video_id, list(columns)) == \
                    walk_records(mutated), f"seed {FUZZ_SEED}: vid={vid!r}"
                decoded += 1
        assert decoded > 0

    def test_the_first_bad_record_is_named(self):
        payload = bytearray(bundle_for("vid-a", 8))
        starts = [len(payload) - (8 - i) * 44 for i in range(8)]
        struct.pack_into("<d", payload, starts[6], 500.0)     # lat
        struct.pack_into("<d", payload, starts[2] + 8, float("nan"))
        bad = reseal(payload, [starts[2], starts[6]])
        with pytest.raises(ValueError) as walked:
            walk_records(bad)
        with pytest.raises(ValueError) as decoded:
            decode_bundle_columns(bad)
        assert str(decoded.value) == str(walked.value) == \
            "record 2: corrupt record: non-finite lng (nan)"

    def test_a_checksum_is_judged_before_the_fields(self):
        payload = bytearray(bundle_for("vid-a", 4))
        starts = [len(payload) - (4 - i) * 44 for i in range(4)]
        for o in (starts[1], starts[3]):
            struct.pack_into("<f", payload, o + 16, 400.0)    # theta
        bad = reseal(payload, [starts[3]])      # record 1 keeps a stale CRC
        with pytest.raises(ValueError) as walked:
            walk_records(bad)
        with pytest.raises(ValueError) as decoded:
            decode_bundle_columns(bad)
        assert str(decoded.value) == str(walked.value) == \
            "record 1 failed its checksum"


class TestServerRedelivery:
    def test_duplicate_redelivery_is_a_noop(self, camera):
        server = CloudServer(camera)
        payload = bundle_for("vid-a", 6)
        first = server.ingest_bundle(payload)
        epoch = server.index.epoch
        second = server.ingest_bundle(payload)
        assert first.status is IngestStatus.ACCEPTED
        assert second.status is IngestStatus.DUPLICATE
        assert second.records_indexed == 0
        assert second.digest == first.digest
        assert server.indexed_count == 6
        assert server.index.epoch == epoch       # no cache invalidation
        assert server.stats.bundles_duplicated == 1

    def test_corrupt_delivery_never_reaches_the_index(self, camera):
        server = CloudServer(camera)
        payload = bytearray(bundle_for("vid-a", 6))
        payload[25] ^= 0xFF
        outcome = server.ingest_bundle(bytes(payload))
        assert outcome.status is IngestStatus.REJECTED
        assert outcome.reason
        assert server.indexed_count == 0
        assert len(server.quarantine) == 1
