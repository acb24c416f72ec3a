"""The one bundle decoder (``decode_bundle_columns``).

Every check here holds the decoder to a reference it does not share
code with: the records handed to the encoder (with ``theta`` rounded
through float32, as the wire stores it), or a literal ``ValueError``
message naming the bundle's fault and, for a bad record, its index.
"""

import struct
import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.fov import RepresentativeFoV
from repro.net.protocol import (
    BundleColumns,
    decode_bundle,
    decode_bundle_columns,
    encode_bundle,
)


def reps(n, vid="video-1"):
    return [
        RepresentativeFoV(lat=40.0 + i * 1e-4, lng=116.3 - i * 1e-4,
                          theta=(i * 7.31) % 360.0,
                          t_start=float(i), t_end=float(i) + 2.5,
                          video_id=vid, segment_id=i)
        for i in range(n)
    ]


def on_the_wire(fovs):
    """What a bundle of ``fovs`` decodes to: the same records, with
    ``theta`` rounded through the float32 wire field."""
    return [replace(f, theta=float(np.float32(f.theta))) for f in fovs]


def rewrite_v2_crc(payload: bytes) -> bytes:
    """Recompute a tampered v2 bundle's CRC so only deeper checks fire."""
    prefix, body = payload[:15], payload[19:]
    crc = zlib.crc32(body, zlib.crc32(prefix))
    return prefix + struct.pack("<I", crc) + body


class TestDecodeParity:
    @pytest.mark.parametrize("n", [0, 1, 2, 50, 256, 269, 5000])
    def test_matches_scalar_decode(self, n):
        fovs = reps(n, vid="video-xyz")
        payload = encode_bundle("video-xyz", fovs)
        cols = decode_bundle_columns(payload)
        assert isinstance(cols, BundleColumns)
        assert cols.video_id == "video-xyz"
        assert len(cols) == n
        assert list(cols) == on_the_wire(fovs)
        assert decode_bundle(payload) == ("video-xyz", on_the_wire(fovs))

    def test_empty_bundle(self):
        cols = decode_bundle_columns(encode_bundle("solo", []))
        assert len(cols) == 0
        assert list(cols) == []
        assert cols.video_id == "solo"
        assert cols.lat.dtype == np.float64


def _error(payload: bytes) -> str:
    """The decoder's ``ValueError`` text; both views raise the same."""
    with pytest.raises(ValueError) as columns:
        decode_bundle_columns(payload)
    with pytest.raises(ValueError) as records:
        decode_bundle(payload)
    assert str(records.value) == str(columns.value)
    return str(columns.value)


class TestCorruptionParity:
    def test_mid_record_truncation(self):
        payload = encode_bundle("video-1", reps(5))
        # Cut inside record 3's payload: a length check, not a CRC one.
        assert (_error(payload[:-60])
                == f"bundle truncated: got {len(payload) - 60} of "
                   f"{len(payload)} bytes")

    @pytest.mark.parametrize("n", [5, 261])
    def test_single_record_crc_corruption_names_the_record(self, n):
        payload = bytearray(encode_bundle("video-1", reps(n)))
        # Record i occupies the slice [len - (n - i) * 44, ...); flip a
        # byte inside record n-3's 40-byte payload.
        offset = len(payload) - 3 * 44 + 20
        payload[offset] ^= 0xFF
        msg = _error(rewrite_v2_crc(bytes(payload)))
        assert msg == f"record {n - 3} failed its checksum"

    def test_semantic_corruption_names_record_and_field(self):
        payload = bytearray(encode_bundle("video-1", reps(6)))
        # Overwrite record 4 with out-of-range latitude and a *valid*
        # record CRC, so only the semantic check can fire.
        rec = struct.pack("<ddfddI", 200.0, 116.3, 90.0, 0.0, 1.0, 4)
        offset = len(payload) - (6 - 4) * 44
        payload[offset:offset + 40] = rec
        payload[offset + 40:offset + 44] = struct.pack("<I", zlib.crc32(rec))
        msg = _error(rewrite_v2_crc(bytes(payload)))
        assert msg == "record 4: corrupt record: lat 200.0 outside [-90, 90]"

    def test_reversed_interval_names_record_and_field(self):
        # RepresentativeFoV refuses t_end < t_start, but encode_bundle
        # checksums whatever it is given, so the record arrives sealed
        # and only the semantic check can fire.
        fovs = reps(3)
        fovs[1] = SimpleNamespace(lat=40.0, lng=116.3, theta=90.0,
                                  t_start=5.0, t_end=1.0, segment_id=1)
        assert (_error(encode_bundle("video-1", fovs))
                == "record 1: corrupt record: t_end (1.0) before "
                   "t_start (5.0)")

    def test_bundle_crc_corruption(self):
        payload = bytearray(encode_bundle("video-1", reps(3)))
        payload[-1] ^= 0x01
        assert _error(bytes(payload)) == "bundle failed its CRC32 check"

    def test_every_truncation_names_the_cut(self):
        payload = encode_bundle("v", reps(2))
        for cut in range(len(payload)):
            want = ("bundle shorter than its header" if cut < 11 else
                    "bundle truncated inside its header" if cut < 19 else
                    f"bundle truncated: got {cut} of {len(payload)} bytes")
            assert _error(payload[:cut]) == want
