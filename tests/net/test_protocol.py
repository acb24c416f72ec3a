"""Unit tests for the binary wire format (the checksummed FOV2 bundle)."""

import struct
import zlib
from dataclasses import replace

import pytest

from repro.core.fov import RepresentativeFoV
from repro.net.protocol import (
    BUNDLE_MAGIC_V2,
    FOV_RECORD_SIZE,
    FOV_RECORD_SIZE_V2,
    bundle_size,
    decode_bundle,
    decode_fov,
    encode_bundle,
    encode_fov,
)


def rep(i=0, vid="video-1"):
    return RepresentativeFoV(lat=40.0 + i * 1e-4, lng=116.3, theta=123.45,
                             t_start=float(i), t_end=float(i) + 2.5,
                             video_id=vid, segment_id=i)


class TestRecord:
    def test_fixed_size(self):
        assert len(encode_fov(rep())) == FOV_RECORD_SIZE == 40

    def test_roundtrip(self):
        r = rep(3)
        back = decode_fov(encode_fov(r), video_id=r.video_id)
        assert back.lat == r.lat
        assert back.lng == r.lng
        assert back.t_start == r.t_start
        assert back.t_end == r.t_end
        assert back.segment_id == r.segment_id
        assert back.theta == pytest.approx(r.theta, abs=1e-4)  # float32

    def test_decode_wrong_size_raises(self):
        with pytest.raises(ValueError):
            decode_fov(b"\x00" * 39)


class TestBundle:
    def test_roundtrip(self):
        fovs = [rep(i) for i in range(5)]
        payload = encode_bundle("video-1", fovs)
        vid, back = decode_bundle(payload)
        assert vid == "video-1"
        assert [f.key() for f in back] == [f.key() for f in fovs]

    def test_empty_bundle(self):
        payload = encode_bundle("v", [])
        vid, back = decode_bundle(payload)
        assert vid == "v" and back == []

    def test_size_formula(self):
        fovs = [rep(i) for i in range(7)]
        payload = encode_bundle("video-xyz", fovs)
        assert len(payload) == bundle_size("video-xyz", 7)

    def test_unicode_video_id(self):
        payload = encode_bundle("caméra-07", [rep()])
        vid, _ = decode_bundle(payload)
        assert vid == "caméra-07"

    def test_bad_magic_rejected(self):
        # FOV1, the checksum-less legacy format, is refused like any
        # other magic.
        for magic in (b"XOV2", b"FOV1"):
            payload = bytearray(encode_bundle("v", [rep()]))
            payload[:4] = magic
            with pytest.raises(ValueError, match=f"bad magic {magic!r}"):
                decode_bundle(bytes(payload))

    def test_truncated_rejected(self):
        payload = encode_bundle("v", [rep()])
        with pytest.raises(ValueError):
            decode_bundle(payload[:-1])

    def test_short_header_rejected(self):
        with pytest.raises(ValueError):
            decode_bundle(b"FO")

    def test_bad_version_rejected(self):
        payload = bytearray(encode_bundle("v", [rep()]))
        payload[4] = 9
        with pytest.raises(ValueError):
            decode_bundle(bytes(payload))

    def test_minute_of_video_under_a_kilobyte(self):
        # A minute of capture at a typical segmentation density (one
        # segment every ~3 s) -> ~20 records -> < 1 kB on the wire.
        assert bundle_size("video-1", 20) < 1024


def raw_record(lat=40.0, lng=116.3, theta=90.0, t_start=0.0, t_end=1.0,
               seg_id=0):
    """Hand-pack a 40-byte record, bypassing RepresentativeFoV checks."""
    return struct.pack("<ddfddI", lat, lng, theta, t_start, t_end, seg_id)


def rewrite_v2_crc(payload: bytes) -> bytes:
    """Recompute a tampered v2 bundle's CRC so only deeper checks fire."""
    prefix, body = payload[:15], payload[19:]
    crc = zlib.crc32(body, zlib.crc32(prefix))
    return prefix + struct.pack("<I", crc) + body


class TestBundleV2:
    def test_default_version_is_v2(self):
        payload = encode_bundle("v", [rep()])
        assert payload[:4] == BUNDLE_MAGIC_V2
        assert payload[4] == 2

    def test_v2_size_formula(self):
        vid = "caméra-07"
        payload = encode_bundle(vid, [rep(i) for i in range(3)])
        assert len(payload) == bundle_size(vid, 3)
        assert len(payload) == 19 + len(vid.encode()) + 3 * FOV_RECORD_SIZE_V2

    def test_empty_v2_bundle_roundtrip(self):
        vid, back = decode_bundle(encode_bundle("v", []))
        assert vid == "v" and back == []

    def test_every_single_byte_flip_rejected(self):
        payload = encode_bundle("vid", [rep(0), rep(1)])
        for i in range(len(payload)):
            for xor in (0x01, 0xFF):
                mutated = bytearray(payload)
                mutated[i] ^= xor
                with pytest.raises(ValueError):
                    decode_bundle(bytes(mutated))

    def test_every_truncation_rejected(self):
        payload = encode_bundle("vid", [rep(0)])
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                decode_bundle(payload[:cut])

    def test_extension_rejected(self):
        payload = encode_bundle("vid", [rep(0)])
        with pytest.raises(ValueError, match="trailing"):
            decode_bundle(payload + b"\x00")

    def test_record_checksum_localises_corruption(self):
        # Flip a byte inside record 1 and *repair* the bundle CRC: only
        # the per-record checksum is left to catch it.
        payload = bytearray(encode_bundle("v", [rep(0), rep(1)]))
        rec1_start = 19 + 1 + FOV_RECORD_SIZE_V2
        payload[rec1_start] ^= 0xFF
        repaired = rewrite_v2_crc(bytes(payload))
        with pytest.raises(ValueError, match="record 1"):
            decode_bundle(repaired)

    def test_version_byte_flip_alone_rejected(self):
        v2 = bytearray(encode_bundle("v", [rep()]))
        v2[4] = 1
        with pytest.raises(ValueError, match="unsupported bundle version"):
            decode_bundle(bytes(v2))

    def test_invalid_utf8_video_id_rejected(self):
        # A sealed bundle whose two id bytes are not UTF-8: only the id
        # check is left to catch it.
        payload = bytearray(encode_bundle("ab", []))
        payload[19:21] = b"\xff\xfe"
        with pytest.raises(ValueError, match="UTF-8"):
            decode_bundle(rewrite_v2_crc(bytes(payload)))



class TestWireValidation:
    @pytest.mark.parametrize("kwargs,needle", [
        ({"lat": float("nan")}, "non-finite lat"),
        ({"lng": float("inf")}, "non-finite lng"),
        ({"theta": float("-inf")}, "non-finite theta"),
        ({"t_start": float("nan")}, "non-finite t_start"),
        ({"t_end": float("nan")}, "non-finite t_end"),
        ({"lat": 90.5}, "lat"),
        ({"lat": -91.0}, "lat"),
        ({"lng": 180.5}, "lng"),
        ({"lng": -200.0}, "lng"),
        ({"theta": 360.5}, "theta"),
        ({"theta": -1.0}, "theta"),
        ({"t_start": 5.0, "t_end": 4.0}, "before t_start"),
    ])
    def test_semantic_corruption_rejected(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            decode_fov(raw_record(**kwargs))

    def test_boundary_values_accepted(self):
        # Closed bounds everywhere; theta == 360.0 is legal because the
        # float32 quantisation can round an azimuth up to exactly 360.
        fov = decode_fov(raw_record(lat=-90.0, lng=180.0, theta=360.0,
                                    t_start=3.0, t_end=3.0))
        assert fov.lat == -90.0 and fov.theta == 360.0

    def test_corrupt_record_inside_bundle_names_its_index(self):
        # encode_bundle checksums what it is given, NaN included, so
        # only the semantic check can catch record 1.
        payload = encode_bundle("v", [rep(0, vid="v"),
                                      replace(rep(1, vid="v"),
                                              lat=float("nan"))])
        with pytest.raises(ValueError, match="record 1: .*non-finite lat"):
            decode_bundle(payload)
