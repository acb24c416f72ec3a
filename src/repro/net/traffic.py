"""Traffic accounting: descriptor upload vs raw-video upload.

The paper's claim: "the networking traffic between the client and the
server is negligible".  The model compares three upload strategies for
the same recording:

* **content-free** (this system): one bundle of 40-byte representative
  FoVs per recording (44 B each on the checksummed v2 wire, see
  ``docs/PROTOCOL.md``), plus on-demand transfer of only the matched
  segments;
* **data-centric** baseline: the whole encoded video goes up front;
* **query-centric** baseline: the video stays local, but each query
  ships the matched segments (same on-demand term without the bundle).

Video bytes follow a simple bitrate model (H.264-ish kbps per
resolution tier), which is all the comparison needs: the gap is orders
of magnitude regardless of codec constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.protocol import bundle_size

__all__ = ["VideoProfile", "TrafficReport", "TrafficModel", "BITRATE_PRESETS_KBPS"]

#: Typical H.264 bitrates by resolution tier (kilobits per second).
BITRATE_PRESETS_KBPS = {
    (320, 240): 500.0,
    (640, 480): 1_500.0,
    (1280, 720): 4_000.0,
    (1920, 1080): 8_000.0,
}


@dataclass(frozen=True, slots=True)
class VideoProfile:
    """Encoding profile of a recording."""

    width: int = 1280
    height: int = 720
    fps: float = 30.0
    bitrate_kbps: float | None = None

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.fps <= 0:
            raise ValueError("width, height and fps must be positive")

    def resolved_bitrate_kbps(self) -> float:
        """Effective bitrate: explicit value, preset, or pixel-scaled."""
        if self.bitrate_kbps is not None:
            return self.bitrate_kbps
        try:
            return BITRATE_PRESETS_KBPS[(self.width, self.height)]
        except KeyError:
            # Scale the 720p preset by pixel count.
            ref = BITRATE_PRESETS_KBPS[(1280, 720)]
            return ref * (self.width * self.height) / (1280 * 720)

    def bytes_for(self, duration_s: float) -> float:
        """Encoded size of ``duration_s`` seconds of video, bytes."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        return self.resolved_bitrate_kbps() * 1000.0 / 8.0 * duration_s


@dataclass(frozen=True)
class TrafficReport:
    """Byte totals for one recording under the three strategies."""

    descriptor_bytes: int
    matched_segment_bytes: float
    full_video_bytes: float

    @property
    def content_free_total(self) -> float:
        return self.descriptor_bytes + self.matched_segment_bytes

    @property
    def savings_ratio(self) -> float:
        """full-upload bytes / content-free bytes (higher is better)."""
        total = self.content_free_total
        if total == 0:
            return float("inf")
        return self.full_video_bytes / total


class TrafficModel:
    """Accounts traffic for recordings segmented by the client pipeline."""

    def __init__(self, profile: VideoProfile | None = None):
        self.profile = profile or VideoProfile()

    def descriptor_upload_bytes(self, video_id: str, n_segments: int) -> int:
        """Wire bytes of the representative-FoV bundle for one recording,
        in the protocol's default (checksummed v2) format."""
        return bundle_size(video_id, n_segments)

    def report(self, video_id: str, n_segments: int, duration_s: float,
               matched_durations_s: list[float] | None = None) -> TrafficReport:
        """Compare strategies for one recording.

        Parameters
        ----------
        video_id : str
        n_segments : int
            Segments produced by Algorithm 1.
        duration_s : float
            Total recording length.
        matched_durations_s : list of float, optional
            Durations of the segments actually requested by queries
            (the only video bytes the content-free system ever moves).
        """
        matched = sum(matched_durations_s or [])
        if matched > duration_s + 1e-9:
            raise ValueError("matched segment time exceeds the recording length")
        return TrafficReport(
            descriptor_bytes=self.descriptor_upload_bytes(video_id, n_segments),
            matched_segment_bytes=self.profile.bytes_for(matched),
            full_video_bytes=self.profile.bytes_for(duration_s),
        )
