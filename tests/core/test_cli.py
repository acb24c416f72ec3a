"""Unit tests for the command-line front-end."""

import json

import pytest

from repro.cli import main
from repro.core.camera import CameraModel
from repro.core.flatsnap import load_snapshot_file
from repro.core.index import FoVIndex
from repro.core.oracle import answer
from repro.core.query import Query
from repro.geo.coords import GeoPoint
from repro.net.jsonio import result_to_dict
from repro.video import VideoQuery, retrieve_videos


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "city.fov"
    rc = main(["generate", "--providers", "4", "--seed", "7",
               "--out", str(path)])
    assert rc == 0
    return path


class TestGenerate:
    def test_creates_snapshot(self, tmp_path, capsys):
        path = tmp_path / "fresh.fov"
        assert main(["generate", "--providers", "3", "--seed", "1",
                     "--out", str(path)]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "segments" in out

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.fov"
        b = tmp_path / "b.fov"
        main(["generate", "--providers", "3", "--seed", "5", "--out", str(a)])
        main(["generate", "--providers", "3", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestInspect:
    def test_summary(self, snapshot, capsys):
        assert main(["inspect", "--snapshot", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "records:" in out
        assert "R-tree height" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        rc = main(["inspect", "--snapshot", str(tmp_path / "nope.fov")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_file_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fov"
        bad.write_bytes(b"definitely not a snapshot")
        assert main(["inspect", "--snapshot", str(bad)]) == 2


class TestQuery:
    def test_query_runs(self, snapshot, capsys):
        # Inspect to find a plausible area, then query the city origin.
        rc = main(["query", "--snapshot", str(snapshot),
                   "--lat", "40.0046", "--lng", "116.3284",
                   "--t0", "0", "--t1", "5000", "--radius", "300",
                   "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "candidates" in out

    def test_packed_engine_matches_dynamic(self, snapshot, capsys):
        # The CLI serves packed; the reference is the oracle (the old
        # dynamic engine's path) run in-process over the same snapshot.
        assert main(["query", "--snapshot", str(snapshot),
                     "--lat", "40.0046", "--lng", "116.3284",
                     "--t0", "0", "--t1", "5000", "--radius", "300",
                     "--top", "5", "--json"]) == 0
        served = json.loads(capsys.readouterr().out)
        query = Query(t_start=0.0, t_end=5000.0,
                      center=GeoPoint(40.0046, 116.3284), radius=300.0,
                      top_n=5)
        reference = answer(FoVIndex.bulk(load_snapshot_file(
            str(snapshot))), query, CameraModel())
        assert reference.ranked
        want = result_to_dict(reference)
        # Identical rankings; only the reported latency may differ.
        assert served["results"] == want["results"]

    def test_invalid_radius_reports_error(self, snapshot, capsys):
        rc = main(["query", "--snapshot", str(snapshot),
                   "--lat", "40.0", "--lng", "116.3",
                   "--t0", "0", "--t1", "10", "--radius", "-5"])
        assert rc == 2


class TestVideoQuery:
    def test_text_report(self, snapshot, capsys):
        rc = main(["video-query", "--snapshot", str(snapshot),
                   "--video-id", "device-000-video-0",
                   "--radius", "200", "--threshold", "0.1", "--poi", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "query video device-000-video-0" in out
        assert "candidate videos" in out

    def test_engines_and_shards_agree(self, snapshot, capsys):
        def run(extra):
            rc = main(["video-query", "--snapshot", str(snapshot),
                       "--video-id", "device-002-video-0",
                       "--radius", "200", "--threshold", "0.1",
                       "--json"] + extra)
            assert rc == 0
            return json.loads(capsys.readouterr().out)["ranked"]

        # The CLI serves packed; the reference is the oracle over the
        # same snapshot.  (Video 002 is one whose ranking is not empty.)
        records = list(load_snapshot_file(str(snapshot)))
        segs = sorted((r for r in records
                       if r.video_id == "device-002-video-0"),
                      key=lambda r: r.segment_id)
        index, camera = FoVIndex.bulk(records), CameraModel()
        reference = retrieve_videos(VideoQuery(
            segments=tuple(segs),
            t_start=min(r.t_start for r in records),
            t_end=max(r.t_end for r in records),
            radius=200.0, top_k=5, sim_threshold=0.1,
            exclude=frozenset({"device-002-video-0"})),
            lambda qs: [answer(index, q, camera) for q in qs], camera)
        base = json.loads(json.dumps(
            [match._asdict() for match in reference.ranked]))
        assert base
        assert run([]) == base
        assert run(["--shards", "3"]) == base

    def test_dtw_scorer_and_trace(self, snapshot, capsys):
        rc = main(["video-query", "--snapshot", str(snapshot),
                   "--video-id", "device-002-video-0",
                   "--scorer", "dtw", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "video.query" in out  # span tree printed

    def test_unknown_video_id_is_an_error(self, snapshot, capsys):
        rc = main(["video-query", "--snapshot", str(snapshot),
                   "--video-id", "nope"])
        assert rc == 2
        assert "no segments" in capsys.readouterr().err


class TestNearest:
    def test_nearest_lists_k(self, snapshot, capsys):
        rc = main(["nearest", "--snapshot", str(snapshot),
                   "--lat", "40.0046", "--lng", "116.3284",
                   "--t", "1000", "--k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("#") == 3

    def test_time_weight_accepted(self, snapshot):
        assert main(["nearest", "--snapshot", str(snapshot),
                     "--lat", "40.0046", "--lng", "116.3284",
                     "--t", "1000", "--k", "2",
                     "--time-weight", "1.5"]) == 0


class TestJsonOutput:
    def test_query_json(self, snapshot, capsys):
        import json
        rc = main(["query", "--snapshot", str(snapshot),
                   "--lat", "40.0046", "--lng", "116.3284",
                   "--t0", "0", "--t1", "5000", "--radius", "300",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "results" in payload and "candidates" in payload
        assert payload["query"]["radius"] == 300.0


class TestCoverage:
    def test_coverage_summary(self, snapshot, capsys):
        rc = main(["coverage", "--snapshot", str(snapshot), "--cell", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "covered:" in out and "hotspot" in out

    def test_coverage_empty_snapshot(self, tmp_path, capsys):
        from repro.core.flatsnap import write_snapshot_file
        from repro.core.index import FoVIndex
        path = tmp_path / "empty.fov"
        write_snapshot_file(path, FoVIndex().record_columns())
        assert main(["coverage", "--snapshot", str(path)]) == 0
        assert "empty" in capsys.readouterr().out


class TestPack:
    def test_pack_writes_attachable_fovpack(self, snapshot, capsys):
        """There is no pack step: what ``generate`` writes *is* the flat
        ``FOVPACK1`` snapshot, attachable zero-copy as it stands."""
        from repro.core.flatsnap import FLATSNAP_MAGIC, load_snapshot_file
        from repro.traces.dataset import CityDataset
        assert snapshot.read_bytes()[:8] == FLATSNAP_MAGIC
        attached = load_snapshot_file(snapshot)
        reps = CityDataset(n_providers=4, seed=7).all_representatives()
        assert len(attached) == len(reps)
        assert list(attached) == reps               # float64, exact
        assert not attached.lat.flags.writeable
        with pytest.raises(SystemExit):             # the subcommand is gone
            main(["pack", "--snapshot", str(snapshot)])
        capsys.readouterr()


class TestIngestBatchFlags:
    def test_batched_wal_ingest_converges(self, tmp_path, capsys):
        import json
        wal = tmp_path / "ingest.wal"
        rc = main(["ingest", "--providers", "6", "--seed", "3",
                   "--drop", "0.1", "--corrupt", "0.05",
                   "--batch", "4", "--wal", str(wal),
                   "--admission-capacity", "16", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["batch"] == 4
        assert report["all_bundles_delivered"] is True
        assert report["parity_with_lossless"] is True
        assert report["wal"]["appends"] == 6
        assert report["wal"]["syncs"] >= 1
        assert wal.exists()
        assert report["shed"] == 0

    def test_batched_sharded_ingest_converges(self, capsys):
        import json
        rc = main(["ingest", "--providers", "6", "--seed", "2",
                   "--shards", "3", "--batch", "3", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parity_with_lossless"] is True
        assert report["shards"] == 3
