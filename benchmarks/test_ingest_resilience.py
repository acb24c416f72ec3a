"""Ingest-path resilience -- what the v2 wire hardening costs and buys.

The hardened ingest path (``docs/PROTOCOL.md``) adds per-record and
per-bundle CRC32s, semantic validation, content-digest dedup, and a
retrying uploader over a fault-injected channel.  This benchmark pins
the cost side of that trade on a city-scale corpus (400 bundles of 50
records):

* **codec cost** -- FOV2 encode/decode throughput, checksums included
  (MB/s);
* **server ingest** -- bundles/s through ``ingest_bundle`` on a clean
  transport, duplicate redelivery served from the digest set;
* **faulty convergence** -- the full retry loop over a 10% drop / 10%
  duplicate / 5% corrupt channel: attempts per bundle and the parity
  guarantee that makes the overhead worth paying;
* **commit-group ingest** -- ``ingest_batch`` with vectorized decode
  and one epoch bump per group, with a bit-identical content digest.
  Both it and the per-bundle path are gated at an absolute floor (the
  batched rate of the eager-R-tree index): since ``insert_many`` is an
  O(batch) column append neither path pays a tree descent, so the old
  ">= 10x the per-bundle path" ratio has no premise left;
* **WAL durability** -- the batched path with an fsynced write-ahead
  log in front, plus a replay that reconverges from the log alone;
* **back-pressure** -- a saturated admission queue shedding the tail
  of an oversized group.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np
import pytest

from repro.core.server import CloudServer
from repro.eval.harness import Table
from repro.net.channel import FaultProfile, FaultyChannel, RetryPolicy
from repro.net.protocol import decode_bundle, encode_bundle
from repro.traces.dataset import random_representative_fovs

N_BUNDLES = 400
RECORDS_PER_BUNDLE = 50


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(2015)
    reps = random_representative_fovs(N_BUNDLES * RECORDS_PER_BUNDLE, rng)
    groups = defaultdict(list)
    for i, rep in enumerate(reps):
        vid = f"video-{i % N_BUNDLES:04d}"
        groups[vid].append(rep)
    return dict(groups)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


GROUP = 200     # commit-group size for the batched sections
#: Floor for the per-bundle and the batched ingest path alike, bundles/s
#: (what the batched path reached while every record still descended
#: the R-tree: 1921 bundles/s).
MIN_BUNDLES_PER_S = 1_900.0


def test_ingest_resilience(corpus, camera, show, tmp_path):
    # -- codec: checksummed encode and decode --------------------------
    v2, t_enc2 = _timed(lambda: [encode_bundle(vid, fovs)
                                 for vid, fovs in corpus.items()])
    _, t_dec2 = _timed(lambda: [decode_bundle(p) for p in v2])
    mb2 = sum(map(len, v2)) / 1e6

    # -- clean-transport server ingest -------------------------------
    server = CloudServer(camera)
    _, t_ingest = _timed(lambda: [server.ingest_bundle(p) for p in v2])
    assert server.indexed_count == N_BUNDLES * RECORDS_PER_BUNDLE
    _, t_dedup = _timed(lambda: [server.ingest_bundle(p) for p in v2])
    assert server.stats.bundles_duplicated == N_BUNDLES

    # -- faulty channel with retries ---------------------------------
    faulty = CloudServer(camera)
    channel = FaultyChannel(FaultProfile(drop_rate=0.10, duplicate_rate=0.10,
                                         corrupt_rate=0.05), seed=0)
    uploader = faulty.make_uploader(channel,
                                    policy=RetryPolicy(max_attempts=40))
    t0 = time.perf_counter()
    receipts = [uploader.upload(p) for p in v2]
    t_faulty = time.perf_counter() - t0
    assert all(r.accepted for r in receipts)
    assert faulty.indexed_count == server.indexed_count
    assert faulty.stats.bundles_rejected == channel.stats.corrupted

    # -- commit-group ingest: digest parity + the throughput floor ----
    def groups(payloads):
        return [payloads[i:i + GROUP]
                for i in range(0, len(payloads), GROUP)]

    batched = CloudServer(camera)
    t0 = time.perf_counter()
    for group in groups(v2):
        batched.ingest_batch(group)
    t_batch = time.perf_counter() - t0
    assert batched.index.content_digest() == server.index.content_digest()
    for path, seconds in (("per-bundle", t_ingest), ("batched", t_batch)):
        assert N_BUNDLES / seconds >= MIN_BUNDLES_PER_S, (
            f"ingest gate: {path} path ran {N_BUNDLES / seconds:.0f} "
            f"bundles/s, floor is {MIN_BUNDLES_PER_S:.0f}")

    # -- WAL-durable batched ingest + replay --------------------------
    from repro.core.wal import WriteAheadLog

    wal = WriteAheadLog(tmp_path / "bench.wal")
    durable = CloudServer(camera, wal=wal)
    t0 = time.perf_counter()
    for group in groups(v2):
        durable.ingest_batch(group)
    t_wal = time.perf_counter() - t0
    wal.close()
    assert durable.index.content_digest() == server.index.content_digest()
    recovered = CloudServer(camera)
    _, t_replay = _timed(recovered.replay_wal, wal.path)
    assert recovered.index.content_digest() == server.index.content_digest()

    # -- back-pressure: shed the tail of an oversized group -----------
    throttled = CloudServer(camera, admission_capacity=GROUP)
    outcomes = throttled.ingest_batch(v2[:2 * GROUP])
    n_shed = sum(o.status.value == "shed" for o in outcomes)
    assert n_shed == GROUP

    table = Table(
        f"Ingest resilience -- {N_BUNDLES} bundles x {RECORDS_PER_BUNDLE} "
        f"records",
        ["path", "time (ms)", "throughput"])
    table.add("encode v2 (checksummed)", round(t_enc2 * 1e3, 1),
              f"{mb2 / t_enc2:.0f} MB/s")
    table.add("decode v2", round(t_dec2 * 1e3, 1),
              f"{mb2 / t_dec2:.0f} MB/s")
    table.add("server ingest (clean)", round(t_ingest * 1e3, 1),
              f"{N_BUNDLES / t_ingest:.0f} bundles/s")
    table.add("duplicate redelivery", round(t_dedup * 1e3, 1),
              f"{N_BUNDLES / t_dedup:.0f} bundles/s")
    table.add("faulty upload w/ retries", round(t_faulty * 1e3, 1),
              f"{N_BUNDLES / t_faulty:.0f} bundles/s")
    table.add(f"commit groups of {GROUP}", round(t_batch * 1e3, 1),
              f"{N_BUNDLES / t_batch:.0f} bundles/s")
    table.add("commit groups + WAL fsync", round(t_wal * 1e3, 1),
              f"{N_BUNDLES / t_wal:.0f} bundles/s")
    table.add("WAL replay (recovery)", round(t_replay * 1e3, 1),
              f"{N_BUNDLES / t_replay:.0f} bundles/s")
    show(table)
    show(f"batched vs per-bundle ingest: {t_ingest / t_batch:.1f}x "
         f"(gate: both >= {MIN_BUNDLES_PER_S:.0f} bundles/s), digest "
         f"bit-identical; WAL adds "
         f"{durable.stats.wal_syncs} fsyncs; back-pressure shed {n_shed} of "
         f"{2 * GROUP} at capacity {GROUP}")
    show(f"faulty run: {uploader.stats.attempts} attempts for {N_BUNDLES} "
         f"bundles ({uploader.stats.retries} retries), "
         f"{channel.stats.corrupted} corrupt copies all quarantined")

