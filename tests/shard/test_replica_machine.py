"""Searched schedules against the replica tier.

A Hypothesis state machine drives a fleet with a :class:`ReplicaSet`
beside a never-failed control fleet through interleaved commit groups,
evictions, standby syncs, and kill + promote of a drawn shard.  The
invariants:

* after every sync, each standby's base + tail records equal its
  primary's ``records()``, in order;
* after every promotion, a fixed probe-query set and each shard's
  ``content_digest()`` equal the control fleet's.

A promotion is drawn only while every standby is current (a sync ran
after the last write): the replica tier promises no more than that.
``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) seeds the search, so a
red run reproduces locally with ``FUZZ_SEED=<n> pytest <this file>``.
"""

from __future__ import annotations

import os

import hypothesis
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, precondition,
                                 rule)

from repro.shard import ReplicaSet

from tests.shard.test_failover import (N_SHARDS, bundles, make_queries,
                                       make_records, make_server, rows,
                                       standby_records)

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))

PROBES = make_queries(6, seed=99)


@hypothesis.seed(FUZZ_SEED)
class ReplicaMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.fleet, self.control = make_server(), make_server()
        self.replicas = ReplicaSet(self.fleet)
        self.groups = 0
        self.current = False        # every standby holds its primary's rows

    @rule(n=st.integers(1, 24), seed=st.integers(0, 2**16))
    def ingest_batch(self, n, seed):
        tag = f"g{self.groups}"
        self.groups += 1
        payloads = bundles(make_records(n, seed, tag=tag), per=8, tag=tag)
        for srv in (self.fleet, self.control):
            srv.ingest_batch(payloads)
        self.current = False

    @rule(cutoff=st.integers(0, 30))
    def evict_older_than(self, cutoff):
        evicted = self.fleet.evict_older_than(float(cutoff))
        assert self.control.evict_older_than(float(cutoff)) == evicted
        if evicted:
            self.current = False

    @rule()
    def sync(self):
        self.replicas.sync()
        for sid in range(N_SHARDS):
            assert (standby_records(self.replicas.replica(sid))
                    == self.fleet.shards[sid].records())
        self.current = True

    @precondition(lambda self: self.current)
    @rule(sid=st.integers(0, N_SHARDS - 1))
    def kill_and_promote(self, sid):
        self.replicas.kill(sid)
        self.replicas.promote(sid)
        for q in PROBES:
            assert rows(self.fleet.query(q)) == rows(self.control.query(q))
        assert ([s.index.content_digest() for s in self.fleet.shards]
                == [s.index.content_digest() for s in self.control.shards])


ReplicaMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestReplicaMachine = ReplicaMachine.TestCase
