"""Property tests for the quarantine store's overflow accounting.

The store keeps a bounded FIFO window but must never lose *count* of
anything: for every interleaving of adds past capacity, the window
holds the newest entries, evictions are explicit (``dropped``), and
``total_quarantined == len(store) + dropped`` is invariant throughout.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quarantine import QuarantineStore

payloads = st.lists(st.binary(min_size=0, max_size=32), min_size=0,
                    max_size=120)
capacities = st.integers(min_value=1, max_value=12)
reasons = st.sampled_from(["crc", "truncated", "semantic"])


@settings(max_examples=60, deadline=None)
@given(items=st.lists(st.tuples(st.binary(max_size=16), reasons),
                      max_size=120),
       capacity=capacities)
def test_overflow_accounting_invariants(items, capacity):
    store = QuarantineStore(capacity=capacity)
    for i, (payload, reason) in enumerate(items):
        store.add(payload, reason)
        # Invariants hold after *every* add, not just at the end.
        assert len(store) <= capacity
        assert store.total_quarantined == i + 1
        assert store.total_quarantined == len(store) + store.dropped
    # The window holds exactly the newest entries, oldest first.
    kept = [e.payload for e in store]
    assert kept == [p for p, _ in items][-min(capacity, len(items)):] \
        if items else kept == []
    # Reason tallies survive eviction.
    assert sum(store.reasons.values()) == len(items)


@settings(max_examples=40, deadline=None)
@given(items=payloads, capacity=capacities)
def test_sequence_numbers_are_stable_across_eviction(items, capacity):
    store = QuarantineStore(capacity=capacity)
    entries = [store.add(p, "crc") for p in items]
    assert [e.seq for e in entries] == list(range(len(items)))
    # Surviving window entries keep their original sequence numbers.
    assert [e.seq for e in store] == \
        list(range(max(0, len(items) - capacity), len(items)))
