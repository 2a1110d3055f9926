"""Property tests: lineage index invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lineage import (
    NO_MATCH,
    GrowableRidIndex,
    RidArray,
    RidIndex,
    compose,
    invert_rid_array,
    invert_rid_index,
)
from repro.lineage.indexes import bucket_order

group_ids = st.integers(min_value=1, max_value=12).flatmap(
    lambda g: st.tuples(
        st.just(g),
        st.lists(st.integers(min_value=0, max_value=g - 1), min_size=0, max_size=80),
    )
)


@given(group_ids)
@settings(max_examples=120)
def test_from_group_ids_partitions_rows(data):
    g, ids = data
    ids = np.asarray(ids, dtype=np.int64)
    idx = RidIndex.from_group_ids(ids, g) if ids.size else RidIndex.empty(g)
    # Invariant I2: buckets are disjoint and complete.
    all_rids = np.sort(idx.lookup_many(np.arange(g))) if g else np.empty(0)
    assert np.array_equal(all_rids, np.arange(ids.size))
    for key in range(g):
        bucket = idx.lookup(key)
        assert (ids[bucket] == key).all()


@given(group_ids)
@settings(max_examples=120)
def test_inversion_roundtrip(data):
    g, ids = data
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return
    idx = RidIndex.from_group_ids(ids, g)
    inv = invert_rid_index(idx, ids.size)
    # Invariant I1: o in forward(b) iff b in backward(o).
    for key in range(g):
        for rid in idx.lookup(key):
            assert key in inv.lookup(int(rid)).tolist()
    for rid in range(ids.size):
        for key in inv.lookup(rid):
            assert rid in idx.lookup(int(key)).tolist()


@given(
    st.lists(st.integers(min_value=-1, max_value=9), min_size=1, max_size=50)
)
@settings(max_examples=120)
def test_rid_array_inversion_consistency(values):
    arr = RidArray(np.asarray(values, dtype=np.int64))
    inv = invert_rid_array(arr, 10)
    for key, value in enumerate(values):
        if value == NO_MATCH:
            continue
        assert key in inv.lookup(value).tolist()
    total = sum(inv.lookup(k).size for k in range(10))
    assert total == arr.num_edges


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30),
    st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6),
)
@settings(max_examples=120)
def test_compose_equals_pointwise_expansion(na, a_ids, b_vals):
    """compose(a, b) must equal chasing a then b bucket by bucket."""
    a_ids = np.asarray(a_ids, dtype=np.int64) % na  # keep ids in [0, na)
    a = RidIndex.from_group_ids(a_ids, na)  # na keys -> rows of a_ids
    b = RidArray(np.asarray(b_vals, dtype=np.int64))  # 6 keys -> [0, 5)
    # restrict a's values to b's key domain
    if a_ids.size > 0 and a.num_edges:
        a = RidIndex(a.offsets, a.values % 6)
    out = compose(a, b)
    for key in range(na):
        expected = b.lookup_many(a.lookup(key))
        assert np.array_equal(out.lookup(key), expected)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=100),
        ),
        max_size=200,
    )
)
@settings(max_examples=80)
def test_growable_index_equals_dict_model(pairs):
    model = {}
    growable = GrowableRidIndex(8)
    for key, rid in pairs:
        growable.append(key, rid)
        model.setdefault(key, []).append(rid)
    idx = growable.finalize()
    for key in range(8):
        assert idx.lookup(key).tolist() == model.get(key, [])


#: Bucket counts at and around each radix width boundary: one uint8 pass
#: (<= 2^8), one uint16 pass (<= 2^16), two LSD passes (<= 2^32), and the
#: int64 fallback beyond.
BUCKET_COUNTS = (1, 2, 255, 256, 257, 65535, 65536, 65537, 1 << 20, (1 << 32) + 7)


@st.composite
def bucket_ids(draw):
    k = draw(st.sampled_from(BUCKET_COUNTS))
    shape = draw(st.sampled_from(("spread", "one_bucket", "empty")))
    if shape == "empty":
        return k, []
    if shape == "one_bucket":
        bucket = draw(st.integers(min_value=0, max_value=k - 1))
        return k, [bucket] * draw(st.integers(min_value=1, max_value=60))
    # Mix ids near the top of the range (where a narrowing cast would
    # wrap) with small ones, so buckets repeat and ties are common.
    ids = st.one_of(
        st.integers(min_value=0, max_value=k - 1),
        st.integers(min_value=max(0, k - 3), max_value=k - 1),
        st.integers(min_value=0, max_value=min(k - 1, 300)),
    )
    return k, draw(st.lists(ids, max_size=80))


@given(bucket_ids())
@settings(max_examples=200)
def test_bucket_order_is_the_stable_argsort(data):
    k, ids = data
    ids = np.asarray(ids, dtype=np.int64)
    order = bucket_order(ids, k)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(ids, kind="stable"))
