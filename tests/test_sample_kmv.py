"""SampleKMV kernel unit properties (engine-level parity rides the
KERNELS sweep in test_streaming_differential.py / test_exactly_once.py):
bottom-k membership is the brute-force k-smallest-hash set, ingestion is
split/order/replay invariant, and the KMV read-off is exact below k and
a sane estimate above it."""

import numpy as np
import pyarrow as pa

from parallel_dataflow_ray.functions.hashing import _stable_token_hashes
from parallel_dataflow_ray.streaming.kernels import SampleKMV


def _ids(n, seed=0):
    rng = np.random.default_rng(seed)
    return [f"clip-{x:08x}" for x in rng.integers(0, 1 << 40, n)]


def _run(ids) -> pa.Table:
    return pa.table({"clip_id": pa.array(list(ids), pa.string())})


def _ingest_all(spec, ids, chunks):
    state = spec.initial_state()
    for part in np.array_split(np.asarray(ids, dtype=object), chunks):
        state = spec.update_table(state, _run(part))
    return state


def test_sample_is_bruteforce_bottom_k():
    spec = SampleKMV()
    ids = list(dict.fromkeys(_ids(3000)))
    state = _ingest_all(spec, ids, 7)
    h = _stable_token_hashes(ids)
    want = sorted(zip((int(x) for x in h), ids))[:spec.K]
    assert state == want


def test_ingest_is_split_order_and_replay_invariant():
    spec = SampleKMV()
    ids = _ids(2000, seed=3)
    a = _ingest_all(spec, ids, 1)
    b = _ingest_all(spec, ids[::-1], 11)
    assert a == b
    # replay: re-ingesting everything cannot move the state
    assert spec.update_table(list(a), _run(ids)) == a
    # merge of overlapping partials == merge of disjoint ones
    mid = len(ids) // 2
    lo = _ingest_all(spec, ids[:mid + 100], 3)
    hi = _ingest_all(spec, ids[mid - 100:], 3)
    assert spec.merge(lo, hi) == a


def test_kmv_exact_below_k_and_estimates_above():
    spec = SampleKMV()
    few = list(dict.fromkeys(_ids(5, seed=1)))
    st = _ingest_all(spec, few * 4, 2)          # dups must not count
    out = spec.finish("k", (0, 1), st)
    assert out["kmv_est"] == len(few)
    assert out["sample_ids"].count(",") == len(few) - 1

    n = 20000
    ids = list(dict.fromkeys(_ids(n, seed=2)))
    st = _ingest_all(spec, ids, 13)
    est = spec.finish("k", (0, 1), st)["kmv_est"]
    # k=8 -> std error ~ 1/sqrt(k-2) ~ 41 %; 3 sigma bound
    assert abs(est - len(ids)) / len(ids) < 1.25
