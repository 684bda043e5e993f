"""Hot-key skew on the window's one ingest path: parity + bounded load.

The reference observed skew but did not mitigate it ("the largest
function ... places an upper bound on performance", blog/blog.md:84).
Every tumbling/sliding window folds map-side, so each split block acts
as a salt: it hands a hot key's owner at most one partial state per
(block, slice), and the owner merges them with the spec's semilattice
``merge`` — output must be IDENTICAL to the sequential oracle.  (The
symmetric join's salting has its own tests, test_join_salted.py.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import OracleExecutor, StreamEngine, TumblingWindows
from parallel_dataflow_ray.streaming.kernels import KERNELS
from parallel_dataflow_ray.streaming.operators import combine_window_block
from parallel_dataflow_ray.streaming.partitioning import (
    detect_hot_keys, epochs_from_table, partition_ids)
from parallel_dataflow_ray.streaming.watermark import MIN_TS

N = 600
LATENESS_US = 50_000
WIN = TumblingWindows(2_000_000)
P = 4


def _skewed():
    # ~40% of rows land on speaker spk-0000 (the hot-speaker fixture)
    return fixtures.clips_table(N, seed=42, lateness_ms=40, n_speakers=6,
                                skew=0.4)


def _midstream_hot(n: int = 6000) -> pa.Table:
    """First half: uniform over 20 speakers.  Second half: 70% of rows on
    one speaker that was cold before."""
    rng = np.random.default_rng(7)
    half = n // 2
    cold = np.array([f"s{i:02d}" for i in rng.integers(0, 20, half)], dtype=object)
    hot_mask = rng.random(n - half) < 0.7
    late = np.array([f"s{i:02d}" for i in rng.integers(0, 20, n - half)], dtype=object)
    late[hot_mask] = "hotspeaker"
    ts = np.arange(n, dtype=np.int64) * 997  # ~1 ms spacing, monotone
    return pa.table({
        "speaker_id": pa.array(np.concatenate([cold, late])),
        "event_ts": pa.array(ts),
        "offset": pa.array(np.arange(n, dtype=np.int64)),
        "dur_ms": pa.array(np.full(n, 250, dtype=np.int64)),
        "sr_hz": pa.array(np.full(n, 16000, dtype=np.int32)),
    })


def test_detect_hot_keys_finds_the_hot_speaker():
    hot = detect_hot_keys(_skewed(), "speaker_id", threshold_frac=0.15,
                          num_partitions=P)
    assert "spk-0000" in hot
    assert hot["spk-0000"] >= 2


@pytest.mark.parametrize("fixture,hot,block_rows", [
    (_skewed, "spk-0000", 97),
    (_midstream_hot, "hotspeaker", 251),
], ids=["hot40", "midstream70"])
def test_combine_caps_hot_key_partials(fixture, hot, block_rows):
    """Each block hands the hot key's owner exactly one partial per slice
    the key's rows occupy in that block, and no other partition sees
    the key: the hot key's shuffle volume is bounded by blocks × slices,
    not by its row count."""
    spec = KERNELS["clip_stats"]()
    owner = int(partition_ids([hot], P)[0])
    hot_rows = partials_total = 0
    for block in epochs_from_table(fixture(), block_rows):
        payloads = combine_window_block(block, spec, WIN, "event_ts",
                                        MIN_TS, P)
        for p, payload in enumerate(payloads):
            slices = [w for k, w, _ in payload["partials"] if k == hot]
            if p != owner:
                assert not slices
                continue
            assert len(slices) == len(set(slices))
            ts = block["event_ts"].cast(pa.int64()).to_numpy()[
                np.asarray(block["speaker_id"].to_pylist()) == hot]
            assert len(slices) == len(set(ts // WIN.size_us))
            hot_rows += ts.size
            partials_total += len(slices)
    assert hot_rows > 0 and partials_total < hot_rows / 10


def _parity(kernel: str):
    table = _skewed()
    epochs = epochs_from_table(table, 97)
    spec = KERNELS[kernel]()
    kw = {"spec": spec, "assigner": WIN}
    oracle_rows, _ = OracleExecutor("window", dict(kw), LATENESS_US).run(epochs)
    assert detect_hot_keys(table, "speaker_id", num_partitions=P), (
        "fixture must actually be skewed")
    eng = StreamEngine("window", dict(kw), num_partitions=P,
                       allowed_lateness_us=LATENESS_US)
    res = eng.run(epochs, collect=True)
    engine_rows = [r for ep in res["emitted"] for r in ep]
    assert engine_rows == oracle_rows


def test_salted_parity_incremental_kernel():
    _parity("clip_stats")


def test_salted_parity_setunion_kernel():
    _parity("active_versions")


def test_salted_parity_buffered_reverse_kernel():
    # buffered/reverse spec: partials are run buffers, the owner folds
    # the union in full (reverse) event order
    _parity("reverse_live_words")


def test_salted_parity_intersection_kernel():
    _parity("common_words")


def test_salted_parity_kleene_kernel():
    # buffered run automaton: partials are offset-keyed run buffers,
    # the owner folds the union in (event_ts, offset) order
    _parity("codec_kleene")


def test_salted_parity_content_dedup_kernel():
    # fingerprint-keyed MIN-meet: partials merge element-wise, same
    # semilattice argument as first_seen
    _parity("content_dedup")


def test_midstream_hot_key_parity():
    """A key that turns hot mid-stream (70% of the second half) needs no
    detection: the default engine's output, final flush included,
    equals the oracle's."""
    epochs = epochs_from_table(_midstream_hot(), 251)
    kw = {"spec": KERNELS["clip_stats"](), "assigner": TumblingWindows(1_000_000)}
    oracle_rows, om = OracleExecutor("window", dict(kw), 0).run(
        epochs, final_flush=True)
    eng = StreamEngine("window", dict(kw), num_partitions=P,
                       allowed_lateness_us=0)
    res = eng.run(epochs, collect=True, final_flush=True)
    assert [r for ep in res["emitted"] for r in ep] == oracle_rows
    fin = [m for m in res["metrics"] if m["epoch"] == len(epochs)]
    assert sum(m["rows_seen"] for m in fin) == om["rows_seen"]
