"""Oracle-vs-engine differential conformance (SURVEY.md §5, FIXTURES.md F5).

The graft of the reference's `test` binary
(/root/reference/impls/src/bin/test.rs:21-70): the sequential oracle's
output is ground truth; the parallel engine must reproduce it exactly —
for in-order input, out-of-order input under the same watermark, and
for every kernel K1-K4 + the practical aggregates.
"""

from __future__ import annotations

import math
import pickle
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import (
    OracleExecutor, SessionWindows, SlidingWindows, StreamEngine, TumblingWindows,
)
from parallel_dataflow_ray.streaming.kernels import KERNELS
from parallel_dataflow_ray.streaming.operators import (
    SessionAggregateOp, WindowedAggregateOp, _window_runs)
from parallel_dataflow_ray.streaming.partitioning import epochs_from_table
from parallel_dataflow_ray.streaming.watermark import MIN_TS

N = 600
LATENESS_US = 50_000
WIN = TumblingWindows(2_000_000)  # 2 s windows over 10 ms-spaced events
EPOCH_ROWS = 97  # deliberately not a divisor of N


def _clips(ooo: bool) -> pa.Table:
    return fixtures.clips_table(
        N, seed=42, lateness_ms=40 if ooo else 0, n_speakers=7, dup_every=13)


def _run_both(op_kind, op_kwargs, table, lateness=LATENESS_US, P=4):
    epochs = epochs_from_table(table, EPOCH_ROWS)
    oracle_rows, om = OracleExecutor(op_kind, dict(op_kwargs), lateness).run(epochs)
    eng = StreamEngine(op_kind, dict(op_kwargs), num_partitions=P,
                       allowed_lateness_us=lateness)
    res = eng.run(epochs, collect=True)
    engine_rows = [r for ep in res["emitted"] for r in ep]
    return oracle_rows, engine_rows, om, res


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("ooo", [False, True], ids=["inorder", "ooo"])
def test_kernel_parity_tumbling(kernel, ooo):
    spec = KERNELS[kernel]()
    table = _clips(ooo)
    oracle_rows, engine_rows, om, res = _run_both(
        "window", {"spec": spec, "assigner": WIN}, table)
    assert oracle_rows == engine_rows
    assert om["rows_seen"] == N
    # engine-side late counts must sum to the oracle's
    eng_late = {m["partition"]: m["late_rows"] for m in res["metrics"]
                if m["epoch"] == max(x["epoch"] for x in res["metrics"])}
    assert sum(eng_late.values()) == om["late_rows"]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_sliding_window_parity(kernel):
    """EVERY kernel under sliding windows — incl. the buffered CEP
    automata, where "funnel within any covering window" means each
    window folds the union of its slices' rows independently."""
    spec = KERNELS[kernel]()
    win = SlidingWindows(3_000_000, 1_000_000)
    table = _clips(True)
    oracle_rows, engine_rows, _, _ = _run_both(
        "window", {"spec": spec, "assigner": win}, table)
    assert oracle_rows == engine_rows
    assert len(oracle_rows) > 0


def test_sliding_assign_non_divisor():
    """size % slide != 0: ``_window_runs`` must put each row in exactly
    one slice, at ``ts // gcd * gcd``, and the operator must emit every
    covering window of a row from its slices (brute-force enumeration
    as ground truth — the oracle shares this code, so differential
    parity alone cannot catch a dropped window).  All rows under one
    key, through a kernel whose merge mutates its first argument, must
    count each window's rows exactly: a window merged INTO a stored
    slice would leak into the later windows that read that slice."""
    stamps = [0, 1, 4_500_000, 5_999_999, 6_000_000, 123_456_789]
    table = pa.table({"speaker_id": [str(ts) for ts in stamps],
                      "event_ts": pa.array(stamps, pa.int64()),
                      "offset": pa.array(range(len(stamps)), pa.int64()),
                      "dur_ms": [10] * len(stamps),
                      "sr_hz": [8000] * len(stamps)})
    one_key = table.set_column(0, "speaker_id",
                               pa.array(["k"] * len(stamps)))
    spec = KERNELS["clip_stats"]()
    for size, slide in [(5_000_000, 2_000_000), (3_000_000, 2_000_000),
                        (7_000_000, 3_000_000), (4_000_000, 4_000_000)]:
        g = math.gcd(size, slide)
        win = SlidingWindows(size, slide)

        def covering(ts):
            last = (ts // slide) * slide
            return [(s, s + size)
                    for s in range(last - 10 * slide, last + 1, slide)
                    if s <= ts < s + size]

        _, runs, _, kuniq, _ = _window_runs(table, spec, win, "event_ts",
                                            MIN_TS)
        got = [(int(kuniq[kc]), w) for kc, w, s, e in runs]
        assert all(e - s == 1 for _, _, s, e in runs)
        assert sorted(got) == sorted((ts, (ts // g * g, ts // g * g + g))
                                     for ts in stamps), (size, slide)
        op = WindowedAggregateOp(spec, win)
        op.apply(table, MIN_TS)
        emitted: dict = {}
        for r in op.on_watermark(2**62).to_pylist():
            assert r["n_clips"] == 1
            emitted.setdefault(int(r["key"]), []).append(
                (r["window_start"], r["window_end"]))
        for ts in stamps:
            assert sorted(emitted[ts]) == covering(ts), (size, slide, ts)
        assert not op.states
        op = WindowedAggregateOp(KERNELS["quantile_hist"](), win)
        op.apply(one_key, MIN_TS)
        got_n = {(r["window_start"], r["window_end"]): r["n"]
                 for r in op.on_watermark(2**62).to_pylist()}
        assert got_n == Counter(w for ts in stamps for w in covering(ts))


@pytest.mark.parametrize("kernel", sorted(k for k, c in KERNELS.items()
                                          if c().incremental))
def test_merge_contract(kernel):
    """Slicing builds each window as ``merge(initial_state(), slice,
    ...)``, so every incremental kernel's merge must (a) have the
    initial state as identity and (b) leave its second argument — a
    stored slice that later windows still read — unchanged."""
    spec = KERNELS[kernel]()
    table = _clips(True)
    half = table.num_rows // 2
    a = spec.update_table(spec.initial_state(), table.slice(0, half))
    b = spec.update_table(spec.initial_state(), table.slice(half))
    b_bytes = pickle.dumps(b)
    assert pickle.dumps(spec.merge(spec.initial_state(), b)) == b_bytes
    spec.merge(a, b)
    assert pickle.dumps(b) == b_bytes


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_session_window_parity(kernel):
    """EVERY kernel under merged session intervals — buffered specs
    must carry their offset-keyed row buffers through interval merges
    unchanged (the union IS the semilattice combine)."""
    spec = KERNELS[kernel]()
    win = SessionWindows(gap_us=500_000)
    # sessions need gaps: thin the stream so inter-arrival sometimes > gap
    table = _clips(True).filter(
        pa.array((np.arange(N) % 60 < 23)))
    oracle_rows, engine_rows, _, _ = _run_both(
        "session", {"spec": spec, "assigner": win}, table)
    assert oracle_rows == engine_rows
    assert len(oracle_rows) > 0
    _assert_sessions_apart(oracle_rows)


def _assert_sessions_apart(rows: list[dict]) -> None:
    """No two emitted sessions of one key overlap or touch (a later one
    starts after the earlier one's end), for the rows that carry their
    session bounds."""
    by_key: dict = {}
    for r in rows:
        if "key" in r and "window_end" in r:
            by_key.setdefault(r["key"], []).append(
                (r["window_start"], r["window_end"]))
    for ivs in by_key.values():
        ivs.sort()
        for (_, end), (start, _) in zip(ivs, ivs[1:]):
            assert end < start, ivs


def test_buffered_snapshot_holds_run_copies():
    """A buffered kernel keeps COPIES of the columns it reads: after one
    epoch that closes most windows, each kept run holds only
    ``event_ts``, ``offset`` and ``transcript``, and the checkpoint
    payload is smaller than the ``transcript`` column plus the kept
    rows' offsets and timestamps (a buffered slice would pickle its
    parent table's whole buffers, once per open run; an unpruned copy
    would carry the audio payload)."""
    table = _clips(False)
    op = WindowedAggregateOp(KERNELS["reverse_live_words"](),
                             TumblingWindows(1_000_000))
    op.apply(table, MIN_TS)
    max_ts = pa.compute.max(table["event_ts"].cast(pa.int64())).as_py()
    assert op.on_watermark(max_ts // 1_000_000 * 1_000_000)
    runs = [r for buf in op.states.values() for r in buf]
    assert runs
    assert all(sorted(r.column_names) == ["event_ts", "offset", "transcript"]
               for r in runs)
    n_kept = sum(r.num_rows for r in runs)
    bound = table["transcript"].nbytes + n_kept * (
        table["offset"].nbytes + table["event_ts"].nbytes) // table.num_rows
    assert len(op.snapshot()) < bound


@pytest.mark.parametrize("make_op", [
    lambda spec: WindowedAggregateOp(spec, TumblingWindows(100)),
    lambda spec: SessionAggregateOp(spec, SessionWindows(100)),
], ids=["window", "session"])
def test_null_key_is_refused(make_op):
    """A null key fails loudly instead of folding into another key."""
    table = pa.table({"speaker_id": ["a", None],
                      "event_ts": pa.array([0, 1], pa.int64()),
                      "offset": pa.array([0, 1], pa.int64()),
                      "dur_ms": [10, 20], "sr_hz": [8000, 8000]})
    op = make_op(KERNELS["clip_stats"]())
    with pytest.raises(ValueError, match="speaker_id"):
        op.apply(table, MIN_TS)


def test_watermark_gating_k4_emits_only_after_close():
    """CommonWords (∩, ⊤-init) emitted early would be a superset — verify
    nothing emits for a window before the watermark passes its end."""
    spec = KERNELS["common_words"]()
    table = _clips(True)
    epochs = epochs_from_table(table, EPOCH_ROWS)
    eng = StreamEngine("window", {"spec": spec, "assigner": WIN},
                       num_partitions=2, allowed_lateness_us=LATENESS_US)
    res = eng.run(epochs, collect=True)
    for e, rows in enumerate(res["emitted"]):
        wm = res["watermarks"][e]
        for r in rows:
            assert r["window_end"] <= wm


def test_frontier_monotone():
    table = _clips(True)
    epochs = epochs_from_table(table, EPOCH_ROWS)
    eng = StreamEngine("window", {"spec": KERNELS["clip_stats"](),
                                  "assigner": WIN},
                       num_partitions=2, allowed_lateness_us=LATENESS_US)
    res = eng.run(epochs, collect=True)
    wms = res["watermarks"]
    assert all(b >= a for a, b in zip(wms, wms[1:]))


def test_partition_count_invariance():
    """Same rows regardless of P — the across-partitions analog of the
    reference's executor-count invariance."""
    spec_kw = {"spec": KERNELS["active_versions"](), "assigner": WIN}
    table = _clips(True)
    epochs = epochs_from_table(table, EPOCH_ROWS)
    outs = []
    for P in (1, 3, 8):
        eng = StreamEngine("window", dict(spec_kw), num_partitions=P,
                           allowed_lateness_us=LATENESS_US)
        res = eng.run(epochs, collect=True)
        outs.append([r for ep in res["emitted"] for r in ep])
    assert outs[0] == outs[1] == outs[2]


def test_composite_equals_standalone_runs():
    """The defining composite contract: one engine run of clip_profile
    == three standalone runs, column for column (one scan + one
    shuffle buys exactly the same answers)."""
    table = _clips(True)

    def run(kernel):
        eng = StreamEngine("window", {"spec": KERNELS[kernel](),
                                      "assigner": WIN},
                           num_partitions=4, allowed_lateness_us=LATENESS_US)
        res = eng.run(epochs_from_table(table, EPOCH_ROWS), collect=True)
        rows = [r for ep in res["emitted"] for r in ep]
        return {(r.get("key", r.get("speaker_id")),
                 r.get("window_start", r.get("window_start_us"))): r
                for r in rows}

    comp = run("clip_profile")
    for sub in ("clip_stats", "quantile_hist", "top_words"):
        alone = run(sub)
        assert alone, sub
        for k, row in alone.items():
            # composite row must contain every standalone column value
            crow = comp[k]
            for c, v in row.items():
                if c in ("key", "speaker_id", "window_start_us"):
                    continue
                assert crow[c] == v, (sub, k, c)
