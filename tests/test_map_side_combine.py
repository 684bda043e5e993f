"""Map-side combine parity (shuffle ships partials, not payload rows).

Every tumbling and sliding window folds each split block into
per-(key, slice) partial states inside the shuffle-map task, so raw
rows — including audio ``bytes`` — never enter the object store.  It is
legal because ``merge_states`` combines states built from disjoint row
subsets (the semilattice contract of spec.py; a buffered spec's partial
is its run buffer, deduped and ordered at close).  These tests pin:

* emitted-row parity engine vs sequential oracle for incremental AND
  buffered specs, tumbling AND sliding windows, in-order AND
  out-of-order input, P∈{1,3};
* metrics parity (rows_seen / late_rows sums match the oracle's);
* the window refuses ``salted_keys`` (it has no salted path).
"""

from __future__ import annotations

import pytest

from parallel_dataflow_ray import fixtures
from parallel_dataflow_ray.streaming import (
    OracleExecutor, SlidingWindows, StreamEngine, TumblingWindows,
)
from parallel_dataflow_ray.streaming.kernels import KERNELS
from parallel_dataflow_ray.streaming.oracle import canonical_sort
from parallel_dataflow_ray.streaming.partitioning import epochs_from_table

N = 500
LATENESS_US = 50_000
EPOCH_ROWS = 83


def _epochs(ooo: bool):
    t = fixtures.clips_table(N, seed=42, lateness_ms=40 if ooo else 0,
                             n_speakers=7, dup_every=13)
    return epochs_from_table(t, EPOCH_ROWS)


def _run(op_kwargs, epochs, *, P):
    eng = StreamEngine("window", dict(op_kwargs), num_partitions=P,
                       allowed_lateness_us=LATENESS_US)
    assert eng.combine
    res = eng.run(epochs, collect=True)
    rows = canonical_sort([r for ep in res["emitted"] for r in ep])
    last = max(m["epoch"] for m in res["metrics"])
    fin = [m for m in res["metrics"] if m["epoch"] == last]
    return rows, (sum(m["rows_seen"] for m in fin),
                  sum(m["late_rows"] for m in fin))


@pytest.mark.parametrize("spec_name", ["audio_energy", "clip_stats",
                                       "top_words", "quantile_hist",
                                       "clip_profile", "vocab_sketch",
                                       # buffered: run-buffer partials
                                       "reverse_live_words", "codec_funnel",
                                       "codec_kleene"])
@pytest.mark.parametrize("ooo", [False, True], ids=["inorder", "ooo"])
@pytest.mark.parametrize("win", [TumblingWindows(1_000_000),
                                 SlidingWindows(3_000_000, 2_000_000)],
                         ids=["tumbling", "sliding-nondivisor"])
def test_combine_parity(spec_name, ooo, win):
    kw = {"spec": KERNELS[spec_name](), "assigner": win}
    epochs = _epochs(ooo)
    oracle_rows, om = OracleExecutor("window", dict(kw), LATENESS_US).run(epochs)
    oracle_rows = canonical_sort(oracle_rows)
    for P in (1, 3):
        rows, m = _run(kw, epochs, P=P)
        assert rows == oracle_rows
        assert m == (om["rows_seen"], om["late_rows"])


def test_combine_fragment_rowgroup_fanout(tmp_path):
    """Parquet-fragment epochs with multiple row groups: the window
    fans each fragment into row-group-range fold tasks (pruned reads).
    Output and accounting must match the oracle over the in-memory
    epochs exactly."""
    import pyarrow.parquet as pq

    from parallel_dataflow_ray.streaming.partitioning import parquet_epochs

    t = fixtures.clips_table(N, seed=42, lateness_ms=40, n_speakers=7,
                             dup_every=13)
    d = tmp_path / "frags"
    d.mkdir()
    for i, lo in enumerate(range(0, N, EPOCH_ROWS)):
        pq.write_table(t.slice(lo, EPOCH_ROWS), d / f"part-{i:04d}.parquet",
                       row_group_size=17)
    frag_epochs = parquet_epochs(str(d))
    # every full-size fragment fans into >1 row group (the 2-row tail
    # fragment legitimately has a single group)
    assert sum(e["num_row_groups"] > 1 for e in frag_epochs) >= len(frag_epochs) - 1
    kw = {"spec": KERNELS["audio_energy"](),
          "assigner": TumblingWindows(1_000_000)}
    mem_epochs = epochs_from_table(t, EPOCH_ROWS)
    oracle_rows, om = OracleExecutor("window", dict(kw),
                                     LATENESS_US).run(mem_epochs)
    rows, m = _run(kw, frag_epochs, P=3)
    assert rows == canonical_sort(oracle_rows)
    assert m == (om["rows_seen"], om["late_rows"])


def test_window_salted_keys_refused():
    """Salting is the join's skew shape; a window's blocks already cap a
    hot key at one partial per (block, slice), so the option is refused
    rather than silently ignored."""
    with pytest.raises(ValueError, match="windows always combine map-side"):
        StreamEngine("window", {"spec": KERNELS["audio_energy"](),
                                "assigner": TumblingWindows(1_000_000)},
                     salted_keys={"spk-0": 3})
