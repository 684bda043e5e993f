"""Job CLI (the `ray job submit` entry) + adaptive partitions + metrics
sink + canonicalizer stage."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from parallel_dataflow_ray import fixtures, job


def _write_fragments(tmp_path, n=500, frag=120):
    d = tmp_path / "frags"
    d.mkdir()
    t = fixtures.clips_table(n, seed=42, lateness_ms=30, n_speakers=5)
    for i, s in enumerate(range(0, n, frag)):
        pq.write_table(t.slice(s, frag), str(d / f"frag-{i:04d}.parquet"))
    return str(d)


def test_job_end_to_end(tmp_path, ray_session):
    inp = _write_fragments(tmp_path)
    summary = job.main([
        "--kernel", "clip_stats", "--input", inp, "--window", "tumbling",
        "--window-ms", "2000", "--partitions", "3", "--lateness-ms", "50",
        "--sink", str(tmp_path / "sink"), "--ckpt", str(tmp_path / "ckpt"),
        "--metrics-out", str(tmp_path / "metrics.parquet"),
    ])
    assert summary["epochs"] == 5
    assert summary["emitted"] > 0
    from parallel_dataflow_ray.streaming.sink import ExactlyOnceSink
    out = ExactlyOnceSink.read_all(str(tmp_path / "sink"))
    assert out is not None and out.num_rows == summary["emitted"]
    # metrics table (the perf-CSV analog) landed with lineage columns
    m = pq.read_table(str(tmp_path / "metrics.parquet"))
    assert {"partition", "epoch", "rows", "watermark"} <= set(m.column_names)


def test_job_adaptive_partitions_small_input(tmp_path, ray_session):
    inp = _write_fragments(tmp_path, n=200, frag=100)
    summary = job.main([
        "--kernel", "clip_stats", "--input", inp, "--partitions", "0",
        "--window-ms", "2000",
    ])
    assert summary["partitions"] == 1  # tiny stream -> inline, no fan-out


def test_canonicalizer_stage(ray_session):
    import ray.data as rd

    from parallel_dataflow_ray.stages.normalize import canonicalize

    t = fixtures.clips_table(20, seed=42)
    import pyarrow as pa
    messy = t.set_column(t.column_names.index("transcript"), "transcript",
                         pa.array(["  á  b  "] * 20))
    out = canonicalize(rd.from_arrow(messy)).take(1)[0]
    assert out["transcript"] == "á b"  # NFC + whitespace collapse


def test_job_first_seen_kernel(tmp_path, ray_session):
    """Ingest-dedup through the ray-job CLI entry: sink row parity with
    the oracle over a dup-bearing stream."""
    d = tmp_path / "frags"
    d.mkdir()
    t = fixtures.clips_table(300, seed=42, lateness_ms=40, n_speakers=5)
    # verbatim re-deliveries (same clip_id/speaker/ts/offset) — the
    # at-least-once ingest duplicates FirstSeen exists to absorb
    t = pa.concat_tables([t, t.slice(40, 60)]).sort_by("event_ts")
    for i in range(0, 360, 120):
        pq.write_table(t.slice(i, 120), str(d / f"part-{i:05d}.parquet"))
    summary = job.main([
        "--kernel", "first_seen", "--input", str(d), "--window", "tumbling",
        "--window-ms", "2000", "--partitions", "3", "--lateness-ms", "50",
        "--sink", str(tmp_path / "sink"),
    ])
    assert summary["emitted"] > 0
    from parallel_dataflow_ray.streaming import OracleExecutor, TumblingWindows
    from parallel_dataflow_ray.streaming.kernels import KERNELS
    from parallel_dataflow_ray.streaming.oracle import canonical_sort
    from parallel_dataflow_ray.streaming.partitioning import parquet_epochs
    from parallel_dataflow_ray.streaming.sink import ExactlyOnceSink
    rows, _ = OracleExecutor(
        "window", {"spec": KERNELS["first_seen"](),
                   "assigner": TumblingWindows(2_000_000)},
        50_000).run(parquet_epochs(str(d)), final_flush=True)
    got = ExactlyOnceSink.read_all(str(tmp_path / "sink"))
    assert canonical_sort(got.to_pylist()) == canonical_sort(rows)
    # duplicates actually existed and were deduped
    n_dups = sum(r["n_dups"] for r in rows)
    assert n_dups > 0


def test_job_late_sink_dead_letter(tmp_path, ray_session):
    """--late-sink routes watermark-closed rows to the dead-letter sink:
    30 ms jitter against 20 ms windows and zero allowed lateness makes
    real late rows; counted late rows == captured rows, and the two
    sinks partition the accounting cleanly."""
    inp = _write_fragments(tmp_path)
    summary = job.main([
        "--kernel", "clip_stats", "--input", inp, "--window", "tumbling",
        "--window-ms", "20", "--partitions", "3", "--lateness-ms", "0",
        "--sink", str(tmp_path / "sink"),
        "--late-sink", str(tmp_path / "late"),
    ])
    from parallel_dataflow_ray.streaming.sink import ExactlyOnceSink
    late = ExactlyOnceSink.read_all(str(tmp_path / "late"))
    assert late is not None and late.num_rows > 0
    assert late.num_rows == summary["late_rows"]
    # late rows carry the pruned shuffle schema: key + time + offset
    # (the offset is the re-drive handle back into the source log) +
    # the kernel's value columns
    assert {"speaker_id", "event_ts", "offset", "dur_ms",
            "sr_hz"} <= set(late.column_names)
