"""Benchmark harness — prints ONE JSON line the driver records as
BENCH_r{N}.json.

Headline: the flagship streaming pipeline (clips -> epochs -> windowed
AudioEnergy via the CEP engine with exactly-once sink) in clips/sec,
plus a battery of sf0.1 batch queries.

    python bench.py              # RAY_GRAFT_CPUS (default 32), GRAFT_SF_DIR
    python bench.py --scaling    # same job at 8 and 32 CPUs in fresh
                                 # processes -> scaling efficiency

Graft of the reference's perf harness (impls/src/bin/perf.rs): fresh
process per measurement, explicit load-vs-run split, CSV -> JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# streaming bench shape: enough rows that per-epoch driver overhead is
# amortized, windows sized so state stays bounded
STREAM_CLIPS = int(os.environ.get("GRAFT_BENCH_CLIPS", "100000"))
STREAM_EPOCH_ROWS = int(os.environ.get("GRAFT_BENCH_EPOCH_ROWS", "4000"))

BATCH_QUERIES = [
    "q1_pricing_summary", "q3_top_orders", "filter_high_value",
    "broadcast_region_count", "topk_orders", "props_k_by_type",
    "tumbling_events", "sliding_events", "session_events",
    "token_stats", "exact_dedup_docs", "curate_docs", "curate_neardup_docs",
    "topk_users_hourly",
    "minhash_neardup", "dup_spans_docs", "scrub_dup_spans_docs",
    "semi_join_customers",
    "range_join_error_after_signup", "bpe_token_stats",
    "running_user_totals", "distinct_users_by_type",
    "embedding_neardup_lsh",
    "knn_topk", "knn_topk_q8", "ann_self_topk", "quantiles_lineitem",
    "approx_distinct_users", "heavy_bigrams", "stream_tumbling_events",
    "stream_join_events", "approx_quantiles_events",
    "funnel_events", "funnel_no_error_events", "stream_funnel_events",
    "kleene_funnel_events", "stream_kleene_events",
    "stream_topk_event_types", "stream_quantile_durations",
    "stream_vocab_clips",
    "pack_token_shards",
    "decontaminate_docs", "decontaminate_docs_bloom",
    "dedup_incremental_docs", "chunk_docs", "source_mixture",
    "augment_clips", "kmeans_embeddings",
    "gopher_quality_docs", "repetition_docs", "pack_audio_shards",
    "semdedup_embeddings",
    # round-4 session-2 additions
    "rank_orders_window", "rollup_revenue", "ntile_docs",
    "moments_lineitem", "corr_lineitem", "mode_event_type",
    "tfidf_top_terms", "rolling_sum_events",
    "pagerank_orders", "editdist_neardup_docs", "sample_weighted_docs",
    "cube_revenue", "entropy_by_user", "cume_dist_docs",
    "pagerank_orders_smb", "shuffle_docs_epoch",
    "speaker_budget_clips", "unigram_logprob_docs", "dsir_resample_docs",
    "jaccard_incremental_docs", "temperature_mix_docs",
    "minhash_incremental_docs",
    "quantiles_cont_lineitem", "skew_kurt_lineitem",
    "intersect_customers", "except_customers", "unpivot_event_counts",
    "events_range_scan", "latest_event_per_user", "wer_adjacent_docs",
    "smb_join_order_lines",
    # round-4 session-7 additions
    "bpe_train_merges", "bpe_encode_docs", "events_zorder_scan",
    "stream_cms_watch_clips", "group_split_docs", "pq_topk_embeddings",
    "bigram_logprob_docs", "ivfpq_topk_embeddings", "bm25_topk_docs",
    "compress_ratio_docs",
    # round-5 additions
    "pagerank_orders_delta", "dedup_lines_docs",
    "dedup_lines_incremental_docs",
]


def bench_stream_join_skewed() -> dict:
    """Symmetric hash join under deliberate key skew (~20 % of rows on
    one user), unsalted vs salted (salt-one-side / broadcast-the-other
    decomposition): records both the strict-co-partitioning skew penalty
    and what the salted path buys back.  Returns {unsalted_s, salted_s,
    matches} — match counts are asserted identical."""
    import numpy as np
    import pyarrow as pa

    from parallel_dataflow_ray.streaming import StreamEngine
    from parallel_dataflow_ray.streaming.partitioning import (
        detect_hot_keys, epochs_from_table)

    rng = np.random.default_rng(42)
    n = 40_000
    user = np.where(rng.random(n) < 0.2, 7,
                    rng.integers(0, 5000, n)).astype(np.int64)
    ts = np.sort(rng.integers(0, 3_600_000_000, n)).astype(np.int64)
    side = rng.random(n) < 0.5
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({"user_id": pa.array(user), "event_ts": pa.array(ts),
                  "offset": pa.array(ids), "click_id": pa.array(ids),
                  "purchase_id": pa.array(ids),
                  "__stream": pa.array(side.astype(np.int8))})
    epochs = epochs_from_table(t, 4000)
    kw = {"key_column": "user_id", "time_bound_us": 10_000_000,
          "left_columns": ("click_id",), "right_columns": ("purchase_id",)}

    def run(salted):
        eng = StreamEngine("join", dict(kw), num_partitions=8,
                           allowed_lateness_us=0, key_column="user_id",
                           salted_keys=salted)
        t0 = time.perf_counter()
        res = eng.run(epochs, collect=True, final_flush=True)
        return (time.perf_counter() - t0,
                sum(len(ep) for ep in res["emitted"]))

    hot = detect_hot_keys(t, "user_id", threshold_frac=0.1, num_partitions=8)
    dt_plain, n_plain = run(None)
    dt_salted, n_salted = run(hot)
    assert n_plain == n_salted and n_plain > 0
    return {"unsalted_s": dt_plain, "salted_s": dt_salted,
            "matches": n_plain}


def _consume(res) -> int:
    """Force execution; return row count."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.count()
    if isinstance(res, (pd.DataFrame, pa.Table)):
        return len(res)
    return 0


def bench_streaming(tmpdir: str) -> dict:
    """clips/sec through the full engine (decode + window agg + sink)."""
    from parallel_dataflow_ray.fixtures import clips_dataset
    from parallel_dataflow_ray.streaming import StreamEngine, TumblingWindows
    from parallel_dataflow_ray.streaming.kernels import AudioSpectral
    from parallel_dataflow_ray.streaming.partitioning import parquet_epochs

    gen_path = os.path.join(tmpdir, f"clips_{STREAM_CLIPS}_{STREAM_EPOCH_ROWS}_s1k_rg")
    t0 = time.perf_counter()
    if not os.path.exists(gen_path):
        # 1000 speakers: smooth hash balance across partitions (a 32-key
        # space into 16 partitions is balls-in-bins skew-bound — real streams
        # have high key cardinality; hot-key salting covers the skewed case).
        # 500-row row groups: combine-mode split tasks fan per row-group
        # range, so intra-epoch fold parallelism is rows/500, not 1.
        clips_dataset(STREAM_CLIPS, seed=42, lateness_ms=40, n_speakers=1000,
                      blocks=max(1, STREAM_CLIPS // STREAM_EPOCH_ROWS)) \
            .write_parquet(gen_path, min_rows_per_file=STREAM_EPOCH_ROWS,
                           row_group_size=500)
    # epochs = parquet fragments; rows never pass through the driver
    epochs = parquet_epochs(gen_path)
    # warm the page cache (perf.rs-style cache control, inverted: measure
    # compute + shuffle at both CPU levels, not this VM's ~100 MB/s disk
    # — disk bandwidth is the one resource that does NOT scale with
    # num_cpus in this sandbox, while a real cluster scales I/O with
    # nodes) and warm the worker-process pool (imports are per-process)
    for e in epochs:
        with open(e["path"], "rb") as f:
            while f.read(1 << 24):
                pass
    load_s = time.perf_counter() - t0
    # partitions scale with the CPU budget so the 8-vs-32 scaling run
    # measures the engine, not a fixed-P ceiling
    P = max(2, (3 * NUM_CPUS) // 4)

    eng = StreamEngine(
        "window",
        {"spec": AudioSpectral(), "assigner": TumblingWindows(60_000_000)},
        num_partitions=P, allowed_lateness_us=50_000,
        sink_root=os.path.join(tmpdir, f"sink_{NUM_CPUS}_{time.time_ns()}"),
        ckpt_root=os.path.join(tmpdir, f"ckpt_{NUM_CPUS}_{time.time_ns()}"),
        ckpt_interval=4, sink_durable=False)
    # long-lived actor pool (production shape): the untimed warm run pays
    # worker spawn + imports; the timed run measures steady-state streaming
    eng.keep_workers = True
    eng.run(epochs[:8])
    eng.reset_state(
        new_sink_root=os.path.join(tmpdir, f"sink_{NUM_CPUS}_{time.time_ns()}"),
        new_ckpt_root=os.path.join(tmpdir, f"ckpt_{NUM_CPUS}_{time.time_ns()}"))
    t1 = time.perf_counter()
    eng.run(epochs, final_flush=True)
    run_s = time.perf_counter() - t1
    eng.close()
    return {"clips": STREAM_CLIPS, "load_sec": round(load_s, 3),
            "run_sec": round(run_s, 3),
            "clips_per_sec": round(STREAM_CLIPS / run_s, 1),
            "partitions": P}


def bench_audio_prep(tmpdir: str) -> dict:
    """clips/sec through the batch audio-preprocessing pipeline over the
    SAME generated clip stream the flagship uses: decode -> loudness
    normalize -> linear resample to 16 kHz -> re-encode pcm16 ->
    fixed-window chunking (250 ms / 200 ms hop) -> count.  Two
    actor-pool DSP stages, zero shuffles — measures the payload axis
    (bytes-heavy map_batches) next to the flagship's window-aggregate
    axis."""
    import ray.data as rd

    from parallel_dataflow_ray.stages.audio_prep import (chunk_clips,
                                                         resample_clips)

    gen_path = os.path.join(tmpdir, f"clips_{STREAM_CLIPS}_{STREAM_EPOCH_ROWS}_s1k_rg")
    ds = rd.read_parquet(gen_path)
    t0 = time.perf_counter()
    out = chunk_clips(
        resample_clips(ds, 16000, target_rms=0.1, batch_size=128),
        chunk_ms=250, hop_ms=200, batch_size=128)
    n_chunks = out.count()
    dt = time.perf_counter() - t0
    return {"clips": STREAM_CLIPS, "chunks": n_chunks,
            "sec": round(dt, 3),
            "clips_per_sec": round(STREAM_CLIPS / dt, 1)}


def bench_audio_neardup(tmpdir: str) -> dict:
    """clips/sec through the audio near-dup pass over the same
    generated clip stream: one-decode-pass spectral fingerprint +
    verify profile -> sparse 5-of-6 subset LSH -> broadcast
    log-band-profile cosine verify.  Only 264 B/clip sketch rows ever
    shuffle.  Runs the documented SCALE configuration
    (``clique_cap=1000``: identical-fingerprint cliques and oversized
    cross products emit connectivity-preserving star / rep-rep edges)
    because the synthetic tone corpus is pathologically self-similar —
    its exact hamming ball is ~40M pairs at 100k clips; the declined
    pair count is audited AFTER the timed window via
    ``hamming_clique_stats`` and reported (no silent caps)."""
    import ray.data as rd

    from parallel_dataflow_ray.stages.audio_prep import audio_neardup_pairs
    from parallel_dataflow_ray.stages.audio_prep import fingerprint_clips
    from parallel_dataflow_ray.stages.dedup import hamming_clique_stats

    gen_path = os.path.join(tmpdir, f"clips_{STREAM_CLIPS}_{STREAM_EPOCH_ROWS}_s1k_rg")
    ds = rd.read_parquet(gen_path)
    t0 = time.perf_counter()
    n_pairs = audio_neardup_pairs(
        ds, id_col="offset", max_hamming=3, verify_cosine=0.998,
        clique_cap=1000).count()
    dt = time.perf_counter() - t0
    # audit pass (outside the timed window): what did the cap decline?
    st = hamming_clique_stats(fingerprint_clips(ds, id_col="offset"),
                              hash_col="simhash", clique_cap=1000)
    return {"clips": STREAM_CLIPS, "pairs": n_pairs, "sec": round(dt, 3),
            "clips_per_sec": round(STREAM_CLIPS / dt, 1),
            "clique_cap": 1000,
            "max_clique": int(st["max_clique"].iloc[0]),
            "identical_clique_pairs": int(st["clique_pairs"].iloc[0]),
            "declined_clique_pairs": int(st["declined_pairs"].iloc[0])}


def bench_audio_decontaminate(tmpdir: str) -> dict:
    """clips/sec through audio eval-set decontamination over the same
    generated clip stream: a 1,000-clip eval suite's sketch table
    (fingerprints + 5-of-6 subset LSH keys + unit verify profiles)
    broadcasts once via ray.put; the corpus is probed MAP-ONLY inside
    its single decode pass — zero corpus shuffle, output sized by the
    contamination.  The synthetic tone corpus genuinely collides with
    the tone eval suite, so the flagged count is real work, and is
    reported."""
    import ray.data as rd

    from parallel_dataflow_ray.fixtures import clips_table
    from parallel_dataflow_ray.stages.audio_prep import decontaminate_clips

    gen_path = os.path.join(tmpdir, f"clips_{STREAM_CLIPS}_{STREAM_EPOCH_ROWS}_s1k_rg")
    ds = rd.read_parquet(gen_path)
    ev = rd.from_arrow(clips_table(1000, seed=999))
    t0 = time.perf_counter()
    n_flagged = decontaminate_clips(ds, ev, max_hamming=2,
                                    verify_cosine=0.998).count()
    dt = time.perf_counter() - t0
    return {"clips": STREAM_CLIPS, "eval_clips": 1000,
            "flagged": n_flagged, "sec": round(dt, 3),
            "clips_per_sec": round(STREAM_CLIPS / dt, 1)}


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from parallel_dataflow_ray.pipelines import QUERIES

    tmpdir = os.environ.get("GRAFT_BENCH_TMP", "/tmp/graft_bench")
    os.makedirs(tmpdir, exist_ok=True)

    # warm the page cache (perf.rs-style: measure compute, not cold disk)
    for q in ("lineitem", "events", "documents", "embeddings"):
        with open(os.path.join(SF_DIR, f"{q}.parquet"), "rb") as f:
            f.read()

    stream = bench_streaming(tmpdir)

    per_query: dict[str, float] = {}
    total = stream["run_sec"]
    batch_queries = ([] if os.environ.get("GRAFT_BENCH_STREAM_ONLY")
                     else BATCH_QUERIES)
    ctl_before = ctl_after = None
    if batch_queries:
        # host-phase control AROUND the battery (same memcopy probe the
        # --scaling legs use): cross-round query-time comparisons are
        # only attributable when both runs' controls are healthy
        ctl_before = _mem_bandwidth_gbps(8, 2.0)
        # untimed warm pass: spin up the Ray Data executor + worker
        # imports once so the first timed query measures the operator,
        # not session ramp (mirrors the streaming bench's warm run)
        _consume(QUERIES["filter_high_value"](SF_DIR))
    for name in batch_queries:
        t0 = time.perf_counter()
        n = _consume(QUERIES[name](SF_DIR))
        dt = time.perf_counter() - t0
        per_query[name] = round(dt, 3)
        total += dt
        assert n >= 0
    if batch_queries:
        skew = bench_stream_join_skewed()
        per_query["stream_join_skewed"] = round(skew["unsalted_s"], 3)
        per_query["stream_join_skewed_salted"] = round(skew["salted_s"], 3)
        total += skew["unsalted_s"] + skew["salted_s"]
        ctl_after = _mem_bandwidth_gbps(8, 2.0)
    audio_prep = bench_audio_prep(tmpdir)
    per_query["audio_prep_pipeline"] = audio_prep["sec"]
    total += audio_prep["sec"]
    audio_nd = bench_audio_neardup(tmpdir)
    per_query["audio_neardup_pairs"] = audio_nd["sec"]
    total += audio_nd["sec"]
    audio_dc = bench_audio_decontaminate(tmpdir)
    per_query["decontaminate_clips"] = audio_dc["sec"]
    total += audio_dc["sec"]
    per_query["stream_audio_spectral"] = stream["run_sec"]

    out = {"metric": "bench_total_sec", "value": round(total, 3), "unit": "sec",
           "queries": per_query, "sf": SF_DIR, "num_cpus": NUM_CPUS,
           "clips_per_sec": stream["clips_per_sec"],
           "audio_prep_clips_per_sec": audio_prep["clips_per_sec"],
           "audio_neardup_clips_per_sec": audio_nd["clips_per_sec"],
           "audio_decontaminate_clips_per_sec": audio_dc["clips_per_sec"],
           "ctl_gbps_before_battery": ctl_before,
           "ctl_gbps_after_battery": ctl_after,
           "stream": stream, "audio_prep": audio_prep,
           "audio_neardup": audio_nd, "audio_decontaminate": audio_dc}
    ray.shutdown()
    print(json.dumps(out))


def _settle(max_wait_s: int = 120) -> None:
    t0 = time.time()
    os.sync()
    while time.time() - t0 < max_wait_s:
        with open("/proc/loadavg") as f:
            if float(f.read().split()[0]) < 1.0:
                return
        time.sleep(5)


def _mem_bandwidth_gbps(procs: int, seconds: float = 4.0) -> float:
    """Aggregate memcopy GB/s achievable with ``procs`` processes — the
    host-level control for the scaling measurement.  On this single-box
    sandbox ALL cores share one memory system (measured ~64 GB/s total,
    ~50 already at 8 procs), so a bandwidth-heavy payload cannot scale
    4x from 8→32 CPUs no matter what the engine does; a real 4N-node
    cluster multiplies memory (and disk) bandwidth with nodes.  Reported
    alongside the efficiency so the number can be read honestly."""
    import multiprocessing as mp

    import numpy as np

    def burn(q):
        a = np.random.rand(1 << 22)
        b = np.empty_like(a)
        t_end = time.perf_counter() + seconds
        n = 0
        while time.perf_counter() < t_end:
            np.copyto(b, a)
            np.copyto(a, b)
            n += 2
        q.put(n * a.nbytes)

    q = mp.Queue()
    ps = [mp.Process(target=burn, args=(q,)) for _ in range(procs)]
    t0 = time.perf_counter()
    for p in ps:
        p.start()
    total = sum(q.get() for _ in ps)
    for p in ps:
        p.join()
    return round(total / (time.perf_counter() - t0) / 1e9, 1)


def scaling() -> None:
    """Paired-leg protocol: the two legs of one pair run back-to-back
    (~4 min apart) so slow host-state drift — the dominant noise on
    this shared VM, identical configs swing ±35 % across an hour —
    cancels within a pair instead of corrupting the ratio.  Reports
    every pair plus the median efficiency (the headline value)."""
    lo, hi = 8, 32
    pairs = int(os.environ.get("GRAFT_SCALING_PAIRS", "3"))

    def run(n: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(n),
                   GRAFT_BENCH_STREAM_ONLY="1")
        # scaling runs use a longer stream so pipeline-ramp latency is
        # amortized at the high CPU count (the plain per-round bench
        # keeps the smaller default for runtime budget)
        env.setdefault("GRAFT_BENCH_CLIPS", "400000")
        p = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                           capture_output=True, text=True, check=True)
        return json.loads(p.stdout.strip().splitlines()[-1])

    bw_lo = _mem_bandwidth_gbps(lo)
    bw_hi = _mem_bandwidth_gbps(hi)
    runs = []
    for _ in range(pairs):
        # host phase can flip WITHIN a pair (observed: lo leg on a
        # healthy phase, hi leg after co-tenants resumed -> a ratio
        # that measures the host, not the engine) — so snapshot the
        # memcopy control immediately before EACH leg and attach it,
        # letting a reader reject legs whose control was degraded
        _settle()
        ctl_lo = _mem_bandwidth_gbps(min(8, lo), 2.0)
        r_lo = run(lo)
        _settle()  # let writeback/load drain so the hi leg measures the
        # engine, not the tail of the previous process
        ctl_hi = _mem_bandwidth_gbps(min(8, lo), 2.0)
        r_hi = run(hi)
        thr_lo, thr_hi = r_lo["clips_per_sec"], r_hi["clips_per_sec"]
        runs.append({"clips_per_sec_lo": thr_lo, "clips_per_sec_hi": thr_hi,
                     "efficiency": round((thr_hi / thr_lo) / (hi / lo), 3),
                     "ctl_gbps_before_lo": ctl_lo,
                     "ctl_gbps_before_hi": ctl_hi})
    effs = sorted(r["efficiency"] for r in runs)
    med = effs[len(effs) // 2]
    print(json.dumps({
        "metric": "scaling_efficiency", "value": med,
        "unit": "ratio", "num_cpus_lo": lo, "num_cpus_hi": hi,
        "pairs": runs,
        "best_efficiency": effs[-1],
        "clips_per_sec_lo": max(r["clips_per_sec_lo"] for r in runs),
        "clips_per_sec_hi": max(r["clips_per_sec_hi"] for r in runs),
        "host_mem_gbps_lo": bw_lo, "host_mem_gbps_hi": bw_hi,
        "host_mem_scaling": round((bw_hi / bw_lo) / (hi / lo), 3),
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
