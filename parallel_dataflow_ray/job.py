"""Job entry point — the script submitted via ``ray job submit``.

Graft of the reference's CLI (``impls/src/bin/main.rs:5-23`` +
executor/pass arg parsing ``impls/src/passes.rs:21-66``): pick a kernel
(pass), an input stream, engine parameters, sink/checkpoint roots; run
to stream end; print a one-line JSON summary.

    ray job submit -- python -m parallel_dataflow_ray.job \
        --kernel clip_stats --input /data/clips_fragments \
        --partitions 16 --lateness-ms 50 --window-ms 5000 \
        --sink /out/run1 --ckpt /out/run1_ckpt

Owns a Ray session ONLY when run as __main__ (the driver contract
forbids library-level ray.init).
"""

from __future__ import annotations

import argparse
import json
import os


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="parallel_dataflow_ray.job")
    p.add_argument("--kernel", required=True,
                   help="registered kernel name (see streaming.kernels.KERNELS)")
    p.add_argument("--input", required=True,
                   help="directory of parquet fragments (epoch = fragment)")
    p.add_argument("--window", choices=["tumbling", "sliding", "session"],
                   default="tumbling")
    p.add_argument("--window-ms", type=int, default=5000)
    p.add_argument("--slide-ms", type=int, default=0)
    p.add_argument("--gap-ms", type=int, default=1000)
    p.add_argument("--partitions", type=int, default=0,
                   help="0 = adaptive (the MixedExecutor analog)")
    p.add_argument("--lateness-ms", type=int, default=0)
    p.add_argument("--sink", default=None)
    p.add_argument("--late-sink", default=None,
                   help="dead-letter root: late rows are committed here "
                        "per epoch (exactly-once) instead of only counted")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--ckpt-interval", type=int, default=4)
    p.add_argument("--metrics-out", default=None,
                   help="write per-partition lineage/throughput parquet here")
    return p


def run_job(args) -> dict:
    from .streaming import (SessionWindows, SlidingWindows, StreamEngine,
                            TumblingWindows)
    from .streaming.kernels import KERNELS
    from .streaming.partitioning import parquet_epochs

    spec = KERNELS[args.kernel]()
    if args.window == "tumbling":
        assigner = TumblingWindows(args.window_ms * 1000)
        op_kind = "window"
    elif args.window == "sliding":
        assigner = SlidingWindows(args.window_ms * 1000,
                                  (args.slide_ms or args.window_ms // 2) * 1000)
        op_kind = "window"
    else:
        assigner = SessionWindows(args.gap_ms * 1000)
        op_kind = "session"

    epochs = parquet_epochs(args.input)
    eng = StreamEngine(op_kind, {"spec": spec, "assigner": assigner},
                       num_partitions=args.partitions,
                       allowed_lateness_us=args.lateness_ms * 1000,
                       sink_root=args.sink, ckpt_root=args.ckpt,
                       late_root=args.late_sink,
                       ckpt_interval=args.ckpt_interval)
    res = eng.run(epochs, final_flush=True)
    # rows_seen is a per-partition cumulative counter: take each
    # partition's LAST metric and sum (a max() reported only the busiest
    # partition's count whenever P > 1)
    last_rows: dict[int, int] = {}
    for m in res["metrics"]:
        last_rows[m["partition"]] = m.get("rows_seen", 0)
    summary = {
        "kernel": args.kernel, "epochs": len(epochs),
        "partitions": eng.P, "start_epoch": res["start_epoch"],
        "rows_seen": sum(last_rows.values()),
        "emitted": sum(m["emitted"] for m in res["metrics"]),
        "late_rows": sum(m["late_rows"] for m in res["metrics"]
                         if m["epoch"] == len(epochs)),
    }
    if args.metrics_out and args.sink:
        write_metrics(args.sink, args.metrics_out)
    return summary


def write_metrics(sink_root: str, out_path: str) -> None:
    """Per-partition lineage + throughput records -> parquet (the CSV
    perf-record sink analog, reference impls/src/bin/perf.rs:30-38)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .streaming.sink import ExactlyOnceSink

    records = ExactlyOnceSink.lineage(sink_root)
    if records:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        pq.write_table(pa.Table.from_pylist(records), out_path)


def main(argv=None) -> dict:
    args = build_parser().parse_args(argv)
    import ray

    owns = not ray.is_initialized()
    if owns:
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    try:
        summary = run_job(args)
    finally:
        if owns:
            ray.shutdown()
    print(json.dumps(summary))
    return summary


if __name__ == "__main__":
    main()
