"""One benchmark run: generate, set up, time whole rounds, check, report.

Imported by ``run.py`` once the program is known to be importable."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from parallel_dataflow_ray.fixtures import clips_batch
from parallel_dataflow_ray.streaming import ExactlyOnceSink, StreamEngine
from parallel_dataflow_ray.streaming.partitioning import parquet_epochs

import checks as ck
import host
import tracing
from workloads import LATENESS_US, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
#: logical CPUs of the Ray session and partitions of every engine: fixed,
#: never derived from the host
NUM_CPUS = 2
PARTITIONS = 2
CKPT_INTERVAL = 4
#: set-ups per run; setup_s is their median
SETUPS = 3
#: leading epochs whose commit gaps count as pipeline ramp-up; the
#: warm-up pass runs the same number, which starts every worker a round uses
RAMP_EPOCHS = 2
#: Ray session sockets live under the temp dir and must fit AF_UNIX paths
MAX_RAY_TEMP_LEN = 45
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _bench = json.load(_f)
#: every reported metric's unit, as BENCHMARK.json declares it
UNITS = {m["name"]: m["unit"]
         for m in _bench["end_to_end"] + _bench["per_layer"]}


class Session:
    """One Ray session with the fixed shape; its temp dir is removed on
    shutdown so runs leave no session logs behind."""

    def __init__(self, run_dir: str):
        self.temp = os.path.join(run_dir, "ray")
        if len(self.temp) > MAX_RAY_TEMP_LEN:
            self.temp = tempfile.mkdtemp(prefix="perfbench-ray-")
        # workers import the program from the repo whatever the cwd
        paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p and p not in (ROOT, HERE)]
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, HERE, *paths])
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 2**20, _temp_dir=self.temp)

    def shutdown(self) -> None:
        ray.shutdown()
        shutil.rmtree(self.temp, ignore_errors=True)


def make_engine(w, run_dir: str, tag: str) -> StreamEngine:
    eng = StreamEngine(
        w.op_kind, w.op_kwargs(), num_partitions=PARTITIONS,
        allowed_lateness_us=LATENESS_US,
        sink_root=os.path.join(run_dir, f"sink-{tag}"),
        ckpt_root=os.path.join(run_dir, f"ckpt-{tag}"),
        # scratch disk is not the durability layer: no fsync
        ckpt_interval=CKPT_INTERVAL, sink_durable=False,
        **w.engine_kwargs())
    eng.keep_workers = True
    return eng


def setup(w, epochs, run_dir: str, i: int):
    """``ray.init`` + engine construction + the untimed warm-up pass."""
    t0 = time.perf_counter()
    session = Session(run_dir)
    eng = make_engine(w, run_dir, f"warm{i}")
    eng.run(epochs[:RAMP_EPOCHS], final_flush=True)
    setup_s = time.perf_counter() - t0
    shutil.rmtree(os.path.join(run_dir, f"sink-warm{i}"))
    shutil.rmtree(os.path.join(run_dir, f"ckpt-warm{i}"))
    return setup_s, session, eng


def commit_gaps_ms(lineage: list[dict], n_epochs: int) -> list[float]:
    """Gaps between successive epochs' commits (an epoch commits when its
    last partition does), without ramp-up and the final flush."""
    at: dict[int, float] = {}
    for r in lineage:
        at[r["epoch"]] = max(at.get(r["epoch"], 0.0), r["wall_ts"])
    return [(at[e] - at[e - 1]) * 1e3
            for e in range(RAMP_EPOCHS + 1, n_epochs)]


def timed_round(w, eng, epochs, run_dir, r, expected, oracle, checks,
                corrupt: bool) -> dict:
    """One closed-loop replay of the whole stream, then its checks."""
    sink = os.path.join(run_dir, f"sink-{r}")
    ckpt = os.path.join(run_dir, f"ckpt-{r}")
    eng.reset_state(new_sink_root=sink, new_ckpt_root=ckpt)
    before = host.worker_pids()
    cpu0 = host.session_cpu_s()
    t0 = time.perf_counter()
    res = eng.run(epochs, final_flush=True)
    wall = time.perf_counter() - t0
    cpu_s = host.session_cpu_s() - cpu0
    started = len(host.worker_pids() - before)
    out = ExactlyOnceSink.read_all(sink)
    lineage = ExactlyOnceSink.lineage(sink)
    ck.check_round(checks, w, out, expected, oracle, res, lineage,
                   sum(e["rows"] for e in epochs), len(epochs), PARTITIONS)
    if corrupt:
        self_test(checks, w, out, expected)
    written = host.tree_bytes(sink) + host.tree_bytes(ckpt)
    shutil.rmtree(sink)
    shutil.rmtree(ckpt, ignore_errors=True)
    return {"wall": wall, "gaps": commit_gaps_ms(lineage, len(epochs)),
            "res": res, "cpu_s": cpu_s, "workers_started": started,
            "written": written}


def self_test(checks, w, out, expected) -> None:
    """Corrupt the output two ways; each must fail the comparison."""
    col = "n_clips" if "n_clips" in out.column_names else "ts_right"
    bumped = out.set_column(
        out.schema.get_field_index(col), col,
        pa.concat_arrays([pc.add(out[col].slice(0, 1), 1).combine_chunks(),
                          out[col].slice(1).combine_chunks()]))
    for name, bad in (("drop_one_row", out.slice(1)),
                      (f"change_one_{col}", bumped)):
        missing, extra = ck.diff_counts(w, ck.comparable(w, bad), expected)
        checks.check(f"self_test_{name}_detected", missing + extra > 0,
                     "a corrupted output passed the output check")


class Tally:
    """What the timed rounds of one run add up to."""

    def __init__(self):
        self.rounds: list[dict] = []
        self.attempted = self.failed = 0
        self.timed = 0.0


def measure(w, eng, epochs, run_dir, args, expected, oracle, checks,
            tally: Tally, budget: float) -> None:
    """Whole rounds until ``budget`` seconds of timed engine work in all
    (at least one round; exactly one when tracing).  A round the engine
    fails counts all its epochs as failed and the run goes on."""
    first = True
    while first or tally.timed < budget:
        first = False
        r = len(tally.rounds) + tally.failed // len(epochs)
        tally.attempted += len(epochs)
        t0 = time.perf_counter()
        try:
            rnd = timed_round(w, eng, epochs, run_dir, r, expected, oracle,
                              checks, corrupt=args.self_test and not tally.rounds)
        except ray.exceptions.RayError as e:
            tally.failed += len(epochs)
            tally.timed += time.perf_counter() - t0
            checks.failures.append(f"round {r}: {e!r}")
            continue
        tally.rounds.append(rnd)
        tally.timed += rnd["wall"]
        if args.trace:
            return


def generate(w, args, run_dir: str, info: dict):
    """The load generator: input stream, epoch fragments, and the
    expected output.  Not part of set-up or of the timed body."""
    t0 = time.perf_counter()
    n = w.n_clips(args.scale)
    table = w.stream(args.seed, n)
    w.write_epochs(table, os.path.join(run_dir, "input"))
    epochs = parquet_epochs(os.path.join(run_dir, "input"))
    info["generate_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    expected = w.expected(table)
    oracle = (ck.oracle_sample(w, epochs, w.oracle_speakers)
              if w.oracle_speakers else {})
    info["expected_s"] = time.perf_counter() - t0
    info.update(clips=n, rows=table.num_rows, epochs=len(epochs),
                expected_rows=expected.num_rows)
    return epochs, n, expected, oracle


def traced(w, eng, epochs, run_dir, args, info, rnd: dict) -> dict:
    """Per-layer metrics: the engine's own counters from the untraced
    round, the traced replay, the kernels and the runtime floor."""
    res = rnd["res"]["metrics"]
    tracer = tracing.Tracer(w.name)
    t0 = time.perf_counter()
    counters = tracing.replay(eng, epochs, tracer,
                              os.path.join(run_dir, "replay"))
    replay_s = time.perf_counter() - t0
    floor = tracing.ray_floor(tracer)
    metrics, summary = tracing.layer_metrics(tracer, counters, replay_s,
                                             rnd["wall"], rnd["cpu_s"])
    metrics.update(floor)
    last = {m["partition"]: m for m in res}
    metrics.update({
        "engine.actor_busy_s": sum(m["elapsed_s"] for m in res),
        "engine.actor_wait_s": sum(m["wait_s"] for m in res),
        "engine.epochs": len({m["epoch"] for m in res}),
        "engine.rows_seen": sum(m["rows_seen"] for m in last.values()),
        "engine.emitted_rows": sum(m["emitted"] for m in res),
        "engine.late_rows": sum(m["late_rows"] for m in last.values()),
        "ray.workers_started": rnd["workers_started"],
    })
    metrics.update(tracing.kernel_ms_per_kclip(
        clips_batch(args.seed, 0, 128, n_speakers=16)))
    spans = os.path.join(SCRATCH, "spans", f"{w.name}.jsonl")
    tracer.write(spans)
    info["trace"] = dict(summary, spans_file=os.path.relpath(spans, ROOT))
    return metrics


def run_workload(args) -> int:
    w = WORKLOADS[args.workload]
    host.ensure_free(SCRATCH, w.disk_mb)
    run_dir = os.path.join(SCRATCH, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    checks = ck.Checks()
    info = {"workload": w.name, "seed": args.seed, "host": host.host_record()}
    tally = Tally()
    session = eng = None
    try:
        epochs, n, expected, oracle = generate(w, args, run_dir, info)
        # the timed rounds are spread over the set-ups' sessions, so one
        # run samples the host at several moments
        sessions = 1 if args.trace else SETUPS
        setups = []
        for i in range(sessions):
            if session is not None:
                eng.close()
                session.shutdown()
            s, session, eng = setup(w, epochs, run_dir, i)
            setups.append(s)
            measure(w, eng, epochs, run_dir, args, expected, oracle, checks,
                    tally, budget=args.seconds * (i + 1) / sessions)
        rounds = tally.rounds
        info.update(setup_s=setups, rounds=len(rounds),
                    round_s=[r["wall"] for r in rounds])
        if args.trace:
            metrics = traced(w, eng, epochs, run_dir, args, info, rounds[0])
        else:
            # per-round percentiles, then their median over the rounds:
            # a stretch of slow host seconds skews a few rounds, not the run
            p50 = [float(np.quantile(r["gaps"], 0.5)) for r in rounds]
            p90 = [float(np.quantile(r["gaps"], 0.9)) for r in rounds]
            info.update(round_gap_p50_ms=[round(g, 1) for g in p50],
                        round_gap_p90_ms=[round(g, 1) for g in p90])
            metrics = {
                "clips_per_s": n / statistics.median(info["round_s"]),
                "epoch_gap_p50_ms": statistics.median(p50),
                "epoch_gap_p90_ms": statistics.median(p90),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": host.peak_rss_mb(),
            }
            info["epoch_gaps"] = sum(len(r["gaps"]) for r in rounds)
    finally:
        if session is not None:
            eng.close()
            session.shutdown()
        info["disk_mb_written"] = round(
            (host.tree_bytes(run_dir)
             + sum(r["written"] for r in tally.rounds)) / 2**20, 1)
        shutil.rmtree(run_dir, ignore_errors=True)
    info["checks"] = {"ran": checks.ran, "failed": len(checks.failures),
                      "failures": checks.failures[:20]}
    print(json.dumps(info))
    correct = not checks.failures
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def smoke() -> int:
    """Every workload at tiny size with all checks and the checker
    self-test, started from a directory that is not the repo root."""
    cwd = os.path.join(SCRATCH, "smoke-cwd")
    os.makedirs(cwd, exist_ok=True)
    results = {}
    for name in WORKLOADS:
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", "1", "--seconds", "0.5", "--trace", "0",
             "--scale", "0.125", "--self-test"],
            cwd=cwd, capture_output=True, text=True, timeout=300)
        lines = p.stdout.strip().splitlines()
        ok = p.returncode == 0 and len(lines) >= 2
        results[name] = {"ok": ok and json.loads(lines[-1])["correct"],
                         "checks": (json.loads(lines[-2])["checks"] if ok
                                    else p.stderr[-2000:])}
    shutil.rmtree(cwd, ignore_errors=True)
    print(json.dumps(results, indent=1))
    return 0 if all(r["ok"] for r in results.values()) else 1
