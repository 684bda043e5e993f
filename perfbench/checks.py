"""Output checks: every round's sink output against a computation made
apart from the engine, plus the properties the method must have."""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.compute as pc

from parallel_dataflow_ray.streaming import OracleExecutor
from parallel_dataflow_ray.streaming.partitioning import load_epoch

from workloads import LATENESS_US


class Checks:
    """Counts the checks run and keeps a line for each that failed."""

    def __init__(self):
        self.ran = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ran += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


def comparable(w, out: pa.Table) -> pa.Table:
    """The sink output reduced to the workload's compared columns (the
    join's audio payload by its hash, as the expected side has it)."""
    con = duckdb.connect()
    con.register("out", out)
    cols = ", ".join(c if c != "payload_hash" else "hash(bytes) AS payload_hash"
                     for c in w.compare_columns)
    return con.execute(f"SELECT {cols} FROM out").arrow()


def diff_counts(w, got: pa.Table, want: pa.Table) -> tuple[int, int]:
    """(rows expected but missing, rows present but not expected), as
    multisets over the compared columns."""
    con = duckdb.connect()
    con.register("got", got)
    con.register("want", want)
    # numbers compare by value: the join hands integer payload columns
    # back as float64 (see CHANGES.md), which is no wrong pair
    cols = ", ".join(
        f"CAST({c} AS DOUBLE)" if pa.types.is_floating(got.schema.field(c).type)
        else f"CAST({c} AS VARCHAR)" for c in w.compare_columns)
    missing = con.execute(f"SELECT count(*) FROM (SELECT {cols} FROM want "
                          f"EXCEPT ALL SELECT {cols} FROM got)").fetchone()[0]
    extra = con.execute(f"SELECT count(*) FROM (SELECT {cols} FROM got "
                        f"EXCEPT ALL SELECT {cols} FROM want)").fetchone()[0]
    return missing, extra


def oracle_sample(w, epoch_sources: list, n_speakers: int) -> dict:
    """``OracleExecutor`` output for the first ``n_speakers`` speakers of
    the stream, run row at a time over the same epoch framing restricted
    to those speakers (no row is late, so the windows hold the same rows
    whatever the watermark schedule).  Returns {speaker: sorted rows}."""
    tables = [load_epoch(s) for s in epoch_sources]
    speakers = sorted({k for t in tables for k in
                       t["speaker_id"].unique().to_pylist()})[:n_speakers]
    keep = pa.array(speakers)
    sub = [t.filter(pc.is_in(t["speaker_id"], value_set=keep)) for t in tables]
    rows, _ = OracleExecutor(w.op_kind, w.op_kwargs(),
                             allowed_lateness_us=LATENESS_US).run(
        sub, final_flush=True)
    return {s: sorted(_canon(r) for r in rows if r["key"] == s)
            for s in speakers}


def _canon(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def check_round(checks: Checks, w, out: pa.Table | None, expected: pa.Table,
                oracle: dict, res: dict, lineage: list[dict],
                n_rows: int, n_epochs: int, partitions: int) -> None:
    """All checks of one timed round's output."""
    if not checks.check("sink_nonempty", out is not None and out.num_rows > 0,
                        "the sink holds no rows"):
        return
    got = comparable(w, out)
    missing, extra = diff_counts(w, got, expected)
    checks.check("output_equals_independent", missing == 0 and extra == 0,
                 f"{missing} expected rows missing, {extra} unexpected rows")
    con = duckdb.connect()
    con.register("got", got)
    ident = ", ".join(w.identity_columns)
    dups = con.execute(f"SELECT count(*) FROM (SELECT {ident} FROM got "
                       f"GROUP BY ALL HAVING count(*) > 1)").fetchone()[0]
    checks.check("each_output_once", dups == 0,
                 f"{dups} (key, window) or pairs appear more than once")
    if oracle:
        keys = out["key"].to_pylist()
        for spk, want in oracle.items():
            rows = [r for r, k in zip(out.to_pylist(), keys) if k == spk]
            checks.check(f"oracle_{spk}", sorted(map(_canon, rows)) == want,
                         f"engine rows for {spk} differ from OracleExecutor")
    last: dict[int, dict] = {}
    for m in res["metrics"]:
        last[m["partition"]] = m
    seen = sum(m["rows_seen"] for m in last.values())
    late = sum(m["late_rows"] for m in last.values())
    checks.check("rows_seen_equals_input", seen == n_rows,
                 f"rows_seen {seen} != input rows {n_rows}")
    checks.check("no_late_rows", late == 0, f"late_rows = {late}")
    commits = sorted((r["partition"], r["epoch"]) for r in lineage)
    want_commits = [(p, e) for p in range(partitions)
                    for e in range(n_epochs + 1)]
    checks.check("one_commit_per_partition_epoch", commits == want_commits,
                 f"{len(commits)} lineage records, "
                 f"{len(want_commits)} (partition, epoch) pairs expected")
