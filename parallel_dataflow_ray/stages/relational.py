"""Relational building blocks: cents-exact aggregates, joins, top-k.

Design rules applied throughout (SURVEY.md §4 + task brief):

- money/metric doubles are quantized ``rint(x * 10^k) -> int64`` BEFORE
  any sum, making distributed aggregation bit-exact regardless of
  partitioning / fold order (and bit-identical to the DuckDB oracle);
- grouped aggregates pre-combine inside ``map_batches`` (map-side
  partial aggregation) so the shuffle moves one row per (batch, key)
  instead of one per input row;
- small dimension tables are broadcast via ``ray.put`` once, looked up
  per batch — never shuffled;
- large-large joins use ``Dataset.join`` (hash-partitioned).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
def cents(table: pa.Table, col: str, out: str, scale: int = 100) -> pa.Table:
    """Append integer-quantized column ``out = rint(col * scale)``."""
    v = np.rint(table[col].to_numpy(zero_copy_only=False) * scale).astype(np.int64)
    return table.append_column(out, pa.array(v))


class PartialGroupAgg:
    """Map-side combiner: per-batch groupby -> one partial row per key.

    The graft of the reference's partial ``meet`` over predecessor
    values (``impls/src/sequential.rs:32-37``): combine locally, merge
    the small partials in a second, cheap shuffle stage.
    """

    def __init__(self, keys: list[str], sums: list[str] | None = None,
                 count_as: str | None = None):
        self.keys = keys
        self.sums = sums or []
        self.count_as = count_as

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(self.keys, as_index=False, sort=False)
        if self.sums:
            out = g[self.sums].sum()
            if self.count_as:
                # same GroupBy object -> identical group order for size()
                out[self.count_as] = g.size()["size"].to_numpy()
        else:
            out = g.size().rename(columns={"size": self.count_as or "n"})
        return out


def bucketed_groupby(ds: rd.Dataset, keys: list[str], fn,
                     num_buckets: int = 64) -> rd.Dataset:
    """Hash-bucketed grouped apply: add ``bucket = hash(keys) % K``
    per batch, shuffle by the K buckets only, run ``fn`` (pandas in/out,
    vectorized) over each bucket's full rows.

    Ray's ``groupby().aggregate()/map_groups()`` pays per-GROUP overhead
    in its Aggregate operator — measured ~94 s for 38k groups of 38k
    rows where this path takes <1 s.  Bucketing keeps the all-to-all
    exchange (correct co-location: every row of a key lands in exactly
    one bucket) while the per-group work stays inside a vectorized
    pandas kernel.  K bounds shuffle partition count, not correctness;
    raise it for bigger clusters.

    The bucket-tag stage is FORMAT-NATIVE (``batch_format=None``):
    Arrow blocks are hashed zero-copy via polars ``hash_rows`` and
    tagged with an ``append_column`` (no pandas object-dtype
    materialization of string keys before the shuffle — the sort then
    moves Arrow blocks), while pandas blocks keep the pandas hash path
    untouched (some producers carry ndarray object columns a forced
    Arrow conversion would churn).  Bucket assignment only needs to be
    deterministic within a job, so the two hash functions coexisting is
    fine — every row of a key still lands in exactly one bucket.
    """
    import polars as pl

    def add_bucket(b):
        if isinstance(b, pa.Table):
            h = pl.from_arrow(b.select(keys)).hash_rows(seed=0).to_numpy()
            return b.append_column(
                "__bucket",
                pa.array((h % np.uint64(num_buckets)).astype(np.int64)))
        h = pd.util.hash_pandas_object(b[keys], index=False).to_numpy()
        b = b.copy()
        b["__bucket"] = (h % np.uint64(num_buckets)).astype(np.int64)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns="__bucket"))

    # batch_size bounds COALESCING only (blocks are never split): 65536
    # collapsed small inputs into ONE task — and operator fusion bundles
    # on the largest fused batch_size, so the sort behind groupby() then
    # inherited a single block, serializing map_groups too.  4096 keeps
    # a few-way map side on bench-scale inputs with no effect on full
    # 128 MB blocks (which exceed any bundle target anyway).
    return (ds.map_batches(add_bucket, batch_format=None, batch_size=4096)
              .groupby("__bucket")
              .map_groups(per_bucket, batch_format="pandas"))


def grouped_sum(ds: rd.Dataset, keys: list[str], sums: list[str],
                count_as: str | None = None, num_buckets: int = 64
                ) -> rd.Dataset:
    """Map-side partial aggregation -> bucketed vectorized final merge."""
    partial = ds.map_batches(PartialGroupAgg(keys, sums, count_as),
                             batch_format="pandas", batch_size=65536)
    cols = list(sums) + ([count_as] if count_as else [])

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False)[cols].sum()

    return bucketed_groupby(partial, keys, final, num_buckets)


def grouped_moments(ds: rd.Dataset, keys: list[str], col: str,
                    num_buckets: int = 64) -> rd.Dataset:
    """Distributed second-moment aggregate -> ``(keys..., n, mean,
    var_samp, std_samp)`` via map-side ``(count, mean, M2)`` partials
    and Chan et al.'s parallel-merge update at the final stage.

    Why not sum-of-squares: ``E[x^2] - E[x]^2`` cancels catastrophically
    when ``var << mean^2`` (exactly the regime of prices/amounts at
    corpus scale); the M2 form is stable at any n.  The merge is made
    REPLAY-DETERMINISTIC by folding each group's partials in a canonical
    sorted order, so the float result is bit-identical under any block
    arrival order / partition count (asserted in tests/test_moments.py).
    Only O(groups x blocks) 4-column partial rows cross the shuffle —
    the same partial+final discipline as :func:`grouped_sum` (reference
    analog: the frontier-batched executor, SURVEY.md E4)."""
    import math

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        gb = b.groupby(keys, sort=False)
        agg = gb[col].agg(["count", "mean"]).reset_index()
        agg.columns = list(keys) + ["__n", "__mean"]
        d = b[col] - gb[col].transform("mean")
        agg["__m2"] = (d * d).groupby(
            [b[k] for k in keys], sort=False).sum().to_numpy()
        return agg

    def final(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, sub in g.groupby(keys, sort=False):
            sub = sub.sort_values(["__n", "__mean", "__m2"],
                                  kind="mergesort")
            n, mean, m2 = 0, 0.0, 0.0
            for nn, mm, mm2 in zip(sub["__n"].to_numpy(),
                                   sub["__mean"].to_numpy(),
                                   sub["__m2"].to_numpy()):
                if nn == 0:
                    continue
                tot = n + nn
                delta = mm - mean
                m2 += mm2 + delta * delta * (n * nn / tot)
                mean += delta * (nn / tot)
                n = tot
            var = m2 / (n - 1) if n > 1 else float("nan")
            std = math.sqrt(var) if var == var else float("nan")
            kv = list(kv) if isinstance(kv, tuple) else [kv]
            rows.append(kv + [n, mean, var, std])
        out = pd.DataFrame(rows, columns=list(keys)
                           + ["n", "mean", "var_samp", "std_samp"])
        out["n"] = out["n"].astype("int64")
        return out

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=65536)
    return bucketed_groupby(partials, keys, final, num_buckets)


def grouped_corr(ds: rd.Dataset, keys: list[str], x: str, y: str,
                 num_buckets: int = 64) -> rd.Dataset:
    """Distributed bivariate aggregate -> ``(keys..., n, corr,
    covar_samp)`` over PAIRWISE-COMPLETE rows (both columns non-null —
    SQL ``CORR``/``COVAR_SAMP``/``REGR_COUNT`` semantics), via map-side
    ``(n, mean_x, mean_y, M2x, M2y, Cxy)`` partials and the bivariate
    Chan merge.  Same stability and replay-determinism discipline as
    :func:`grouped_moments` (canonical sorted fold; no
    sum-of-products cancellation); only O(groups x blocks) 7-column
    partial rows shuffle."""
    import math

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[list(keys) + [x, y]].dropna(subset=[x, y])
        gb = b.groupby(keys, sort=False)
        agg = gb.size().reset_index()
        agg.columns = list(keys) + ["__n"]
        mx = gb[x].transform("mean")
        my = gb[y].transform("mean")
        gkeys = [b[k] for k in keys]
        agg["__mx"] = gb[x].mean().to_numpy()
        agg["__my"] = gb[y].mean().to_numpy()
        dx = b[x] - mx
        dy = b[y] - my
        agg["__m2x"] = (dx * dx).groupby(gkeys, sort=False).sum().to_numpy()
        agg["__m2y"] = (dy * dy).groupby(gkeys, sort=False).sum().to_numpy()
        agg["__cxy"] = (dx * dy).groupby(gkeys, sort=False).sum().to_numpy()
        return agg

    def final(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, sub in g.groupby(keys, sort=False):
            sub = sub.sort_values(["__n", "__mx", "__my", "__cxy"],
                                  kind="mergesort")
            n, mx, my, m2x, m2y, cxy = 0, 0.0, 0.0, 0.0, 0.0, 0.0
            for nn, pmx, pmy, pm2x, pm2y, pcxy in zip(
                    sub["__n"].to_numpy(), sub["__mx"].to_numpy(),
                    sub["__my"].to_numpy(), sub["__m2x"].to_numpy(),
                    sub["__m2y"].to_numpy(), sub["__cxy"].to_numpy()):
                if nn == 0:
                    continue
                tot = n + nn
                dxm = pmx - mx
                dym = pmy - my
                w = n * nn / tot
                m2x += pm2x + dxm * dxm * w
                m2y += pm2y + dym * dym * w
                cxy += pcxy + dxm * dym * w
                mx += dxm * (nn / tot)
                my += dym * (nn / tot)
                n = tot
            cov = cxy / (n - 1) if n > 1 else float("nan")
            den = math.sqrt(m2x * m2y)
            corr = cxy / den if n > 1 and den > 0 else float("nan")
            kv = list(kv) if isinstance(kv, tuple) else [kv]
            rows.append(kv + [n, corr, cov])
        out = pd.DataFrame(rows,
                           columns=list(keys) + ["n", "corr", "covar_samp"])
        out["n"] = out["n"].astype("int64")
        return out

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=65536)
    return bucketed_groupby(partials, keys, final, num_buckets)


def grouped_hmoments(ds: rd.Dataset, keys: list[str], col: str,
                     num_buckets: int = 64) -> rd.Dataset:
    """Distributed third/fourth-moment aggregate -> ``(keys..., n,
    skew_samp, kurt_samp)`` with SQL ``skewness()`` / ``kurtosis()``
    semantics (bias-corrected sample skewness; sample EXCESS kurtosis —
    the Excel/DuckDB forms, verified empirically against DuckDB).

    Map side: per-batch ``(n, mean, M2, M3, M4)`` central-moment
    partials (vectorized deviation-power sums per group).  Final:
    Pébay's (2008) pairwise central-moment merge — the M3/M4 extension
    of the Chan update :func:`grouped_moments` uses — folded in a
    canonical sorted order so the float result is partition-invariant.
    Only O(groups x blocks) 6-column partial rows cross the shuffle."""
    import math

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        gb = b.groupby(keys, sort=False)
        agg = gb[col].agg(["count", "mean"]).reset_index()
        agg.columns = list(keys) + ["__n", "__mean"]
        d = b[col] - gb[col].transform("mean")
        gkeys = [b[k] for k in keys]
        d2 = d * d
        agg["__m2"] = d2.groupby(gkeys, sort=False).sum().to_numpy()
        agg["__m3"] = (d2 * d).groupby(gkeys, sort=False).sum().to_numpy()
        agg["__m4"] = (d2 * d2).groupby(gkeys, sort=False).sum().to_numpy()
        return agg

    def final(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, sub in g.groupby(keys, sort=False):
            sub = sub.sort_values(["__n", "__mean", "__m2", "__m3"],
                                  kind="mergesort")
            n, mean, m2, m3, m4 = 0, 0.0, 0.0, 0.0, 0.0
            for nn, mm, pm2, pm3, pm4 in zip(
                    sub["__n"].to_numpy(), sub["__mean"].to_numpy(),
                    sub["__m2"].to_numpy(), sub["__m3"].to_numpy(),
                    sub["__m4"].to_numpy()):
                if nn == 0:
                    continue
                tot = n + nn
                delta = mm - mean
                d_n = delta / tot
                w = n * nn * d_n                      # delta * nA*nB/tot
                m4 += (pm4 + w * d_n * d_n * delta
                       * (n * n - n * nn + nn * nn)
                       + 6.0 * d_n * d_n * (n * n * pm2 + nn * nn * m2)
                       + 4.0 * d_n * (n * pm3 - nn * m3))
                m3 += (pm3 + w * d_n * delta * (n - nn)
                       + 3.0 * d_n * (n * pm2 - nn * m2))
                m2 += pm2 + w * delta
                mean += d_n * nn
                n = tot
            # DuckDB/Excel bias-corrected forms over the merged central
            # moments (s = sample std): skew = n/((n-1)(n-2)) * M3/s^3;
            # kurt = n(n+1)/((n-1)(n-2)(n-3)) * M4/s^4 - 3(n-1)^2/((n-2)(n-3))
            if n > 2 and m2 > 0.0:
                s = math.sqrt(m2 / (n - 1))
                skew = n / ((n - 1) * (n - 2)) * (m3 / s ** 3)
            else:
                skew = float("nan")
            if n > 3 and m2 > 0.0:
                s = math.sqrt(m2 / (n - 1))
                kurt = (n * (n + 1) / ((n - 1) * (n - 2) * (n - 3))
                        * (m4 / s ** 4)
                        - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3)))
            else:
                kurt = float("nan")
            kv = list(kv) if isinstance(kv, tuple) else [kv]
            rows.append(kv + [n, skew, kurt])
        out = pd.DataFrame(rows, columns=list(keys)
                           + ["n", "skew_samp", "kurt_samp"])
        out["n"] = out["n"].astype("int64")
        return out

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=65536)
    return bucketed_groupby(partials, keys, final, num_buckets)


def distinct_set_op(left: rd.Dataset, right: rd.Dataset, key: str,
                    op: str, num_buckets: int = 16) -> rd.Dataset:
    """Distributed SQL set operation on DISTINCT keys: ``intersect``
    (key present on both sides) or ``except`` (present left, absent
    right).

    Shape: tag each side with an indicator pair, union, collapse each
    batch to distinct ``(key, max_l, max_r)`` partials (the shuffle
    moves one row per distinct key per block, never the inputs), then
    one bucketed final max + filter.  The same plumbing as
    ``grouped_sum`` — a set op IS a grouped max over presence bits."""
    if op not in ("intersect", "except"):
        raise ValueError(op)

    def tag(is_left: bool):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            out = b[[key]].drop_duplicates().copy()
            out["__l"] = np.int64(1 if is_left else 0)
            out["__r"] = np.int64(0 if is_left else 1)
            return out
        return fn

    both = (left.map_batches(tag(True), batch_format="pandas",
                             batch_size=65536)
            .union(right.map_batches(tag(False), batch_format="pandas",
                                     batch_size=65536)))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(key, as_index=False)[["__l", "__r"]].max()
        if op == "intersect":
            m = m[(m["__l"] == 1) & (m["__r"] == 1)]
        else:
            m = m[(m["__l"] == 1) & (m["__r"] == 0)]
        return m[[key]]

    return bucketed_groupby(both, [key], final, num_buckets)


def grouped_mode(ds: rd.Dataset, keys: list[str], col: str,
                 count_name: str = "n_mode",
                 num_buckets: int = 64) -> rd.Dataset:
    """Most-frequent ``col`` value per key group with a DETERMINISTIC
    tie-break (highest count, then smallest value — SQL's
    ``ROW_NUMBER() OVER (ORDER BY n DESC, value)`` twin, unlike bare
    ``mode()`` whose ties are engine-defined).  Shape: map-side
    (keys, col) count partials (:func:`grouped_sum`) -> one bucketed
    merge keyed on the GROUP -> vectorized per-bucket sort +
    drop_duplicates.  Only O(distinct (key, value) pairs) count rows
    ever shuffle — never raw rows — so a skewed hot value costs one
    counter, not a hot partition."""
    counts = grouped_sum(ds, list(keys) + [col], [], count_as=count_name,
                         num_buckets=num_buckets)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(list(keys) + [count_name, col],
                          ascending=[True] * len(keys) + [False, True],
                          kind="mergesort")
        return g.drop_duplicates(list(keys))

    return bucketed_groupby(counts, list(keys), pick, num_buckets)


def grouped_argmax(ds: rd.Dataset, keys: list[str], order: list[str],
                   num_buckets: int = 64) -> rd.Dataset:
    """Latest-row-per-key (SQL ``arg_max`` / ``DISTINCT ON`` / top-1
    window): the whole row that maximizes ``order`` (lexicographic,
    ties impossible when the last order column is unique — pass the
    row id last to make the pick deterministic).

    Map side: each batch reduces to ONE candidate row per key (sort +
    drop_duplicates — the max is a semilattice meet, so per-batch
    winners merge exactly); final: the same pick over the merged
    candidates.  Only O(keys x blocks) full-width rows shuffle, never
    the table — the classic "current state per entity" extraction a
    CDC / sessionized store runs continuously."""
    asc = [True] * len(keys) + [False] * len(order)

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(keys + order, ascending=asc, kind="mergesort")
        return b.drop_duplicates(keys)

    partial = ds.map_batches(pick, batch_format="pandas",
                             batch_size=65536)
    return bucketed_groupby(partial, keys, pick, num_buckets)


def broadcast_lookup(ds: rd.Dataset, lookup_df: pd.DataFrame, on: str,
                     add_columns: list[str],
                     project: list[str] | None = None) -> rd.Dataset:
    """Broadcast-small-side join: ``ray.put`` the dimension table once;
    every task maps keys through it — no shuffle.  ``project`` prunes the
    output to just those columns inside the same pass (no follow-up
    projection stage)."""
    ref = ray.put(lookup_df.set_index(on)[add_columns])

    class Lookup:
        """Instance-as-UDF: pickles only the ObjectRef; each task reads
        the broadcast table from its node's object store (ray.get,
        zero-copy for Arrow-backed frames) — no per-query actor-pool
        spin-up, no table re-shipping per batch."""

        def __init__(self):
            self.ref = ref
            self.lut: pd.DataFrame | None = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.lut is None:
                self.lut = ray.get(self.ref)
            joined = batch.join(self.lut, on=on)
            return joined[project] if project else joined

    return ds.map_batches(Lookup(), batch_format="pandas", batch_size=65536)


def bucket_join(left: rd.Dataset, right: rd.Dataset, on: str,
                right_on: str | None = None, *, num_buckets: int = 32,
                how: str = "inner") -> rd.Dataset:
    """Hash-bucketed co-shuffle equi-join built from the same
    ``bucketed_groupby`` machinery as the aggregates: tag both sides,
    union, bucket by key hash, ``pd.merge`` per bucket (vectorized).

    Unlike the native ``Dataset.join`` this spawns NO aggregator actor
    pool, so chained/iterated joins (label propagation rounds, pair
    verification) can't starve each other's CPU reservations on a small
    budget; co-location is the same guarantee (every row of a key lands
    in exactly one bucket).  Dtypes are restored per side after the
    union's null-fill promotion.

    ``how`` accepts every ``pd.merge`` mode — ``"inner"`` / ``"left"``
    / ``"right"`` / ``"outer"`` — because each key's rows from BOTH
    sides co-locate in exactly one bucket, the per-bucket merge IS the
    global outer join (unmatched rows of either side surface in their
    key's bucket).  Null-filled columns from the unmatched side follow
    pandas promotion (int -> float); callers that need integer-exact
    output sentinel-fill and cast back.

    ``how`` additionally accepts ``"semi"`` / ``"anti"``: left rows with
    ≥1 / 0 key matches on the right — only the right side's KEY column
    crosses the shuffle for those modes (right payload columns are
    dropped at the tag stage), so an existence probe against a wide
    build side never ships the build side's payload.

    The tag stages stay PANDAS deliberately (measured, not assumed): an
    Arrow-native variant — both sides conformed to an explicit union
    schema with typed-null fills, shuffled as Arrow blocks — was built
    and A/B'd at sf0.1 on Ray 2.49; the sort + per-group
    pandas conversion over null-filled Arrow union blocks ran the join
    battery ~2x SLOWER (q3_top_orders 5.8s vs 2.9s same-phase) than the
    pandas-block path, while the format-native ``bucketed_groupby``
    bucket-tag above kept all of its win.  Revisit if Ray's sort gains
    a fast path for unified-schema Arrow blocks."""
    right_on = right_on or on
    existence = how in ("semi", "anti")
    lsch, rsch = left.schema(), right.schema()
    lcols = list(lsch.names)
    rcols = [on] if existence else [on if c == right_on else c
                                    for c in rsch.names]
    ltypes = {n: t for n, t in zip(lsch.names, lsch.types)}
    rtypes = {(on if n == right_on else n): t
              for n, t in zip(rsch.names, rsch.types)
              if not existence or n == right_on}

    def tag_left(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__side"] = 0
        return b

    def tag_right(b: pd.DataFrame) -> pd.DataFrame:
        if existence:
            # existence probe: only distinct key values cross the shuffle
            b = b[[right_on]].drop_duplicates()
        else:
            b = b.copy()
        if right_on != on:
            b = b.rename(columns={right_on: on})
        b["__side"] = 1
        return b

    tagged = left.map_batches(tag_left, batch_format="pandas").union(
        right.map_batches(tag_right, batch_format="pandas"))

    def _restore(df: pd.DataFrame, types: dict) -> pd.DataFrame:
        # schema types are pyarrow DataTypes for Arrow blocks but plain
        # numpy dtypes for pandas blocks — accept both
        for c, t in types.items():
            dt = t.to_pandas_dtype() if hasattr(t, "to_pandas_dtype") else t
            try:
                df[c] = df[c].astype(dt, copy=False)
            except (ValueError, TypeError):
                pass
        return df

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = _restore(g.loc[g["__side"] == 0, lcols].copy(), ltypes)
        r = _restore(g.loc[g["__side"] == 1, rcols].copy(), rtypes)
        if existence:
            mask = l[on].isin(r[on].unique())
            return l[mask if how == "semi" else ~mask]
        return l.merge(r, on=on, how=how)

    return bucketed_groupby(tagged, [on], per_bucket, num_buckets)


def snap_lineage(ds: rd.Dataset) -> rd.Dataset:
    """Execute ``ds`` and re-root it as a FRESH Dataset over the
    materialized Arrow block refs (zero-copy — the blocks stay in the
    object store; nothing touches the driver heap).

    Why not plain ``materialize()``: a MaterializedDataset retains its
    logical-plan chain, and in an ITERATIVE loop whose round plan
    contains a union (``bucket_join``'s tagged union), the retained
    chain compounds — measured on Ray 2.49, per-round DRIVER cost grows
    ~1.8x/round (0.2 s at round 3 → 7.6 s at round 11 on a 60-node toy
    state) with the driver pinned at 100% CPU while workers idle.
    Rebuilding from block refs keeps the per-round plan constant-size:
    same probe runs flat at ~0.3 s/round.  Every loop that carries a
    Dataset across rounds through a join/union (graph fixpoints,
    iterative refinement) must snap with THIS, not ``materialize()``."""
    return rd.from_arrow_refs(ds.to_arrow_refs())


def top_k(ds: rd.Dataset, by: list[tuple[str, bool]], k: int) -> pa.Table:
    """Global top-k: per-block local top-k inside map_batches, then one
    small final merge — never a full global sort of the dataset.
    ``by`` = [(column, descending?), ...]; include a unique tiebreak."""
    order = [(c, "descending" if desc else "ascending") for c, desc in by]

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(batch, sort_keys=order)[:k]
        return batch.take(idx)

    small = ds.map_batches(local_topk, batch_format="pyarrow").take_all()
    merged = pa.Table.from_pylist(small)
    return merged.take(pc.sort_indices(merged, sort_keys=order)[:k])
