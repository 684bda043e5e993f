"""Similarity search over embedding columns: brute-force cosine top-k
(baseline) and an IVF-bucketed approximate variant (scale path).

Brute force: the query matrix is broadcast once (``ray.put``); every
``map_batches`` task computes a (batch x queries) float64 matmul and
emits only its local top-k per query; a final tiny merge selects the
global top-k.  No full similarity matrix ever exists.

IVF: k-means-ish coarse centroids (deterministic seed, few Lloyd
rounds on a sample), assign each vector to its nearest centroid inside
``map_batches``, search only the ``nprobe`` closest centroid buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd


def _stack(batch: pd.DataFrame, vec_col: str) -> np.ndarray:
    m = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def _topk_quantized(cm: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-``k`` by (cm desc, id asc) — the quantized,
    partition-invariant selection key — at argpartition cost: O(n)
    partition to the k boundary, widen the candidate set by
    boundary-value ties, lexsort ONLY the candidates.  Equivalent to
    ``np.lexsort((ids, -cm))[:k]`` (the all-tied batch degenerates to
    that) without paying O(n log n) on the ADC hot path."""
    n = len(cm)
    if k >= n:
        return np.lexsort((ids, -cm))
    part = np.argpartition(-cm, k - 1)[:k]
    thr = cm[part].min()
    cand = np.nonzero(cm >= thr)[0]
    order = np.lexsort((ids[cand], -cm[cand]))
    return cand[order[:k]]


def brute_force_topk(ds: rd.Dataset, queries: np.ndarray, k: int,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     exclude_self: bool = True) -> pd.DataFrame:
    """Exact cosine top-k. Returns (query_id, rank, vec_id, cos_milli)."""
    Q = queries.astype(np.float64)
    Q /= np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-12)
    qref = ray.put(Q)

    class LocalTopK:
        def __init__(self):
            self.Q = ray.get(qref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = _stack(batch, vec_col)
            ids = batch[id_col].to_numpy()
            sim = X @ self.Q.T  # (n, q)
            kk = min(k + 1, sim.shape[0])
            top = np.argpartition(-sim, kk - 1, axis=0)[:kk]
            rows = []
            for q in range(sim.shape[1]):
                for i in top[:, q]:
                    rows.append((q, ids[i], sim[i, q]))
            return pd.DataFrame(rows, columns=["query_id", id_col, "cos"])

    local = ds.map_batches(LocalTopK, batch_format="pandas", batch_size=4096,
                           concurrency=(1, 8)).to_pandas()
    out = []
    for q, g in local.groupby("query_id"):
        g = g.sort_values(["cos", id_col], ascending=[False, True])
        if exclude_self:
            g = g[g[id_col] != q]
        g = g.head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1)
        out.append(g)
    res = pd.concat(out, ignore_index=True)
    res["cos_milli"] = np.rint(res["cos"] * 1000).astype(np.int64)
    return res[["query_id", "rank", id_col, "cos_milli"]]


def train_centroids(ds: rd.Dataset, n_centroids: int, vec_col: str = "embedding",
                    sample: int = 4096, iters: int = 5, seed: int = 7,
                    id_col: str = "vec_id") -> np.ndarray:
    """Deterministic mini k-means on an UNBIASED driver-side sample
    (hash-priority reservoir over the whole dataset — a ``limit()``
    sample only saw the first blocks)."""
    from .sampling import reservoir_sample

    X = _stack(reservoir_sample(ds, sample, id_col=id_col, seed=seed)
               .to_pandas(), vec_col)
    rng = np.random.default_rng(seed)
    C = X[rng.choice(X.shape[0], n_centroids, replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for c in range(n_centroids):
            m = X[assign == c]
            if len(m):
                v = m.mean(axis=0)
                C[c] = v / max(np.linalg.norm(v), 1e-12)
    return C


def load_or_train_centroids(ds: rd.Dataset, n_centroids: int, *,
                            cache_path: str, vec_col: str = "embedding",
                            id_col: str = "vec_id", seed: int = 7) -> np.ndarray:
    """Centroids trained ONCE per dataset and persisted as a tiny parquet
    artifact (one list<double> row per centroid) — repeat ivf_topk calls
    load instead of re-running Lloyd rounds.  Training is seeded, so a
    cache hit is bit-identical to a retrain."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    if os.path.exists(cache_path):
        t = pq.read_table(cache_path)
        return np.stack(t["centroid"].to_numpy(zero_copy_only=False))
    C = train_centroids(ds, n_centroids, vec_col, seed=seed, id_col=id_col)
    os.makedirs(os.path.dirname(cache_path), exist_ok=True)
    tmp = f"{cache_path}.tmp.{os.getpid()}"
    pq.write_table(pa.table({"centroid": pa.array(
        [row.tolist() for row in C], type=pa.list_(pa.float64()))}), tmp)
    os.replace(tmp, cache_path)          # atomic: concurrent callers race safely
    return C


def ivf_topk(ds: rd.Dataset, queries: np.ndarray, k: int, *,
             n_centroids: int = 16, nprobe: int = 4,
             id_col: str = "vec_id", vec_col: str = "embedding",
             centroids: np.ndarray | None = None) -> pd.DataFrame:
    """Approximate top-k: search only vectors whose centroid is among the
    query's ``nprobe`` nearest.  Same output schema as brute force.
    Pass ``centroids`` (e.g. from :func:`load_or_train_centroids`) to
    skip the per-call training pass."""
    C = train_centroids(ds, n_centroids, vec_col) if centroids is None \
        else centroids.astype(np.float64)
    cref = ray.put(C)
    Q = queries.astype(np.float64)
    Q /= np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-12)
    probe = np.argsort(-(Q @ C.T), axis=1)[:, :nprobe]  # (q, nprobe)
    # (n_centroids, q) membership LUT: probe-list lookup per row is one
    # fancy index, no per-row Python membership test
    lut = np.zeros((C.shape[0], Q.shape[0]), dtype=bool)
    lut[probe.ravel(), np.repeat(np.arange(Q.shape[0]), probe.shape[1])] = True
    lref = ray.put(lut)
    qref = ray.put(Q)

    class ProbedTopK:
        def __init__(self):
            self.C = ray.get(cref)
            self.lut = ray.get(lref)
            self.Q = ray.get(qref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = _stack(batch, vec_col)
            ids = batch[id_col].to_numpy()
            cent = np.argmax(X @ self.C.T, axis=1)
            sim = X @ self.Q.T
            in_probe = self.lut[cent]                  # (n, q) bool
            qs_out, ids_out, cos_out = [], [], []
            for q in range(self.Q.shape[0]):
                idx = np.nonzero(in_probe[:, q])[0]
                if idx.size == 0:
                    continue
                kk = min(k + 1, idx.size)
                loc = idx[np.argpartition(-sim[idx, q], kk - 1)[:kk]]
                qs_out.append(np.full(loc.size, q, dtype=np.int64))
                ids_out.append(ids[loc])
                cos_out.append(sim[loc, q])
            if not qs_out:
                return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                     id_col: pd.Series(dtype="int64"),
                                     "cos": pd.Series(dtype="float64")})
            return pd.DataFrame({"query_id": np.concatenate(qs_out),
                                 id_col: np.concatenate(ids_out),
                                 "cos": np.concatenate(cos_out)})

    local = ds.map_batches(ProbedTopK, batch_format="pandas", batch_size=4096,
                           concurrency=(1, 8)).to_pandas()
    out = []
    for q, g in local.groupby("query_id"):
        g = g.sort_values(["cos", id_col], ascending=[False, True])
        g = g[g[id_col] != q].head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1)
        out.append(g)
    res = pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        columns=["query_id", id_col, "cos", "rank"])
    res["cos_milli"] = np.rint(res["cos"].astype(float) * 1000).astype(np.int64)
    return res[["query_id", "rank", id_col, "cos_milli"]]


def self_join_topk(ds: rd.Dataset, k: int, *, id_col: str = "vec_id",
                   vec_col: str = "embedding", num_blocks: int = 8
                   ) -> rd.Dataset:
    """ANN self-join: every vector's exact cosine top-k neighbors —
    (query_id, rank, neighbor_id, cos_milli) — fully distributed.

    Same block-pair decomposition as ``embedding_neardup_pairs``
    (stages/dedup.py): each vector is replicated to its B unordered
    block pairs, one bucketed-groupby task per pair runs a vectorized
    matmul and keeps only each row's LOCAL top-k candidates (ordered by
    the composite key ``cos_milli * 2^41 - neighbor_id``, i.e. quantized
    similarity desc then id asc — quantized so ranking is bit-stable
    against the DuckDB oracle's ROUND(...*1000)).  A second bucketed
    groupby on query_id merges the <= B*k candidates per row into the
    global exact top-k.  Nothing row-count-squared ever materializes in
    one place; per-task cost is (n/B)^2 like the near-dup search.

    Assumes ids < 2^41 (composite-key headroom); raise the shift for
    wider id spaces.
    """
    from .relational import bucketed_groupby
    from ..streaming.partitioning import stable_hash

    B = max(1, int(num_blocks))
    SHIFT = np.int64(1) << np.int64(41)

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        ids = batch[id_col].to_numpy()
        blk = (stable_hash(ids) % np.uint64(B)).astype(np.int64)
        outs = []
        for o in range(B):
            outs.append(pd.DataFrame({
                id_col: ids, "__vec": list(m), "__blk": blk,
                "__b1": np.minimum(blk, o), "__b2": np.maximum(blk, o)}))
        return pd.concat(outs, ignore_index=True)

    def _local_topk(q_ids, nb_ids, qm) -> pd.DataFrame:
        """Per-row top-k candidates from a quantized (rows x cols) sim
        block; qm values already int64 milli."""
        key = qm * SHIFT - nb_ids[None, :].astype(np.int64)
        kk = min(k, key.shape[1])
        part = np.argpartition(-key, kk - 1, axis=1)[:, :kk]
        rows = np.repeat(q_ids, kk)
        cols = part.ravel()
        return pd.DataFrame({
            "query_id": rows.astype(np.int64),
            "neighbor_id": nb_ids[cols].astype(np.int64),
            "cos_milli": qm[np.repeat(np.arange(len(q_ids)), kk), cols]})

    def per_pair(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for (b1, b2), sub in g.groupby(["__b1", "__b2"], sort=False):
            if b1 == b2:
                ids = sub[id_col].to_numpy()
                X = np.stack(sub["__vec"].to_numpy())
                qm = np.rint((X @ X.T) * 1000).astype(np.int64)
                np.fill_diagonal(qm, np.int64(-(1 << 20)))  # exclude self
                outs.append(_local_topk(ids, ids, qm))
            else:
                la = sub[sub["__blk"] == b1]
                lb = sub[sub["__blk"] == b2]
                if la.empty or lb.empty:
                    continue
                A = np.stack(la["__vec"].to_numpy())
                Bm = np.stack(lb["__vec"].to_numpy())
                qm = np.rint((A @ Bm.T) * 1000).astype(np.int64)
                ia = la[id_col].to_numpy()
                ib = lb[id_col].to_numpy()
                outs.append(_local_topk(ia, ib, qm))
                outs.append(_local_topk(ib, ia, qm.T.copy()))
        if not outs:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "neighbor_id": pd.Series(dtype="int64"),
                                 "cos_milli": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    cand = bucketed_groupby(
        ds.map_batches(explode, batch_format="pandas", batch_size=8192),
        ["__b1", "__b2"], per_pair, num_buckets=B * (B + 1) // 2)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["cos_milli"] > -(1 << 20)]  # drop self-sentinel candidates
        g = g.sort_values(["query_id", "cos_milli", "neighbor_id"],
                          ascending=[True, False, True], kind="mergesort")
        g = g.groupby("query_id", sort=False).head(k).reset_index(drop=True)
        g["rank"] = g.groupby("query_id", sort=False).cumcount() + 1
        return g[["query_id", "rank", "neighbor_id", "cos_milli"]]

    return bucketed_groupby(cand, ["query_id"], merge)


# ---------------------------------------------------------------------------
# distributed k-means (full-corpus Lloyd rounds)
# ---------------------------------------------------------------------------

def kmeans_fit(ds: rd.Dataset, n_clusters: int = 8, *, iters: int = 5,
               seed: int = 7, vec_col: str = "embedding",
               id_col: str = "vec_id", q_bits: int = 20):
    """Spherical k-means over the FULL dataset (not a sample): per round,
    centroids are broadcast once (``ray.put``), every batch assigns its
    vectors (one matmul) and emits ONE partial row per touched cluster —
    quantized int64 component sums + count + quantized inertia — so the
    per-round shuffle is O(n_clusters x batches) rows and the driver
    only ever sees n_clusters merged rows.

    Quantization (``round(x * 2^q_bits)`` before summing) makes the
    reduction ORDER-INDEPENDENT: any partitioning yields bit-identical
    centroids, so the distributed fit equals a driver-local twin exactly
    (tested) — the same replay/partition-invariance discipline the
    streaming sums use.  Init: deterministic hash-priority reservoir
    sample.  Returns (centroids ndarray, history DataFrame with one row
    per round: inertia_q sums of (2^q_bits - round(cos * 2^q_bits)))."""
    from .relational import grouped_sum
    from .sampling import reservoir_sample

    Q = np.int64(1) << q_bits
    init = reservoir_sample(ds, n_clusters, id_col=id_col, seed=seed
                            ).to_pandas().sort_values(id_col)
    C = _stack(init, vec_col)
    dim = C.shape[1]
    scols = [f"s{j}" for j in range(dim)]
    hist = []
    for _ in range(iters):
        cref = ray.put(C)

        class Partials:
            """Instance-as-UDF: ships the ObjectRef, reads the round's
            centroids once per task from the local object store."""

            def __init__(self):
                self.C: np.ndarray | None = None

            def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
                if self.C is None:
                    self.C = ray.get(cref)
                X = _stack(batch, vec_col)
                cos = X @ self.C.T
                a = np.argmax(cos, axis=1)
                best_q = np.rint(cos[np.arange(len(a)), a] * Q).astype(np.int64)
                Xq = np.rint(X * Q).astype(np.int64)
                k = self.C.shape[0]
                sums = np.zeros((k, X.shape[1]), dtype=np.int64)
                np.add.at(sums, a, Xq)
                cnt = np.bincount(a, minlength=k).astype(np.int64)
                inertia = np.zeros(k, dtype=np.int64)
                np.add.at(inertia, a, Q - best_q)
                touched = cnt > 0
                out = pd.DataFrame(sums[touched], columns=scols)
                out.insert(0, "cluster", np.nonzero(touched)[0].astype(np.int64))
                out["n_vectors"] = cnt[touched]
                out["inertia_q"] = inertia[touched]
                return out

        agg = grouped_sum(ds.map_batches(Partials(), batch_format="pandas",
                                         batch_size=8192),
                          ["cluster"], scols + ["n_vectors", "inertia_q"],
                          num_buckets=8).to_pandas().sort_values("cluster")
        hist.append({"inertia_q": int(agg["inertia_q"].sum()),
                     "n_vectors": int(agg["n_vectors"].sum())})
        newC = C.copy()
        # ascontiguousarray: pandas hands back a column-major block; the
        # norm's row reduction order (and thus the last ulp) must match
        # the C-ordered local twin for bit-exact determinism
        m = np.ascontiguousarray(
            agg[scols].to_numpy(dtype=np.float64)) / float(Q)
        cnt = agg["n_vectors"].to_numpy(dtype=np.float64)[:, None]
        mean = m / cnt
        mean /= np.maximum(np.linalg.norm(mean, axis=1, keepdims=True), 1e-12)
        newC[agg["cluster"].to_numpy()] = mean
        C = newC
    return C, pd.DataFrame(hist)


def kmeans_assign(ds: rd.Dataset, centroids: np.ndarray, *,
                  vec_col: str = "embedding", id_col: str = "vec_id"
                  ) -> rd.Dataset:
    """Label every vector with its nearest (cosine) centroid — one
    broadcast, one matmul per batch, no shuffle."""
    cref = ray.put(centroids)

    class Assign:
        def __init__(self):
            self.C: np.ndarray | None = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.C is None:
                self.C = ray.get(cref)
            X = _stack(batch, vec_col)
            return pd.DataFrame({
                id_col: batch[id_col].to_numpy(),
                "cluster": np.argmax(X @ self.C.T, axis=1).astype(np.int64)})

    return ds.map_batches(Assign(), batch_format="pandas", batch_size=8192)


# ---------------------------------------------------------------------------
# int8 embedding quantization — the storage/shuffle scale lever
# ---------------------------------------------------------------------------


def quantize_embeddings(ds: rd.Dataset, *, vec_col: str = "embedding",
                        id_col: str = "vec_id") -> rd.Dataset:
    """Per-vector symmetric int8 quantization: ``q = round(127 * x /
    max|x|)`` with the per-vector scale carried alongside.  4x smaller
    than float32 (16x vs float64) for every byte the similarity suite
    stores, broadcasts or shuffles.  Cosine similarity is per-vector
    scale-invariant, so the ONLY error quantization introduces is the
    int8 rounding of each vector's direction (~0.4 % per component) —
    recall against the float path is property-tested.  Output:
    (id, q_embedding list<int8>, scale float32)."""

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b[vec_col].to_numpy()).astype(np.float32)
        s = np.maximum(np.abs(X).max(axis=1) / 127.0, 1e-12)
        q = np.clip(np.rint(X / s[:, None]), -127, 127).astype(np.int8)
        return pd.DataFrame({id_col: b[id_col],
                             "q_embedding": list(q),
                             "scale": s.astype(np.float32)})

    return ds.map_batches(fn, batch_format="pandas", batch_size=4096)


def brute_force_topk_q8(qds: rd.Dataset, queries: np.ndarray, k: int,
                        id_col: str = "vec_id",
                        vec_col: str = "q_embedding",
                        exclude_self: bool = True) -> pd.DataFrame:
    """Exact cosine top-k over an int8-quantized corpus (same shape as
    :func:`brute_force_topk`: broadcast queries, block-local top-k,
    tiny global merge).  Blocks dequantize-and-normalize on the fly —
    the scale column cancels under normalization, so it is not even
    read; the bandwidth saving is in what the corpus column COSTS to
    store and move, not in the matmul."""
    Q = queries.astype(np.float64)
    Q /= np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-12)
    qref = ray.put(Q)

    class LocalTopKQ8:
        def __init__(self):
            self.Q = ray.get(qref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
            X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
            ids = batch[id_col].to_numpy()
            sim = X @ self.Q.T
            kk = min(k + 1, sim.shape[0])
            top = np.argpartition(-sim, kk - 1, axis=0)[:kk]
            rows = []
            for q in range(sim.shape[1]):
                for i in top[:, q]:
                    rows.append((q, ids[i], sim[i, q]))
            return pd.DataFrame(rows, columns=["query_id", id_col, "cos"])

    local = qds.map_batches(LocalTopKQ8, batch_format="pandas",
                            batch_size=4096, concurrency=(1, 8)).to_pandas()
    out = []
    for q, g in local.groupby("query_id"):
        g = g.sort_values(["cos", id_col], ascending=[False, True])
        if exclude_self:
            g = g[g[id_col] != q]
        g = g.head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1)
        out.append(g)
    res = pd.concat(out, ignore_index=True)
    res["cos_milli"] = np.rint(res["cos"] * 1000).astype(np.int64)
    return res[["query_id", "rank", id_col, "cos_milli"]]


# ---------------------------------------------------------------------------
# SemDeDup — semantic deduplication (Abbas et al. 2023, public method)
# ---------------------------------------------------------------------------

_SEMDEDUP_TILE = 4096      # pair-matrix tile edge inside a cluster


def semdedup(ds: rd.Dataset, *, n_clusters: int = 8,
             threshold: float = 0.96, iters: int = 5, seed: int = 7,
             vec_col: str = "embedding", id_col: str = "vec_id",
             num_buckets: int = 16) -> rd.Dataset:
    """SemDeDup: k-means the embedding space, then WITHIN each cluster
    drop all but the canonical (min-id) member of every semantic
    near-duplicate group (cosine >= ``threshold``, connected
    components).  The published recipe's two-level shape is exactly
    what makes it scale: the k-means pass is O(n x k) matmuls with an
    O(k x batches) shuffle (``kmeans_fit``), and the quadratic cosine
    work is confined to single clusters — at 10^12 rows, raise
    ``n_clusters`` so clusters stay ~10-100k rows and each per-cluster
    task is one tiled matmul.

    Determinism: centroids are bit-identical to a driver-local twin
    (``kmeans_fit``'s quantized reductions), and the keep/drop gate
    compares ``round(cos * 2^20)`` so it is batch/partition invariant.
    Output: ONE row per surviving vector — (id, cluster, n_semdups)
    where n_semdups is its duplicate-group size (1 = no near-dup).
    """
    from .relational import bucketed_groupby

    C, _ = kmeans_fit(ds, n_clusters, iters=iters, seed=seed,
                      vec_col=vec_col, id_col=id_col)
    cref = ray.put(C)
    thr_q = int(round(threshold * (1 << 20)))

    class AssignWithVec:
        """(id, vector) -> (id, cluster, vector): the only stage that
        moves vectors, and it moves each exactly once into its
        cluster's bucket."""

        def __init__(self):
            self.C: np.ndarray | None = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.C is None:
                self.C = ray.get(cref)
            X = _stack(batch, vec_col)
            return pd.DataFrame({
                id_col: batch[id_col].to_numpy(),
                "cluster": np.argmax(X @ self.C.T, axis=1).astype(np.int64),
                vec_col: list(X)})

    assigned = ds.map_batches(AssignWithVec(), batch_format="pandas",
                              batch_size=8192)

    def per_cluster(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for cl, sub in g.groupby("cluster", sort=False):
            sub = sub.sort_values(id_col, kind="mergesort")
            ids = sub[id_col].to_numpy()
            X = np.stack(sub[vec_col].to_numpy())
            m = ids.size
            parent = np.arange(m)

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i0 in range(0, m, _SEMDEDUP_TILE):
                A = X[i0:i0 + _SEMDEDUP_TILE]
                for j0 in range(i0, m, _SEMDEDUP_TILE):
                    B = X[j0:j0 + _SEMDEDUP_TILE]
                    q = np.rint((A @ B.T) * (1 << 20)).astype(np.int64)
                    hit = q >= thr_q
                    if i0 == j0:
                        hit = np.triu(hit, k=1)
                    for a, b in zip(*np.nonzero(hit)):
                        ra, rb = find(i0 + a), find(j0 + b)
                        if ra != rb:
                            parent[max(ra, rb)] = min(ra, rb)
            roots = np.array([find(i) for i in range(m)])
            sizes = np.bincount(roots, minlength=m)
            keep = roots == np.arange(m)         # min-id per component
            outs.append(pd.DataFrame({
                id_col: ids[keep],
                "cluster": np.full(int(keep.sum()), cl, np.int64),
                "n_semdups": sizes[keep].astype(np.int64)}))
        if not outs:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "cluster": pd.Series(dtype="int64"),
                                 "n_semdups": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    return bucketed_groupby(assigned, ["cluster"], per_cluster,
                            num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# distributed PCA (embedding whitening / dimensionality reduction)
# ---------------------------------------------------------------------------

def pca_fit(ds: rd.Dataset, *, vec_col: str = "embedding",
            k: int = 8, q_bits: int = 20):
    """Distributed PCA fit: exact-INTEGER mean/second-moment partials
    (each row's components and outer products quantized at 2^q_bits
    before summation — the ``kmeans_fit`` discipline, so the reduction
    is order/partition-independent and the distributed fit equals a
    driver-local twin BIT-EXACTLY), then one d x d eigendecomposition
    on the driver (d is small; the data never leaves the cluster).

    Shuffle cost: each batch emits d(d+3)/2 + 1 long-form (index, sum)
    rows — O(d^2 x batches) tiny integers, never vectors.  int64 bound:
    |sum of quantized outer products| <= n * 2^(2*q_bits) (unit-norm
    rows), so q_bits=20 holds to ~8e6 rows per fit; drop q_bits or
    hierarchical-reduce beyond.  Returns ``(mean (d,), components
    (k, d) eigenvalue-descending with a deterministic sign convention,
    eigenvalues (d,), n)``."""
    from .relational import grouped_sum

    Q = np.int64(1) << q_bits

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b[vec_col].to_numpy()).astype(np.float64)
        Xq = np.rint(X * Q).astype(np.int64)
        d = Xq.shape[1]
        iu = np.triu_indices(d)
        # sum of outer products over the batch, upper triangle only
        S2 = (Xq.T @ Xq)[iu]
        S1 = Xq.sum(axis=0)
        idx = np.concatenate(([0], 1 + np.arange(d),
                              1 + d + np.arange(iu[0].size)))
        val = np.concatenate(([np.int64(len(b))], S1, S2))
        return pd.DataFrame({"__i": idx, "__v": val})

    sums = grouped_sum(ds.map_batches(partial, batch_format="pandas",
                                      batch_size=4096),
                       ["__i"], ["__v"], num_buckets=4).to_pandas() \
        .sort_values("__i")
    v = sums["__v"].to_numpy(np.int64)
    n = int(v[0])
    # infer d from the long-form length: 1 + d + d(d+1)/2 rows
    d = int((np.sqrt(9 + 8 * (v.size - 1)) - 3) // 2)
    S1 = v[1:1 + d].astype(np.float64)
    iu = np.triu_indices(d)
    M2 = np.zeros((d, d), np.float64)
    M2[iu] = v[1 + d:].astype(np.float64)
    M2 = M2 + M2.T - np.diag(np.diag(M2))
    mean = S1 / (n * Q)
    cov = M2 / (n * Q * Q) - np.outer(mean, mean)
    w, V = np.linalg.eigh(cov)              # ascending
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    # deterministic sign: largest-|component| entry positive
    flip = V[np.abs(V).argmax(axis=0), np.arange(d)] < 0
    V[:, flip] *= -1.0
    return mean, V[:, :k].T.copy(), w, n


def pca_transform(ds: rd.Dataset, mean: np.ndarray,
                  components: np.ndarray, *, vec_col: str = "embedding",
                  id_col: str = "vec_id", out_q: int = 1 << 20
                  ) -> rd.Dataset:
    """Project every vector onto the fitted components — one broadcast
    (``ray.put``) + one matmul per batch, map-only; projections are
    emitted as quantized int64 columns ``p0..p{k-1}`` (deterministic
    downstream decisions, the repo-wide convention)."""
    ref = ray.put((mean.astype(np.float64),
                   components.astype(np.float64)))

    class Project:
        def __init__(self):
            self.mc = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.mc is None:
                self.mc = ray.get(ref)
            mean, comps = self.mc
            X = np.stack(b[vec_col].to_numpy()).astype(np.float64)
            P = (X - mean) @ comps.T
            out = {id_col: b[id_col].to_numpy()}
            for j in range(comps.shape[0]):
                out[f"p{j}"] = np.rint(P[:, j] * out_q).astype(np.int64)
            return pd.DataFrame(out)

    return ds.map_batches(Project(), batch_format="pandas",
                          batch_size=4096)


# ---------------------------------------------------------------------------
# product quantization (PQ) — the vector-compression ANN path
# ---------------------------------------------------------------------------


def pq_fit(ds: rd.Dataset, *, m: int = 8, n_codes: int = 16,
           iters: int = 4, seed: int = 7, vec_col: str = "embedding",
           id_col: str = "vec_id", q_bits: int = 20) -> np.ndarray:
    """Train PQ sub-codebooks (Jégou et al. 2011): split each d-dim
    vector into ``m`` subvectors and run Euclidean k-means with
    ``n_codes`` centroids in EVERY subspace — all m fits advance
    together in each round, so one broadcast + ONE O(m x n_codes x
    batches) partial-sum shuffle per round trains the whole codebook
    (not m sequential fits).  Same exact-integer discipline as
    :func:`kmeans_fit`: subvector sums are quantized to int64 before
    the reduction, so any partitioning yields bit-identical codebooks
    (driver-twin equality is pytest-gated).  Init: deterministic
    hash-priority reservoir sample of ``n_codes`` corpus rows, each
    split into its m subvectors.  Returns ``(m, n_codes, d//m)``."""
    from .relational import grouped_sum
    from .sampling import reservoir_sample

    Q = np.int64(1) << q_bits
    init = reservoir_sample(ds, n_codes, id_col=id_col, seed=seed
                            ).to_pandas().sort_values(id_col)
    X0 = _stack(init, vec_col)
    d = X0.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    C = np.ascontiguousarray(
        X0.reshape(n_codes, m, sub).transpose(1, 0, 2)).astype(np.float64)
    scols = [f"s{j}" for j in range(sub)]

    for _ in range(iters):
        cref = ray.put(C)

        class Partials:
            def __init__(self):
                self.C: np.ndarray | None = None

            def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
                if self.C is None:
                    self.C = ray.get(cref)
                X = _stack(batch, vec_col).astype(np.float64)
                n = X.shape[0]
                outs = []
                for j in range(m):
                    Xj = X[:, j * sub:(j + 1) * sub]
                    Cj = self.C[j]
                    # ||x - c||^2 argmin == argmax(x.c - ||c||^2/2)
                    score = Xj @ Cj.T - 0.5 * (Cj * Cj).sum(axis=1)
                    a = np.argmax(score, axis=1)
                    Xq = np.rint(Xj * Q).astype(np.int64)
                    sums = np.zeros((n_codes, sub), dtype=np.int64)
                    np.add.at(sums, a, Xq)
                    cnt = np.bincount(a, minlength=n_codes).astype(np.int64)
                    touched = cnt > 0
                    o = pd.DataFrame(sums[touched], columns=scols)
                    o.insert(0, "code", np.nonzero(touched)[0].astype(np.int64))
                    o.insert(0, "subspace", np.int64(j))
                    o["n_vectors"] = cnt[touched]
                    outs.append(o)
                del n
                return pd.concat(outs, ignore_index=True)

        agg = grouped_sum(ds.map_batches(Partials(), batch_format="pandas",
                                         batch_size=8192),
                          ["subspace", "code"], scols + ["n_vectors"],
                          num_buckets=8).to_pandas().sort_values(
            ["subspace", "code"])
        newC = C.copy()
        s = np.ascontiguousarray(
            agg[scols].to_numpy(dtype=np.float64)) / float(Q)
        cnt = agg["n_vectors"].to_numpy(dtype=np.float64)[:, None]
        mean = s / cnt
        newC[agg["subspace"].to_numpy(), agg["code"].to_numpy()] = mean
        C = newC
    return C


def pq_encode(ds: rd.Dataset, codebooks: np.ndarray, *,
              vec_col: str = "embedding", id_col: str = "vec_id"
              ) -> rd.Dataset:
    """Compress every vector to ``m`` uint8 codes — map-only, one
    broadcast; 64 float32 dims become 8 bytes (32x).  At 100 TB the
    code table is what ships/joins; the float corpus is read once."""
    cref = ray.put(codebooks)
    m, n_codes, sub = codebooks.shape

    class Encode:
        def __init__(self):
            self.C: np.ndarray | None = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.C is None:
                self.C = ray.get(cref)
            X = _stack(batch, vec_col).astype(np.float64)
            codes = np.empty((X.shape[0], m), dtype=np.uint8)
            for j in range(m):
                Xj = X[:, j * sub:(j + 1) * sub]
                Cj = self.C[j]
                score = Xj @ Cj.T - 0.5 * (Cj * Cj).sum(axis=1)
                codes[:, j] = np.argmax(score, axis=1).astype(np.uint8)
            return pd.DataFrame({id_col: batch[id_col].to_numpy(),
                                 "pq_code": list(codes)})

    return ds.map_batches(Encode(), batch_format="pandas",
                          batch_size=8192)


def pq_topk(code_ds: rd.Dataset, queries: np.ndarray, k: int,
            codebooks: np.ndarray, *, id_col: str = "vec_id",
            exclude_self: bool = True) -> pd.DataFrame:
    """ADC top-k (asymmetric distance computation): each query
    precomputes an ``(m, n_codes)`` dot-product LUT against the
    codebooks, then every stored vector's approximate cosine is m LUT
    gathers + a sum — no decompression, no float corpus read.  Same
    per-batch local-top-k + driver merge shape as
    :func:`brute_force_topk`; approximate (quantization error), so
    rows-only with a pytest recall gate vs the exact path."""
    m, n_codes, sub = codebooks.shape
    nq, d = queries.shape
    lut = np.empty((nq, m, n_codes), dtype=np.float64)
    for j in range(m):
        lut[:, j, :] = queries[:, j * sub:(j + 1) * sub] @ codebooks[j].T
    lref = ray.put(lut)

    class LocalTopK:
        def __init__(self):
            self.L: np.ndarray | None = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.L is None:
                self.L = ray.get(lref)
            codes = np.stack(batch["pq_code"].to_numpy()).astype(np.int64)
            n = codes.shape[0]
            cos = np.zeros((nq, n), dtype=np.float64)
            for j in range(m):
                cos += self.L[:, j, :][:, codes[:, j]]
            kk = min(k + 1, n)      # +1 headroom for self-exclusion
            rows = []
            ids = batch[id_col].to_numpy()
            # local selection on the SAME quantized (cos_milli desc,
            # id asc) key the global merge uses — raw-float argpartition
            # here would make the shortlist depend on batch boundaries
            # at milli-quantization ties (partition-invariance
            # discipline; mirrors brute_force_topk's convention)
            cm_all = np.rint(cos * 1000).astype(np.int64)
            for qi in range(nq):
                cm = cm_all[qi]
                sel = _topk_quantized(cm, ids, kk)
                rows.append(pd.DataFrame({
                    "query_id": np.int64(qi),
                    id_col: ids[sel],
                    "cos_milli": cm[sel]}))
            return pd.concat(rows, ignore_index=True)

    cand = code_ds.map_batches(LocalTopK(), batch_format="pandas",
                               batch_size=8192).to_pandas()
    if exclude_self:            # same convention as brute_force_topk:
        # query index i is corpus row vec_id == i by construction
        cand = cand[cand[id_col] != cand["query_id"]]
    cand = cand.sort_values(["query_id", "cos_milli", id_col],
                            ascending=[True, False, True])
    out = cand.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount().astype(np.int64)
    return out[["query_id", "rank", id_col, "cos_milli"]]


def pq_topk_rerank(ds: rd.Dataset, code_ds: rd.Dataset,
                   queries: np.ndarray, k: int, codebooks: np.ndarray, *,
                   rerank: int = 50, id_col: str = "vec_id",
                   vec_col: str = "embedding") -> pd.DataFrame:
    """ADC shortlist + exact rerank — the production PQ shape: the
    compressed code table (32 bytes/vec here) answers the top-``rerank``
    shortlist for every query, then ONLY the shortlisted ids' float
    vectors are re-read (a broadcast id-set filter — O(nq x rerank)
    rows, never the corpus) and scored exactly.  Recall ≈ 1 at a
    fraction of the exact path's compute/IO; the float corpus is
    touched once, for the shortlist only."""
    short = pq_topk(code_ds, queries, rerank, codebooks, id_col=id_col)
    wanted = np.unique(short[id_col].to_numpy())  # sorted
    wref = ray.put(wanted)
    qref = ray.put(queries)

    class Rerank:
        def __init__(self):
            self.w = None
            self.q = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.w is None:
                self.w = ray.get(wref)
                self.q = ray.get(qref)
            ids = batch[id_col].to_numpy()
            keep = np.isin(ids, self.w)
            if not keep.any():
                return pd.DataFrame({id_col: np.empty(0, ids.dtype),
                                     "query_id": np.empty(0, np.int64),
                                     "cos_milli": np.empty(0, np.int64)})
            X = _stack(batch.loc[keep], vec_col)
            cos = self.q @ X.T
            nq, n = cos.shape
            return pd.DataFrame({
                id_col: np.tile(ids[keep], nq),
                "query_id": np.repeat(np.arange(nq, dtype=np.int64), n),
                "cos": cos.ravel(),
                "cos_milli": np.rint(cos * 1000).astype(np.int64).ravel()})

    scored = ds.map_batches(Rerank(), batch_format="pandas",
                            batch_size=8192).to_pandas()
    # keep only (query, id) pairs that were on that query's shortlist
    key = pd.MultiIndex.from_frame(short[["query_id", id_col]])
    scored = scored[pd.MultiIndex.from_frame(
        scored[["query_id", id_col]]).isin(key)]
    # order by the RAW float cosine (same tie-break as brute_force_topk:
    # quantization-boundary ties resolve identically), then id
    scored = scored.sort_values(["query_id", "cos", id_col],
                                ascending=[True, False, True])
    out = scored.groupby("query_id", sort=True).head(k).reset_index(
        drop=True)
    out["rank"] = out.groupby("query_id").cumcount().astype(np.int64)
    return out[["query_id", "rank", id_col, "cos_milli"]]


def pq_encode_ivf(ds: rd.Dataset, centroids: np.ndarray,
                  codebooks: np.ndarray, *, vec_col: str = "embedding",
                  id_col: str = "vec_id") -> rd.Dataset:
    """One combined assign+encode pass: every vector gets its coarse
    IVF cluster AND its m uint8 PQ codes — the persisted index table
    IVF-PQ scans (the float corpus is read once, here)."""
    ref = ray.put((centroids, codebooks))
    m, n_codes, sub = codebooks.shape

    class Encode:
        def __init__(self):
            self.s = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.s is None:
                self.s = ray.get(ref)
            C, B = self.s
            X = _stack(batch, vec_col).astype(np.float64)
            cl = np.argmax(X @ C.T, axis=1).astype(np.int64)
            codes = np.empty((X.shape[0], m), dtype=np.uint8)
            for j in range(m):
                Cj = B[j]
                codes[:, j] = np.argmax(
                    X[:, j * sub:(j + 1) * sub] @ Cj.T
                    - 0.5 * (Cj * Cj).sum(axis=1), axis=1).astype(np.uint8)
            return pd.DataFrame({id_col: batch[id_col].to_numpy(),
                                 "cluster": cl, "pq_code": list(codes)})

    return ds.map_batches(Encode(), batch_format="pandas",
                          batch_size=8192)


def ivfpq_topk(ds: rd.Dataset, code_ds: rd.Dataset, queries: np.ndarray,
               k: int, *, centroids: np.ndarray, codebooks: np.ndarray,
               nprobe: int = 4, rerank: int = 50,
               id_col: str = "vec_id", vec_col: str = "embedding",
               exclude_self: bool = True) -> pd.DataFrame:
    """IVF-PQ (the Faiss `IVFx,PQy` composition, public design): the
    coarse IVF quantizer prunes WHICH rows do ADC work (only code rows
    whose cluster is among any query's ``nprobe`` nearest centroids —
    at 100 TB, nprobe/nlist of the index instead of all of it; with a
    cluster-partitioned layout the pruning happens at the read), PQ
    compresses WHAT is scanned (uint8 codes, LUT gathers; the float
    corpus stays cold), and the exact rerank touches floats only for
    the shortlist.  ``code_ds`` is the persisted index table from
    :func:`pq_encode_ivf`."""
    m, n_codes, sub = codebooks.shape
    nq = queries.shape[0]
    qsim = queries @ centroids.T
    probe = np.argsort(-qsim, axis=1)[:, :nprobe]         # (nq, nprobe)
    lut = np.empty((nq, m, n_codes), dtype=np.float64)
    for j in range(m):
        lut[:, j, :] = queries[:, j * sub:(j + 1) * sub] @ codebooks[j].T
    ref = ray.put((probe, lut))

    class ScanProbed:
        def __init__(self):
            self.s = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.s is None:
                self.s = ray.get(ref)
            probe_, lut_ = self.s
            cl = batch["cluster"].to_numpy()
            codes = np.stack(batch["pq_code"].to_numpy()).astype(np.int64)
            ids = batch[id_col].to_numpy()
            out = []
            # per-batch shortlist budget: the RERANK width (+1 for
            # self-exclusion), not k — otherwise a single-batch corpus
            # caps the shortlist at k+1 and rerank has nothing to do
            kk = min(max(rerank, k) + 1, len(ids))
            for qi in range(nq):
                sel = np.isin(cl, probe_[qi])
                if not sel.any():
                    continue
                cs = codes[sel]
                cos = np.zeros(cs.shape[0], dtype=np.float64)
                for j in range(m):
                    cos += lut_[qi, j, cs[:, j]]
                kq = min(kk, len(cos))
                # quantized local selection (cos_milli desc, id asc) —
                # same key as the global merge, so the shortlist is
                # partition-invariant at milli-boundary ties
                cm = np.rint(cos * 1000).astype(np.int64)
                sids = ids[sel]
                top = _topk_quantized(cm, sids, kq)
                out.append(pd.DataFrame({
                    "query_id": np.int64(qi), id_col: sids[top],
                    "cos_milli": cm[top]}))
            if not out:
                return pd.DataFrame({"query_id": np.empty(0, np.int64),
                                     id_col: np.empty(0, ids.dtype),
                                     "cos_milli": np.empty(0, np.int64)})
            return pd.concat(out, ignore_index=True)

    cand = code_ds.map_batches(ScanProbed(), batch_format="pandas",
                               batch_size=8192).to_pandas()
    if exclude_self:        # query index i is corpus row vec_id == i by
        # convention; external-query callers whose queries are NOT
        # corpus rows pass exclude_self=False (matches pq_topk)
        cand = cand[cand[id_col] != cand["query_id"]]
    cand = cand.sort_values(["query_id", "cos_milli", id_col],
                            ascending=[True, False, True])
    short = cand.groupby("query_id", sort=True).head(
        max(rerank, k)).reset_index(drop=True)

    # exact rerank over the shortlist's float rows only
    wanted = np.unique(short[id_col].to_numpy())  # sorted
    wref = ray.put(wanted)
    qref = ray.put(queries)

    class Rerank:
        def __init__(self):
            self.w = None
            self.q = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.w is None:
                self.w = ray.get(wref)
                self.q = ray.get(qref)
            ids = batch[id_col].to_numpy()
            keep = np.isin(ids, self.w)
            if not keep.any():
                return pd.DataFrame({id_col: np.empty(0, ids.dtype),
                                     "query_id": np.empty(0, np.int64),
                                     "cos_milli": np.empty(0, np.int64)})
            X = _stack(batch.loc[keep], vec_col)
            cos = self.q @ X.T
            n = cos.shape[1]
            return pd.DataFrame({
                id_col: np.tile(ids[keep], nq),
                "query_id": np.repeat(np.arange(nq, dtype=np.int64), n),
                "cos": cos.ravel(),
                "cos_milli": np.rint(cos * 1000).astype(np.int64).ravel()})

    scored = ds.map_batches(Rerank(), batch_format="pandas",
                            batch_size=8192).to_pandas()
    key = pd.MultiIndex.from_frame(short[["query_id", id_col]])
    scored = scored[pd.MultiIndex.from_frame(
        scored[["query_id", id_col]]).isin(key)]
    # order by the RAW float cosine (same tie-break as brute_force_topk:
    # quantization-boundary ties resolve identically), then id
    scored = scored.sort_values(["query_id", "cos", id_col],
                                ascending=[True, False, True])
    out = scored.groupby("query_id", sort=True).head(k).reset_index(
        drop=True)
    out["rank"] = out.groupby("query_id").cumcount().astype(np.int64)
    return out[["query_id", "rank", id_col, "cos_milli"]]
