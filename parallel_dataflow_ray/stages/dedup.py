"""Deduplication suite over the documents table — the training-data-
pipeline workhorses (task brief: exact, MinHash+LSH, SimHash, n-gram
Jaccard, embedding-cosine).

Scale shapes:

- exact:   content-hash column (vectorized) -> groupby(hash) -> keep
  min doc_id per group.  One shuffle of (hash, id) pairs only.
- minhash: per-batch signatures (actor pool holds the hash family) ->
  explode to (band, band_hash, doc_id) -> groupby bands -> candidate
  pairs -> Jaccard verify -> min-label connected components.
- simhash: 64-bit sketch -> 4-band exact-chunk LSH (pigeonhole: any
  pair within hamming<4 shares a chunk) -> verify hamming -> components.

Candidate pairs / components run on datasets of PAIRS (tiny vs corpus);
nothing materializes the documents themselves after sketching.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import (MinHasher, popcount64, simhash64_batch,
                                 simhash_band_matrix)
from ..functions.text import fingerprint64, jaccard, word_shingles


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id",
                carry: list[str] | None = None) -> rd.Dataset:
    """Keep the smallest id per identical text. Returns (doc_id, n_dups
    [, *carry]) — ``carry`` columns ride along with the winning row
    through the one fingerprint shuffle, so callers that need the
    survivor's attributes don't pay a second scan + re-join.

    Dup identity is the 128-bit fingerprint (two independent
    SipHash-64 passes, round-5 widening — 2^-64 collisions are
    birthday-material near ~2^32 docs, i.e. AT the 10^12-doc design
    point); bucketing stays on the low half (128-bit-equal rows are
    64-bit-equal, so every true dup family still co-locates), the
    in-bucket group key is the full pair."""

    from ..functions.text import fingerprint128
    from .relational import bucketed_groupby

    carry = carry or []

    def add_fp(batch: pd.DataFrame) -> pd.DataFrame:
        lo, hi = fingerprint128(batch[text_col])
        cols = {id_col: batch[id_col], "__fp": lo, "__fp2": hi}
        for c in carry:
            cols[c] = batch[c]
        return pd.DataFrame(cols)

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort")
        # position-first, NOT groupby agg "first" (which skips NaN and
        # would silently pull a null carry value from the next group
        # member instead of the winning row)
        win = g.drop_duplicates(["__fp", "__fp2"], keep="first")
        sz = g.groupby(["__fp", "__fp2"], sort=False).size()
        out = win.copy()
        out["n_dups"] = sz.loc[pd.MultiIndex.from_frame(
            win[["__fp", "__fp2"]])].to_numpy(np.int64)
        return out[[id_col, "n_dups", *carry]]

    fps = ds.map_batches(add_fp, batch_format="pandas")
    return bucketed_groupby(fps, ["__fp"], keep_first)


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

class MinHashStage:
    """Actor-pool stage: the hash family is built once per actor."""

    def __init__(self, num_hashes: int = 64, bands: int = 16, shingle_k: int = 3,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.mh = MinHasher(num_hashes, shingle_k)
        self.bands = bands
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.text_col].fillna("").tolist()
        sigs = self.mh.signatures(texts)                       # (n, k)
        bk = self.mh.band_keys_matrix(sigs, self.bands)        # (n, bands)
        n = len(batch)
        return pd.DataFrame({
            self.id_col: np.repeat(batch[self.id_col].to_numpy(), self.bands),
            "band_id": np.tile(np.arange(self.bands, dtype=np.int64), n),
            "band_hash": bk.reshape(-1)})


def _pairs_from_buckets(g: pd.DataFrame, id_col: str) -> pd.DataFrame:
    ids = np.sort(g[id_col].unique())
    if ids.size < 2:
        return pd.DataFrame({"id_a": [], "id_b": []})
    a, b = np.triu_indices(ids.size, k=1)
    return pd.DataFrame({"id_a": ids[a], "id_b": ids[b]})


def minhash_candidates(ds: rd.Dataset, *, num_hashes=64, bands=16, shingle_k=3,
                       text_col="text", id_col="doc_id") -> rd.Dataset:
    """documents -> candidate near-dup id pairs (deduplicated)."""
    from .relational import bucketed_groupby

    # instance-as-UDF, NOT an actor pool: the stage's only state is the
    # 1 KB hash-coefficient family (deterministic seed, ~µs to build), so
    # shipping the pickled instance per task costs nothing while an actor
    # pool pays ~1-2 s spin-up per query invocation — the wrong trade for
    # stateless-ish sketching.  Stages with REAL per-actor setup (decode
    # tables, broadcast indexes) stay actor pools.
    banded = ds.map_batches(
        MinHashStage(num_hashes=num_hashes, bands=bands, shingle_k=shingle_k,
                     text_col=text_col, id_col=id_col),
        batch_format="pandas", batch_size=1024)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = [_pairs_from_buckets(sub, id_col)
                for _, sub in g.groupby(["band_id", "band_hash"], sort=False)
                if len(sub) > 1]
        if not outs:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    pairs = bucketed_groupby(banded, ["band_id", "band_hash"], bucket_pairs)
    # a pair can surface from several bands -> distinct
    return bucketed_groupby(
        pairs, ["id_a", "id_b"],
        lambda g: g.drop_duplicates(["id_a", "id_b"]))


def candidate_rows(ds: rd.Dataset, pairs: rd.Dataset, *, id_col: str,
                   payload_cols: list[str], num_buckets: int = 16
                   ) -> rd.Dataset:
    """Map-side filter of ``ds`` down to the rows named by either side
    of a candidate-pair set — the shared front half of pair
    verification (text shingle-Jaccard, audio profile-cosine).

    Broadcast SEMI-join, driver-free: the distinct candidate-id set is
    computed DISTRIBUTED (bucketed dedup over the pair ids) and only
    its object-store block refs travel to the filter tasks — the
    driver never holds the pair set (no ``pairs.to_pandas()``), and
    the corpus payload is filtered map-side, never shuffled.
    Semantically identical to ``bucket_join(ds, pair_ids, how="semi")``,
    but that shape would co-shuffle the full corpus payload; this one
    ships O(distinct candidate ids) bytes once per node instead.
    ``pairs`` should already be materialized by the caller."""
    import ray as _ray

    from .relational import bucketed_groupby

    ids_ds = bucketed_groupby(
        pairs.map_batches(
            lambda b: pd.DataFrame({"__cid": np.concatenate(
                [b["id_a"].to_numpy(), b["id_b"].to_numpy()])}),
            batch_format="pandas"),
        ["__cid"], lambda g: g.drop_duplicates("__cid"),
        num_buckets=num_buckets).materialize()
    id_block_refs = ids_ds.to_arrow_refs()

    class CandidateFilter:
        """Instance-as-UDF carrying only ObjectRefs (blocks read per
        task from the local object store, zero-copy — never re-shipped
        with the function)."""

        def __init__(self):
            self.refs = id_block_refs
            self.keep: np.ndarray | None = None

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            if self.keep is None:
                blocks = _ray.get(list(self.refs))
                self.keep = (np.sort(np.concatenate(
                    [t["__cid"].to_numpy() for t in blocks if t.num_rows]))
                    if blocks else np.empty(0, dtype=np.int64))
            ids = b[id_col].to_numpy()
            if self.keep.size == 0:
                m = np.zeros(len(ids), dtype=bool)
            else:
                pos = np.minimum(np.searchsorted(self.keep, ids),
                                 self.keep.size - 1)
                m = self.keep[pos] == ids
            cols = {id_col: ids[m]}
            for c in payload_cols:
                cols[c] = b.loc[m, c].to_numpy()
            return pd.DataFrame(cols)

    return ds.select_columns([id_col] + list(payload_cols)).map_batches(
        CandidateFilter(), batch_format="pandas")


def verify_jaccard(pairs: rd.Dataset, docs: rd.Dataset, threshold: float,
                   *, shingle_k=3, text_col="text", id_col="doc_id") -> rd.Dataset:
    """Verify candidates with true shingle-Jaccard — fully distributed:
    join the pair set against the docs table on EACH side (two hash
    joins; the docs table is never scanned on the driver and the pairs
    never leave the object store), then compute per-pair Jaccard inside
    ``map_batches`` with one shingle-set per distinct doc per batch.
    Output milli-Jaccard keeps the r1 semantics (truncation toward 0,
    filter ``>= threshold*1000``)."""
    from .relational import bucket_join

    # materialize the (small, LSH-pruned) pair set so schema inspection
    # and the two join passes don't re-execute the candidate pipeline
    pairs = pairs.materialize()
    # ONE corpus scan: the filtered candidate-doc set is O(pairs) small,
    # so materialize it once and derive both join sides from it (the
    # per-side renames run over the tiny filtered set, not the corpus)
    cd = candidate_rows(docs, pairs, id_col=id_col,
                        payload_cols=[text_col]).materialize()
    da = cd.map_batches(lambda b: b.rename(
        columns={id_col: "id_a", text_col: "__ta"}), batch_format="pandas")
    db = cd.map_batches(lambda b: b.rename(
        columns={id_col: "id_b", text_col: "__tb"}), batch_format="pandas")
    j = bucket_join(pairs, da, on="id_a", num_buckets=16)
    j = bucket_join(j.materialize(), db, on="id_b", num_buckets=16)
    thr_milli = threshold * 1000

    def jac(b: pd.DataFrame) -> pd.DataFrame:
        # one shingle set per distinct doc in the batch (pairs share docs)
        sh: dict = {}
        for col_id, col_t in (("id_a", "__ta"), ("id_b", "__tb")):
            for i, t in zip(b[col_id], b[col_t]):
                if i not in sh:
                    sh[i] = set(word_shingles(t or "", shingle_k))
        milli = np.fromiter(
            (int(jaccard(sh[a], sh[bb]) * 1000)
             for a, bb in zip(b["id_a"], b["id_b"])),
            dtype=np.int64, count=len(b))
        out = pd.DataFrame({"id_a": b["id_a"].to_numpy(),
                            "id_b": b["id_b"].to_numpy(),
                            "jaccard_milli": milli})
        return out[out["jaccard_milli"] >= thr_milli]

    return j.map_batches(jac, batch_format="pandas")


def components_labels(pairs: rd.Dataset, *, id_a: str = "id_a",
                      id_b: str = "id_b", node_col: str = "doc_id",
                      max_rounds: int = 50) -> rd.Dataset:
    """Distributed connected components over an edge Dataset via
    min-label propagation rounds (the groupby-rounds scale path for
    dedup clustering): every node starts labelled with its own id; each
    round sends labels across edges and keeps the per-node min; stop
    when a round changes nothing.  Rounds ≈ cluster diameter (near-dup
    clusters are near-cliques, so 2-3 rounds in practice).  Per-round
    data is one bucket join edges⋈labels + one bucketed min-groupby —
    all distributed; the driver only sees the changed-row COUNT."""
    from .relational import bucket_join, bucketed_groupby

    edges = pairs.map_batches(
        lambda b: pd.DataFrame({
            "src": np.concatenate([b[id_a].to_numpy(), b[id_b].to_numpy()]),
            "dst": np.concatenate([b[id_b].to_numpy(), b[id_a].to_numpy()])}),
        batch_format="pandas").materialize()
    if edges.count() == 0:
        # no near-dup pairs at all — skip the whole propagation loop
        # (edges is already materialized, so this count is free)
        return rd.from_arrow(pa.table(
            {node_col: pa.array([], type=pa.int64()),
             "cluster_id": pa.array([], type=pa.int64())}))

    def init_labels(g: pd.DataFrame) -> pd.DataFrame:
        # the edges are already keyed by src here, so the first
        # propagation round is free: label = min(node, min neighbor)
        a = g.groupby("src", as_index=False)["dst"].min()
        return pd.DataFrame({"node": a["src"],
                             "label": np.minimum(a["src"].to_numpy(),
                                                 a["dst"].to_numpy())})

    labels = bucketed_groupby(edges, ["src"], init_labels).materialize()

    def fold_round(g: pd.DataFrame) -> pd.DataFrame:
        # one bucketed pass per round: rows are label MESSAGES (sent
        # across edges, __old = max) unioned with each node's CURRENT
        # label row (__old = its label); min over both gives the new
        # label, min of __old recovers the old one, so the
        # changed-detection that used to be a third shuffle (join new
        # against old + count) happens inside the same fold.
        a = g.groupby("node", as_index=False).agg(
            label=("label", "min"), __old=("__old", "min"))
        a["__chg"] = (a["label"] != a["__old"]).astype(np.int64)
        return a[["node", "label", "__chg"]]

    sentinel = np.iinfo(np.int64).max
    converged = False
    for _ in range(max_rounds):
        msgs = bucket_join(edges, labels, on="src", right_on="node",
                           num_buckets=16).map_batches(
            lambda b: pd.DataFrame({"node": b["dst"], "label": b["label"],
                                    "__old": np.int64(sentinel)}),
            batch_format="pandas")
        own = labels.map_batches(
            lambda b: pd.DataFrame({"node": b["node"], "label": b["label"],
                                    "__old": b["label"]}),
            batch_format="pandas")
        # snap_lineage, not materialize(): the round plan carries a
        # union + bucket_join, and a retained logical-plan chain
        # compounds driver cost ~1.8x/round (see relational.snap_lineage)
        from .relational import snap_lineage
        new = snap_lineage(bucketed_groupby(msgs.union(own), ["node"],
                                            fold_round))
        changed = int(new.map_batches(
            lambda b: pd.DataFrame({"c": [int(b["__chg"].sum())]}),
            batch_format="pandas").to_pandas()["c"].sum())
        labels = new.select_columns(["node", "label"])
        if changed == 0:
            converged = True
            break
    if not converged:
        # returning silently would hand back WRONG cluster ids; rounds
        # needed ≈ component diameter, so this only trips on a
        # pathological chain — fail loudly and let the caller raise
        # max_rounds
        raise RuntimeError(
            f"components_labels did not converge in {max_rounds} rounds "
            "(component diameter exceeds max_rounds?)")
    return labels.map_batches(
        lambda b: pd.DataFrame({node_col: b["node"].astype(np.int64),
                                "cluster_id": b["label"].astype(np.int64)}),
        batch_format="pandas")


def neardup_survivors(slim: rd.Dataset, pairs: rd.Dataset, *,
                      id_col: str, num_buckets: int = 16) -> rd.Dataset:
    """Shared back half of every fuzzy-dedup curation composition
    (text ``curate_neardup_docs``, audio ``curate_neardup_clips``):
    verified near-dup pairs -> min-label components -> keep only the
    canonical (min-id) row per cluster, annotated with ``n_neardups``
    (cluster size; 1 for rows in no cluster).  ``slim`` is the
    metadata-only survivor-candidate table (payload already dropped);
    only labels and O(pairs) rows shuffle here."""
    from .relational import bucket_join, bucketed_groupby

    labels = components_labels(pairs, node_col=id_col).materialize()

    def per_cluster(g: pd.DataFrame) -> pd.DataFrame:
        # one verdict row per clustered node: canonical (node ==
        # cluster min) carries the cluster size, members carry 0
        sz = g.groupby("cluster_id")[id_col].transform("size").to_numpy()
        keep = (g[id_col] == g["cluster_id"]).to_numpy()
        return pd.DataFrame({id_col: g[id_col],
                             "n_neardups": np.where(keep, sz, 0)
                                             .astype(np.int64)})

    verdict = bucketed_groupby(labels, ["cluster_id"], per_cluster,
                               num_buckets=num_buckets)
    joined = bucket_join(slim, verdict, on=id_col, how="left",
                         num_buckets=num_buckets)

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        # unlabelled rows are singletons (n_neardups 1); labelled
        # non-canonical members (0) are the near-dups being dropped
        b = b.assign(n_neardups=b["n_neardups"].fillna(1).astype("int64"))
        return b[b["n_neardups"] > 0]

    return joined.map_batches(fill, batch_format="pandas")


def connected_components(pairs: pd.DataFrame) -> pd.DataFrame:
    """Min-label union-find on the (small, verified) pair set -> cluster
    representative per id.  Driver-side twin of
    :func:`components_labels` (used as its differential check)."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    rows = sorted((i, find(i)) for i in parent)
    return pd.DataFrame(rows, columns=["doc_id", "cluster_id"])


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------

def simhash_sketch(ds: rd.Dataset, text_col="text", id_col="doc_id") -> rd.Dataset:
    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        hs = simhash64_batch(batch[text_col].fillna("").tolist())
        return pd.DataFrame({id_col: batch[id_col],
                             "simhash": hs.astype(np.int64)})

    return ds.map_batches(sketch, batch_format="pandas", batch_size=1024)


_SIMHASH_TILE = 4096         # pair-matrix tile edge: bounds any temp to
                             # tile² x 8 B (~134 MB) even in a hot bucket

_PAIR_EMPTY = {"id_a": pd.Series(dtype="int64"),
               "id_b": pd.Series(dtype="int64"),
               "hamming": pd.Series(dtype="int64")}


def _unique_hits(uh: np.ndarray, max_hamming: int):
    """All (i < j, hamming) index pairs over an array of sketches —
    tiled vectorized XOR + SWAR popcount (no per-pair Python)."""
    ii, jj, dd_ = [], [], []
    n = uh.size
    for i0 in range(0, n, _SIMHASH_TILE):
        a = uh[i0:i0 + _SIMHASH_TILE]
        for j0 in range(i0, n, _SIMHASH_TILE):
            b = uh[j0:j0 + _SIMHASH_TILE]
            d = popcount64(a[:, None] ^ b[None, :])
            hit = d <= max_hamming
            if i0 == j0:
                hit = np.triu(hit, k=1)
            x, y = np.nonzero(hit)
            if x.size:
                ii.append(x + i0)
                jj.append(y + j0)
                dd_.append(d[x, y])
    if not ii:
        z = np.empty(0, np.int64)
        return z, z, z
    return np.concatenate(ii), np.concatenate(jj), np.concatenate(dd_)


def _simhash_bucket_pairs(ids: np.ndarray, hs: np.ndarray,
                          max_hamming: int) -> list[pd.DataFrame]:
    """All (id_a < id_b, hamming) pairs within one LSH bucket (ids
    sorted ascending) — kept as the simple non-collapsing path for
    direct use and tests; :func:`hamming_pairs` uses the
    identical-sketch-collapsing form."""
    i, j, d = _unique_hits(np.ascontiguousarray(hs, np.uint64), max_hamming)
    if i.size == 0:
        return []
    return [pd.DataFrame({"id_a": ids[i].astype(np.int64),
                          "id_b": ids[j].astype(np.int64),
                          "hamming": d})]


def _sparse_subset_keys(h: np.ndarray, k: int = 6) -> np.ndarray:
    """(n,) uint64 constant-popcount-``k`` sketches -> (n, k) int64 LSH
    keys: each key packs one leave-one-out (k-1)-subset of the sketch's
    set-bit positions (6 bits per position, sorted — injective).

    Equal popcounts make the hamming distance even, so ``<= 3`` means
    ``<= 2``, i.e. the two sketches share >= k-1 set bits and their
    common (k-1)-subset is a leave-one-out key of BOTH: the scheme is
    EXACT for ``max_hamming <= 3``.  Keys stay high-entropy even for
    sparse bitmasks — the failure mode of fixed 16-bit chunk bands,
    where a 6-of-64-bit audio fingerprint's near-always-zero chunks put
    93% of clips into ONE band bucket (round-3 measured scale-killer:
    a single-task ~5e9-pair popcount)."""
    n = h.size
    if n == 0:
        return np.zeros((0, k), np.int64)
    bits = ((np.ascontiguousarray(h, np.uint64)[:, None]
             >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(bool)
    cnt = bits.sum(axis=1)
    if not (cnt == k).all():
        bad = np.flatnonzero(cnt != k)[:5]
        raise ValueError(
            f"sparse_topk LSH requires constant popcount {k}; rows "
            f"{bad.tolist()} have {cnt[bad].tolist()} bits set — use "
            "scheme='chunk16' for variable-popcount sketches")
    pos = np.nonzero(bits)[1].reshape(n, k)            # sorted ascending
    w = np.int64(1) << (np.int64(6) * np.arange(k - 1, dtype=np.int64))
    keys = np.empty((n, k), np.int64)
    for j in range(k):
        cols = [c for c in range(k) if c != j]
        keys[:, j] = (pos[:, cols] * w).sum(axis=1)
    return keys


def _clique_pairs_frame(members: np.ndarray, clique_cap: int | None,
                        declined: list | None = None) -> pd.DataFrame:
    """Pairs within one identical-sketch clique (members sorted by id).
    Over ``clique_cap`` pairs, emit the connectivity-preserving star
    (min-id -> each member, hamming 0) instead of the full m(m-1)/2
    expansion and count the declined pairs into ``declined`` =
    ``[n_pairs, n_events]`` (logged once per bucket task; no silent
    caps — see :func:`hamming_clique_stats` for the audit pass)."""
    m = members.size
    npairs = m * (m - 1) // 2
    if clique_cap is not None and npairs > clique_cap:
        if declined is not None:
            declined[0] += npairs - (m - 1)
            declined[1] += 1
        return pd.DataFrame({
            "id_a": np.full(m - 1, members[0], np.int64),
            "id_b": members[1:].astype(np.int64),
            "hamming": np.zeros(m - 1, np.int64)})
    i, j = np.triu_indices(m, k=1)
    return pd.DataFrame({"id_a": members[i].astype(np.int64),
                         "id_b": members[j].astype(np.int64),
                         "hamming": np.zeros(i.size, np.int64)})


def hamming_pairs(sketches: rd.Dataset, *, id_col="doc_id",
                  hash_col="simhash", max_hamming=3,
                  num_buckets: int = 32, scheme: str = "chunk16",
                  clique_cap: int | None = None) -> rd.Dataset:
    """(id, 64-bit sketch) rows -> all pairs within ``max_hamming``.

    Two exact-for-``max_hamming <= 3`` LSH banding schemes:

    - ``"chunk16"`` (default): 4 x 16-bit chunk bands — any pair within
      hamming <= 3 shares a chunk (pigeonhole).  Right for dense
      sketches (text simhash, whose bits are ~Bernoulli(1/2)).
    - ``"sparse_topk"``: leave-one-out (k-1)-subset keys over the set
      bit POSITIONS, for constant-popcount sketches (the 6-of-64-bit
      audio spectral fingerprint).  See :func:`_sparse_subset_keys` —
      chunk bands collapse catastrophically on sparse masks.

    Pair generation is a distributed Dataset end to end and per bucket
    it first COLLAPSES identical sketches: distance work runs over
    DISTINCT sketch values only (a boilerplate corpus with one sketch
    repeated 100k times does zero popcounts), clique pairs are emitted
    once in the sketch's canonical bucket, and cross-clique hits expand
    by member cross product.  ``clique_cap`` bounds any one clique's
    emitted pairs (star edges past the cap — connectivity under
    connected components is IDENTICAL; declined counts are logged and
    auditable via :func:`hamming_clique_stats`); ``None`` = exact full
    pair set.  Sketch-agnostic: simhash (text) and the audio spectral
    fingerprint (``stages.audio_prep.fingerprint_clips``) both feed
    this."""
    from .relational import bucketed_groupby

    if scheme not in ("chunk16", "sparse_topk"):
        raise ValueError(f"unknown LSH scheme {scheme!r}")
    if scheme == "sparse_topk" and max_hamming > 3:
        raise ValueError("sparse_topk subset LSH is exact only for "
                         "max_hamming <= 3; use scheme='chunk16'")

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        h = batch[hash_col].to_numpy()
        if scheme == "chunk16":
            keys = simhash_band_matrix(h.astype(np.uint64), 4)   # (n, 4)
            band_ids = np.arange(4, dtype=np.int64)
        else:
            keys = _sparse_subset_keys(h.astype(np.uint64))      # (n, 6)
            # the shared subset sits at a DIFFERENT leave-out index in
            # each sketch -> all bands share one id (match on key only)
            band_ids = np.zeros(keys.shape[1], np.int64)
        nb = keys.shape[1]
        n = len(batch)
        return pd.DataFrame({
            id_col: np.repeat(batch[id_col].to_numpy(), nb),
            "band_id": np.tile(band_ids, n),
            "band_key": keys.reshape(-1),
            hash_col: np.repeat(h, nb)})

    def canonical_mask(uh: np.ndarray, band_id: int,
                       band_key: int) -> np.ndarray:
        # identical sketches collide in EVERY band; emit the clique's
        # pairs only in one canonical bucket so the work isn't repeated
        # nb times (the final distinct stage would mask it, not save it)
        if scheme == "chunk16":
            return np.full(uh.size, band_id == 0)
        return _sparse_subset_keys(uh).min(axis=1) == band_key

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        declined = [0, 0]               # [pairs declined, cap events]
        for (band_id, band_key), sub in g.groupby(["band_id", "band_key"],
                                                  sort=False):
            sub = sub.drop_duplicates(id_col).sort_values(id_col)
            if len(sub) < 2:
                continue
            ids = sub[id_col].to_numpy()
            hs = sub[hash_col].to_numpy().view(np.uint64)
            uh, inv = np.unique(hs, return_inverse=True)
            order = np.argsort(inv, kind="stable")     # id-order kept
            sorted_inv = inv[order]
            bounds = np.searchsorted(sorted_inv, np.arange(uh.size + 1))
            members = [ids[order[bounds[u]:bounds[u + 1]]]
                       for u in range(uh.size)]
            msz = np.diff(bounds)
            # identical-sketch cliques (canonical bucket only)
            canon = canonical_mask(uh, band_id, band_key)
            for u in np.flatnonzero(canon & (msz > 1)):
                outs.append(_clique_pairs_frame(members[u], clique_cap,
                                                declined))
            # cross pairs over DISTINCT sketches only
            i, j, d = _unique_hits(uh, max_hamming)
            if i.size == 0:
                continue
            both1 = (msz[i] == 1) & (msz[j] == 1)
            if both1.any():
                a = np.array([members[u][0] for u in i[both1]], np.int64)
                b = np.array([members[u][0] for u in j[both1]], np.int64)
                outs.append(pd.DataFrame({
                    "id_a": np.minimum(a, b), "id_b": np.maximum(a, b),
                    "hamming": d[both1]}))
            for x, y, dist in zip(i[~both1], j[~both1], d[~both1]):
                ma, mb = members[x], members[y]
                tot = ma.size * mb.size
                if clique_cap is not None and tot > clique_cap:
                    # both cliques are internally connected (full pairs
                    # or star) -> one rep-rep edge preserves components
                    declined[0] += tot - 1
                    declined[1] += 1
                    a = np.array([ma[0]]); b = np.array([mb[0]])
                    dist = np.array([dist])
                else:
                    a = np.repeat(ma, mb.size)
                    b = np.tile(mb, ma.size)
                    dist = np.full(tot, dist)
                outs.append(pd.DataFrame({
                    "id_a": np.minimum(a, b).astype(np.int64),
                    "id_b": np.maximum(a, b).astype(np.int64),
                    "hamming": dist.astype(np.int64)}))
        if declined[0]:
            logging.getLogger(__name__).warning(
                "hamming_pairs: clique_cap=%d declined %d pairs across "
                "%d oversized cliques/cross-products in this bucket task "
                "(star / rep-rep edges emitted; connected components "
                "unchanged — audit with hamming_clique_stats)",
                clique_cap, declined[0], declined[1])
        if not outs:
            return pd.DataFrame(_PAIR_EMPTY)
        return pd.concat(outs, ignore_index=True)

    exploded = sketches.map_batches(explode, batch_format="pandas")
    pairs = bucketed_groupby(exploded, ["band_id", "band_key"], per_bucket,
                             num_buckets=num_buckets)
    if scheme == "sparse_topk":
        # no distinct stage needed: a d=2 pair shares EXACTLY one
        # 5-subset (|A∩B| = 5 -> one common 5-set) so it surfaces in
        # exactly one bucket, and d=0 cliques emit only in their
        # canonical bucket — skipping the dedupe saves a full shuffle
        # of the pair set (180 MB at 7.5M candidate pairs, sf0.1)
        return pairs
    # chunk16: a pair can surface once per colliding band -> distinct
    return bucketed_groupby(
        pairs, ["id_a", "id_b"],
        lambda g: g.drop_duplicates(["id_a", "id_b"]), num_buckets=16)


def hamming_clique_stats(sketches: rd.Dataset, *, hash_col="simhash",
                         clique_cap: int | None = None,
                         num_buckets: int = 16) -> pd.DataFrame:
    """No-silent-caps companion to :func:`hamming_pairs` (the
    ``ngram_df_stats`` analog): one distributed pass reporting the
    identical-sketch clique structure and exactly how many pairs a
    given ``clique_cap`` would decline into star edges —
    ``(n_rows, n_sketches, max_clique, clique_pairs, declined_pairs)``."""
    from .relational import bucketed_groupby

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sz = g.groupby(hash_col, sort=False).size().to_numpy()
        pairs = sz * (sz - 1) // 2
        declined = np.int64(0)
        if clique_cap is not None:
            over = pairs > clique_cap
            declined = np.int64((pairs[over] - (sz[over] - 1)).sum())
        return pd.DataFrame({
            "n_rows": [np.int64(sz.sum())],
            "n_sketches": [np.int64(sz.size)],
            "max_clique": [np.int64(sz.max()) if sz.size else np.int64(0)],
            "clique_pairs": [np.int64(pairs.sum())],
            "declined_pairs": [declined]})

    parts = bucketed_groupby(sketches, [hash_col], per_bucket,
                             num_buckets=num_buckets).to_pandas()
    return pd.DataFrame({
        "n_rows": [parts["n_rows"].sum()],
        "n_sketches": [parts["n_sketches"].sum()],
        "max_clique": [parts["max_clique"].max() if len(parts) else 0],
        "clique_pairs": [parts["clique_pairs"].sum()],
        "declined_pairs": [parts["declined_pairs"].sum()]})


def simhash_candidates(ds: rd.Dataset, *, max_hamming=3, text_col="text",
                       id_col="doc_id", num_buckets: int = 32,
                       clique_cap: int | None = None) -> rd.Dataset:
    """documents -> near-dup pairs by simhash hamming distance (sketch
    stage + the sketch-agnostic :func:`hamming_pairs` LSH)."""
    return hamming_pairs(simhash_sketch(ds, text_col, id_col),
                         id_col=id_col, hash_col="simhash",
                         max_hamming=max_hamming, num_buckets=num_buckets,
                         clique_cap=clique_cap)


# ---------------------------------------------------------------------------
# n-gram Jaccard near-dup (exact, inverted-index shape)
# ---------------------------------------------------------------------------

def _ngram_explode_fn(text_col: str, id_col: str, shingle_k: int):
    """Per-batch DISTINCT shingle set per doc -> (id, hash, set_size)."""
    from ..functions.hashing import _stable_token_hashes

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[text_col].fillna("").tolist()
        sets = [set(word_shingles(t, shingle_k)) for t in texts]
        lens = np.fromiter((len(s) for s in sets), dtype=np.int64,
                           count=len(sets))
        flat = [g for s in sets for g in s]
        h = (_stable_token_hashes(flat).view(np.int64) if flat
             else np.empty(0, dtype=np.int64))
        return pd.DataFrame({
            id_col: np.repeat(batch[id_col].to_numpy(), lens),
            "__g": h,
            "__sz": np.repeat(lens, lens)})

    return explode


def ngram_df_stats(ds: rd.Dataset, *, df_cap: int, shingle_k: int = 3,
                   text_col: str = "text", id_col: str = "doc_id",
                   num_buckets: int = 64) -> pd.DataFrame:
    """No-silent-caps companion to :func:`ngram_jaccard_pairs`: one extra
    pass reporting exactly what a given ``df_cap`` drops —
    ``(n_shingles, n_dropped, max_df)``.  Run it (and log the result)
    whenever a capped near-dup job's recall matters."""
    from .relational import bucketed_groupby

    exploded = ds.select_columns([id_col, text_col]).map_batches(
        _ngram_explode_fn(text_col, id_col, shingle_k),
        batch_format="pandas", batch_size=1024)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.groupby("__g", sort=False).size()
        return pd.DataFrame({
            "n_shingles": [np.int64(df.size)],
            "n_dropped": [np.int64((df > df_cap).sum())],
            "max_df": [np.int64(df.max()) if df.size else np.int64(0)]})

    parts = bucketed_groupby(exploded, ["__g"], per_bucket,
                             num_buckets=num_buckets).to_pandas()
    return pd.DataFrame({
        "n_shingles": [int(parts["n_shingles"].sum())],
        "n_dropped": [int(parts["n_dropped"].sum())],
        "max_df": [int(parts["max_df"].max()) if len(parts) else 0]})


def ngram_jaccard_pairs(ds: rd.Dataset, *, threshold_milli: int = 500,
                        shingle_k: int = 3, text_col: str = "text",
                        id_col: str = "doc_id",
                        num_buckets: int = 64,
                        df_cap: int | None = 256) -> rd.Dataset:
    """All-pairs word-``k``-gram Jaccard >= ``threshold_milli``/1000
    via the classic inverted-index set-similarity join — never an O(n²)
    doc×doc comparison:

    1. ``map_batches``: per doc, the DISTINCT shingle set, hashed in one
       vectorized SipHash pass over the flattened batch; emit
       ``(doc_id, shingle_hash, set_size)`` rows.
    2. bucketed groupby on the shingle hash: a vectorized self-merge per
       bucket yields co-occurrence rows ``(id_a < id_b, sz_a, sz_b)`` —
       each pair appears once PER SHARED SHINGLE.
    3. bucketed groupby on the pair: ``inter = count`` and
       ``jaccard_milli = (1000*inter) // (sz_a + sz_b - inter)``
       (integer division — bit-exact vs the SQL oracle).

    Only (hash, id) pairs shuffle; documents never leave stage 1.

    ``df_cap`` bounds the quadratic per-shingle fan-out: inside stage 2
    every shingle's bucket group size IS its exact global doc frequency
    (all rows of a shingle hash co-locate), so groups with df > cap are
    skipped before the self-merge — per-shingle output is bounded by
    cap², and a boilerplate-heavy corpus (stop-shingles with df in the
    millions) can no longer explode the merge.  Semantics under the cap:
    pairs none of whose shared shingles were dropped are EXACT (the
    fixtures' max df is 25, so the default 256 is a no-op there); a pair
    sharing dropped shingles has ``inter`` undercounted — reported pairs
    are still true pairs (J_true >= J_reported >= threshold), but a pair
    whose every qualifying shared shingle is boilerplate can be missed.
    Measure exactly what a cap drops with :func:`ngram_df_stats` (the
    no-silent-caps companion); pass ``df_cap=None`` for the unbounded
    exact join."""
    from .relational import bucketed_groupby

    def cooccur(g: pd.DataFrame) -> pd.DataFrame:
        if df_cap is not None:
            # group size == exact global df of the shingle hash
            g = g[g.groupby("__g", sort=False)["__g"]
                   .transform("size") <= df_cap]
        m = g.merge(g, on="__g", suffixes=("_l", "_r"))
        m = m[m[f"{id_col}_l"] < m[f"{id_col}_r"]]
        return pd.DataFrame({
            "id_a": m[f"{id_col}_l"].to_numpy(),
            "id_b": m[f"{id_col}_r"].to_numpy(),
            "sz_a": m["__sz_l"].to_numpy(),
            "sz_b": m["__sz_r"].to_numpy()})

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["id_a", "id_b"], as_index=False, sort=False).agg(
            inter=("sz_a", "size"), sz_a=("sz_a", "first"),
            sz_b=("sz_b", "first"))
        jm = (1000 * agg["inter"].to_numpy(np.int64)) // (
            agg["sz_a"].to_numpy(np.int64) + agg["sz_b"].to_numpy(np.int64)
            - agg["inter"].to_numpy(np.int64))
        out = pd.DataFrame({"id_a": agg["id_a"].astype(np.int64),
                            "id_b": agg["id_b"].astype(np.int64),
                            "jaccard_milli": jm})
        return out[out["jaccard_milli"] >= threshold_milli]

    shingled = ds.select_columns([id_col, text_col]).map_batches(
        _ngram_explode_fn(text_col, id_col, shingle_k),
        batch_format="pandas", batch_size=1024)
    co = bucketed_groupby(shingled, ["__g"], cooccur, num_buckets=num_buckets)
    return bucketed_groupby(co, ["id_a", "id_b"], finalize,
                            num_buckets=num_buckets)


def contamination(train: rd.Dataset, bench: rd.Dataset, *,
                  shingle_k: int = 3, text_col: str = "text",
                  id_col: str = "doc_id", num_buckets: int = 64
                  ) -> rd.Dataset:
    """Benchmark decontamination: flag every training doc sharing >= 1
    word-``k``-gram with ANY benchmark/eval doc, with the count of
    distinct shared shingles — the pre-training contamination scrub.

    Shape: explode both sides to per-doc DISTINCT shingle hashes (one
    vectorized SipHash pass, same kernel as the Jaccard join), then a
    bucketed SEMI join of train shingles against the bench shingle set —
    only the bench side's distinct hash column crosses the shuffle, so a
    tiny eval suite probing a 100 TB corpus ships keys, not text — and a
    map-side-combined grouped count per doc (sets are per-doc distinct,
    so surviving row count == distinct shared shingles).  Output:
    (doc_id, n_shared)."""
    from .relational import bucket_join, grouped_sum

    def shingles(ds: rd.Dataset) -> rd.Dataset:
        return ds.select_columns([id_col, text_col]).map_batches(
            _ngram_explode_fn(text_col, id_col, shingle_k),
            batch_format="pandas", batch_size=1024)

    hits = bucket_join(shingles(train), shingles(bench), on="__g",
                       how="semi", num_buckets=num_buckets)

    def ones(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: b[id_col],
                             "n_shared": np.ones(len(b), dtype=np.int64)})

    return grouped_sum(hits.map_batches(ones, batch_format="pandas"),
                       [id_col], ["n_shared"])


def contamination_bloom(train: rd.Dataset, bench: rd.Dataset, *,
                        shingle_k: int = 3, text_col: str = "text",
                        id_col: str = "doc_id", num_buckets: int = 64,
                        m_bits: int = 1 << 23, k_hashes: int = 4
                        ) -> rd.Dataset:
    """Scale path for :func:`contamination`, identical output: a
    broadcast Bloom filter over the bench shingle hashes pre-filters
    the train side BEFORE anything crosses the shuffle, then the
    survivors are re-verified by the same exact semi join.

    Why this matters at 100 TB: the exact path shuffles EVERY train
    shingle (one (hash, doc_id) row per distinct shingle per doc) just
    to discard ~all of them at the semi join — the shuffle is sized by
    the corpus.  The Bloom mask (1 MB at the default m=2^23, built
    distributed and OR-merged, ``ray.put`` once and read zero-copy in
    every probe task) drops definite non-members map-side, so the
    shuffle is sized by contamination + the false-positive rate
    (~(1-e^{-kn/m})^k, default <1e-3 for eval suites up to ~1M distinct
    shingles).  No false negatives, and false positives only cost work
    — the exact semi join makes the output bit-identical to
    :func:`contamination` (asserted in tests and by sharing its DuckDB
    twin)."""
    import ray as _ray

    from .relational import bucket_join, grouped_sum
    from .sketches import bloom_build, bloom_probe_mask

    def shingles(ds: rd.Dataset) -> rd.Dataset:
        return ds.select_columns([id_col, text_col]).map_batches(
            _ngram_explode_fn(text_col, id_col, shingle_k),
            batch_format="pandas", batch_size=1024)

    bench_sh = shingles(bench)
    bloom_ref = _ray.put(bloom_build(bench_sh, "__g",
                                     m_bits=m_bits, k=k_hashes))

    def probe(b: pd.DataFrame) -> pd.DataFrame:
        bm = _ray.get(bloom_ref)  # zero-copy object-store read per task
        mask = bloom_probe_mask(b["__g"].to_numpy(np.int64), bm,
                                m_bits, k_hashes)
        return b[mask]

    cand = shingles(train).map_batches(probe, batch_format="pandas",
                                       batch_size=4096)
    hits = bucket_join(cand, bench_sh, on="__g", how="semi",
                       num_buckets=num_buckets)

    def ones(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: b[id_col],
                             "n_shared": np.ones(len(b), dtype=np.int64)})

    return grouped_sum(hits.map_batches(ones, batch_format="pandas"),
                       [id_col], ["n_shared"])


# ---------------------------------------------------------------------------
# incremental ingest dedup: new shard vs existing corpus
# ---------------------------------------------------------------------------

def _int_ids(b: pd.DataFrame, id_col: str, fn: str) -> np.ndarray:
    """``id_col`` as int64.  Any dtype but a signed integer is refused:
    ``to_numpy(np.int64)`` would silently truncate float ids."""
    dt = b[id_col].dtype
    if not pd.api.types.is_signed_integer_dtype(dt):
        raise ValueError(f"{fn} requires signed-integer {id_col!r} "
                         f"values (got dtype {dt})")
    return b[id_col].to_numpy(np.int64)


def dedup_against_corpus(new: rd.Dataset, corpus: rd.Dataset, *,
                         text_col: str = "text", id_col: str = "doc_id",
                         num_buckets: int = 32) -> rd.Dataset:
    """Incremental exact dedup — the production ingest shape (a fresh
    crawl shard arriving against an already-curated corpus): drop every
    new doc whose exact text already exists in the corpus, then
    exact-dedup WITHIN the shard (smallest id wins, duplicate count
    carried).  Output: (doc_id, n_dups) of the surviving new docs.

    Fingerprints are 128-bit (two independent SipHash-64 passes,
    ``fingerprint128`` — the widening the r3/r4 advisories asked for):
    2^-64 per-pair collisions are birthday-material as a corpus
    approaches ~2^32 docs, i.e. AT the 10^12-doc design point; 2^-128
    is not.  Text itself still never crosses the wire.

    Shuffle shape: ONE bucketed exchange keyed on the LOW half (rows
    equal in 128 bits are equal in 64, so bucketing by ``lo``
    co-locates every true duplicate pair); the corpus ships per-batch
    DISTINCT (lo, hi) pairs only, and each bucket does the anti-match
    on the full pair plus the within-shard keep-first in one pass —
    one shuffle where the previous anti-join + keep-first shape took
    two.

    Reference analog: the kill-set invalidation in ReachingDefs
    (passes/src/reaching_defs.rs:38-60) — membership in an existing
    definition set suppresses re-emission; here membership in the
    corpus fingerprint set suppresses ingest."""
    from ..functions.text import fingerprint128
    from .relational import bucketed_groupby

    def shard_fp(b: pd.DataFrame) -> pd.DataFrame:
        lo, hi = fingerprint128(b[text_col])
        return pd.DataFrame({id_col: _int_ids(b, id_col,
                                              "dedup_against_corpus"),
                             "__fp": lo, "__fp2": hi,
                             "__side": np.int8(1)})

    def corpus_fp(b: pd.DataFrame) -> pd.DataFrame:
        lo, hi = fingerprint128(b[text_col])
        out = pd.DataFrame({id_col: np.int64(0), "__fp": lo, "__fp2": hi,
                            "__side": np.int8(0)})
        # per-batch distinct: global dups across batches are harmless
        # for set membership, and this bounds what ships
        return out.drop_duplicates(["__fp", "__fp2"])

    tagged = new.map_batches(shard_fp, batch_format="pandas").union(
        corpus.map_batches(corpus_fp, batch_format="pandas"))

    def anti_then_first(g: pd.DataFrame) -> pd.DataFrame:
        seen = g.loc[g["__side"] == 0, ["__fp", "__fp2"]]
        n = g[g["__side"] == 1]
        if len(seen):
            key = pd.MultiIndex.from_frame(n[["__fp", "__fp2"]])
            n = n[~key.isin(pd.MultiIndex.from_frame(seen))]
        if not len(n):
            return pd.DataFrame({id_col: np.empty(0, np.int64),
                                 "n_dups": np.empty(0, np.int64)})
        n = n.sort_values(id_col, kind="mergesort")
        win = n.drop_duplicates(["__fp", "__fp2"], keep="first")
        sz = n.groupby(["__fp", "__fp2"], sort=False).size()
        out = win.copy()
        out["n_dups"] = sz.loc[pd.MultiIndex.from_frame(
            win[["__fp", "__fp2"]])].to_numpy(np.int64)
        return out[[id_col, "n_dups"]]

    return bucketed_groupby(tagged, ["__fp"], anti_then_first,
                            num_buckets=num_buckets)


def jaccard_against_corpus(new: rd.Dataset, corpus: rd.Dataset, *,
                           threshold_milli: int = 500, shingle_k: int = 3,
                           text_col: str = "text", id_col: str = "doc_id",
                           num_buckets: int = 64,
                           df_cap: int | None = 256) -> rd.Dataset:
    """Cross-corpus NEAR-dup screen — the fuzzy counterpart of
    :func:`dedup_against_corpus`: flag every NEW-shard doc whose
    word-``k``-gram Jaccard vs ANY corpus doc clears the threshold (the
    re-crawl screen exact fingerprints miss: a page re-crawled with a
    tweaked footer hashes differently but is ~the same document).

    Same inverted-index machinery as :func:`ngram_jaccard_pairs`, with
    the self-merge replaced by a new-side x corpus-side merge per
    shingle bucket (tagged union, ONE shuffle keyed on the shingle
    hash — text never leaves the explode stage, only (hash, id, side)
    rows move; ``df_cap`` bounds the per-shingle product exactly as in
    the self-join, groups whose total df exceeds it are skipped —
    audit with :func:`ngram_df_stats` over the union).  Output: one row
    per FLAGGED new doc, ``(doc_id, n_matches, max_jaccard_milli)``;
    survivors = anti-join the shard against this table."""
    from .relational import bucketed_groupby

    def tagged(side: int, ds: rd.Dataset) -> rd.Dataset:
        ex = ds.select_columns([id_col, text_col]).map_batches(
            _ngram_explode_fn(text_col, id_col, shingle_k),
            batch_format="pandas", batch_size=1024)

        def tag(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["__side"] = np.int8(side)
            return b

        return ex.map_batches(tag, batch_format="pandas")

    both = tagged(1, new).union(tagged(0, corpus))

    def cooccur(g: pd.DataFrame) -> pd.DataFrame:
        if df_cap is not None:
            # group size == exact global df of the shingle (both sides)
            g = g[g.groupby("__g", sort=False)["__g"]
                   .transform("size") <= df_cap]
        n = g[g["__side"] == 1]
        c = g[g["__side"] == 0]
        m = n.merge(c, on="__g", suffixes=("_n", "_c"))
        return pd.DataFrame({
            "id_n": m[f"{id_col}_n"].to_numpy(),
            "id_c": m[f"{id_col}_c"].to_numpy(),
            "sz_n": m["__sz_n"].to_numpy(),
            "sz_c": m["__sz_c"].to_numpy()})

    def pair_jaccard(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["id_n", "id_c"], as_index=False, sort=False).agg(
            inter=("sz_n", "size"), sz_n=("sz_n", "first"),
            sz_c=("sz_c", "first"))
        jm = (1000 * agg["inter"].to_numpy(np.int64)) // (
            agg["sz_n"].to_numpy(np.int64) + agg["sz_c"].to_numpy(np.int64)
            - agg["inter"].to_numpy(np.int64))
        out = pd.DataFrame({"id_n": agg["id_n"].astype(np.int64),
                            "jaccard_milli": jm})
        return out[out["jaccard_milli"] >= threshold_milli]

    def per_new_doc(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("id_n", as_index=False, sort=False).agg(
            n_matches=("jaccard_milli", "size"),
            max_jaccard_milli=("jaccard_milli", "max"))
        return pd.DataFrame({
            id_col: agg["id_n"].astype(np.int64),
            "n_matches": agg["n_matches"].astype(np.int64),
            "max_jaccard_milli": agg["max_jaccard_milli"]
            .astype(np.int64)})

    co = bucketed_groupby(both, ["__g"], cooccur, num_buckets=num_buckets)
    pairs = bucketed_groupby(co, ["id_n", "id_c"], pair_jaccard,
                             num_buckets=num_buckets)
    return bucketed_groupby(pairs, ["id_n"], per_new_doc,
                            num_buckets=num_buckets)


def minhash_against_corpus(new: rd.Dataset, corpus: rd.Dataset, *,
                           threshold_milli: int = 500, num_hashes: int = 64,
                           bands: int = 16, shingle_k: int = 3,
                           text_col: str = "text", id_col: str = "doc_id",
                           num_buckets: int = 32) -> rd.Dataset:
    """The SCALE path for the cross-corpus near-dup screen: when both
    sides are huge, :func:`jaccard_against_corpus`'s exact inverted
    index ships one row per (doc, shingle) — O(total shingles) through
    the shuffle.  This variant ships one row per (doc, band) instead
    (``bands`` × smaller, content-independent): MinHash-band both sides
    with the SAME deterministic hash family, collide new-side vs
    corpus-side sketches inside each (band_id, band_hash) bucket, then
    verify the (LSH-pruned, tiny) candidate set with TRUE shingle
    Jaccard — flagged docs are exact, only recall is probabilistic
    (collision prob 1-(1-J^r)^b: >0.99996 at J=0.8 with 16×4).  Output
    matches :func:`jaccard_against_corpus`: one row per flagged new doc,
    ``(doc_id, n_matches, max_jaccard_milli)`` over VERIFIED matches."""
    from .relational import bucket_join, bucketed_groupby

    stage = MinHashStage(num_hashes=num_hashes, bands=bands,
                         shingle_k=shingle_k, text_col=text_col,
                         id_col=id_col)

    def banded(side: int, ds: rd.Dataset) -> rd.Dataset:
        def tag(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["__side"] = np.int8(side)
            return b
        return ds.map_batches(stage, batch_format="pandas",
                              batch_size=1024).map_batches(
            tag, batch_format="pandas")

    both = banded(1, new).union(banded(0, corpus))

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized new x corpus merge per bucket task (no Python
        # loop over (band, hash) groups)
        cols = ["band_id", "band_hash", id_col]
        n = g.loc[g["__side"] == 1, cols].drop_duplicates()
        c = g.loc[g["__side"] == 0, cols].drop_duplicates()
        m = n.merge(c, on=["band_id", "band_hash"], suffixes=("_n", "_c"))
        return pd.DataFrame({
            "id_n": m[f"{id_col}_n"].to_numpy(np.int64),
            "id_c": m[f"{id_col}_c"].to_numpy(np.int64)})

    cands = bucketed_groupby(both, ["band_id", "band_hash"], bucket_pairs,
                             num_buckets=num_buckets)
    # a pair can surface from several bands -> distinct, then verify
    pairs = bucketed_groupby(
        cands, ["id_n", "id_c"],
        lambda g: g.drop_duplicates(["id_n", "id_c"]),
        num_buckets=num_buckets).materialize()

    def side_rows(ds: rd.Dataset, key: str, txt: str) -> rd.Dataset:
        one_side = pairs.map_batches(
            lambda b, k=key: pd.DataFrame(
                {"id_a": b[k].to_numpy(), "id_b": b[k].to_numpy()}),
            batch_format="pandas").materialize()
        cd = candidate_rows(ds, one_side, id_col=id_col,
                            payload_cols=[text_col])
        return cd.map_batches(lambda b, k=key, t=txt: b.rename(
            columns={id_col: k, text_col: t}), batch_format="pandas")

    j = bucket_join(pairs, side_rows(new, "id_n", "__tn"), on="id_n",
                    num_buckets=16)
    j = bucket_join(j.materialize(), side_rows(corpus, "id_c", "__tc"),
                    on="id_c", num_buckets=16)

    def jac(b: pd.DataFrame) -> pd.DataFrame:
        sh: dict = {}
        for col_id, col_t in (("id_n", "__tn"), ("id_c", "__tc")):
            for i, t in zip(b[col_id], b[col_t]):
                if (col_id, i) not in sh:
                    sh[(col_id, i)] = set(word_shingles(t or "", shingle_k))
        inter = np.fromiter(
            (len(sh[("id_n", a)] & sh[("id_c", c)])
             for a, c in zip(b["id_n"], b["id_c"])),
            dtype=np.int64, count=len(b))
        sz_n = np.fromiter((len(sh[("id_n", a)]) for a in b["id_n"]),
                           dtype=np.int64, count=len(b))
        sz_c = np.fromiter((len(sh[("id_c", c)]) for c in b["id_c"]),
                           dtype=np.int64, count=len(b))
        union = np.maximum(sz_n + sz_c - inter, 1)
        out = pd.DataFrame({"id_n": b["id_n"].to_numpy(np.int64),
                            "jaccard_milli": (1000 * inter) // union})
        return out[out["jaccard_milli"] >= threshold_milli]

    verified = j.map_batches(jac, batch_format="pandas")

    def per_new_doc(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("id_n", as_index=False, sort=False).agg(
            n_matches=("jaccard_milli", "size"),
            max_jaccard_milli=("jaccard_milli", "max"))
        return pd.DataFrame({
            id_col: agg["id_n"].astype(np.int64),
            "n_matches": agg["n_matches"].astype(np.int64),
            "max_jaccard_milli": agg["max_jaccard_milli"]
            .astype(np.int64)})

    return bucketed_groupby(verified, ["id_n"], per_new_doc,
                            num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# exact duplicated-substring spans (Lee et al. 2022, exact-substring half)
# ---------------------------------------------------------------------------

def _window_hash_fn(window: int, text_col: str, id_col: str):
    """Batch UDF: every ``window``-token window of every doc -> one
    (whash, doc_id, pos, n_tokens) row.  One vectorized SipHash pass
    over the batch's FLATTENED token stream, then the window's
    polynomial rolling hash mod 2^61-1 built from ``window`` shifted
    mulmod-adds — no per-window string materialization, so only 8-byte
    hashes (never window text) enter the object store."""
    from ..functions.hashing import (_MERSENNE, _mulmod_mersenne,
                                     _stable_token_hashes)

    P = np.uint64(_MERSENNE)
    B = np.uint64(1_000_003)

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"whash": pd.Series(dtype="int64"),
                              id_col: pd.Series(dtype=b[id_col].dtype
                                                if len(b) else "int64"),
                              "pos": pd.Series(dtype="int64"),
                              "n_tokens": pd.Series(dtype="int64")})
        if len(b) == 0:
            return empty
        toks = [t.split(" ") for t in b[text_col]]
        lens = np.fromiter((len(t) for t in toks), np.int64, len(toks))
        n = int(lens.sum())
        if n < window:
            return empty
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        th = _stable_token_hashes(flat) % P
        m = n - window + 1
        W = np.zeros(m, dtype=np.uint64)
        c = np.uint64(1)
        for j in range(window):  # W[i] = sum th[i+j] * B^j  (mod p)
            W = (W + _mulmod_mersenne(np.array([c], dtype=np.uint64),
                                      th[j:j + m])[0]) % P
            c = _mulmod_mersenne(np.array([c], dtype=np.uint64),
                                 np.array([B], dtype=np.uint64))[0, 0]
        didx = np.repeat(np.arange(len(toks), dtype=np.int64), lens)
        starts = np.cumsum(lens) - lens
        valid = didx[:m] == didx[window - 1:]
        i = np.nonzero(valid)[0]
        d = didx[i]
        return pd.DataFrame({
            "whash": W[i].astype(np.int64),  # < 2^61, int64-safe
            id_col: b[id_col].to_numpy()[d],
            "pos": i - starts[d] + 1,        # 1-based, matches the SQL twin
            "n_tokens": lens[d],
        })

    return fn


def _dup_hits(ds: rd.Dataset, window: int, min_count: int, text_col: str,
              id_col: str, num_buckets: int) -> rd.Dataset:
    """Shared front half of :func:`dup_spans` / :func:`scrub_dup_spans`:
    (whash, doc_id, pos, n_tokens) rows for every window occurring >=
    ``min_count`` times corpus-wide.  Counts only — never pairs."""
    from .relational import bucket_join, grouped_sum

    occ = ds.select_columns([id_col, text_col]).map_batches(
        _window_hash_fn(window, text_col, id_col),
        batch_format="pandas", batch_size=1024)

    def ones(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"whash": b["whash"],
                             "n": np.ones(len(b), dtype=np.int64)})

    counts = grouped_sum(occ.map_batches(ones, batch_format="pandas"),
                         ["whash"], ["n"])
    mc = int(min_count)
    flagged = counts.map_batches(
        lambda t: t.filter(pa.compute.greater_equal(t["n"], mc))
        .select(["whash"]), batch_format="pyarrow")
    return bucket_join(occ, flagged, on="whash", how="semi",
                       num_buckets=num_buckets)


def dup_spans(ds: rd.Dataset, *, window: int = 8, min_count: int = 2,
              text_col: str = "text", id_col: str = "doc_id",
              num_buckets: int = 64) -> rd.Dataset:
    """Exact duplicated-substring detection — the exact-substring half
    of Lee et al. 2022 ("Deduplicating Training Data Makes Language
    Models Better"): flag every ``window``-token span whose text occurs
    >= ``min_count`` times corpus-wide, and merge each doc's flagged
    window starts into maximal duplicate spans (true interval union).
    Output per affected doc: (doc_id, n_dup_windows, n_removed_tokens
    = union length in tokens, n_tokens).

    Scale shape (vs the n-gram inverted index, which fans out PAIRS and
    needs a df-cap): this pipeline only ever counts — occurrences
    shuffle once as (hash, id, pos) triples, the duplicate decision is
    a grouped COUNT (O(occurrences), boilerplate-proof), and flagged
    hashes come back via a semi join.  Window identity is the 61-bit
    rolling hash (collision odds ~m²/2^62 — negligible; an exactness
    pass could re-verify window text within flagged groups)."""
    from .relational import bucketed_groupby

    hits = _dup_hits(ds, window, min_count, text_col, id_col, num_buckets)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # a bucket holds MANY docs: segmented interval union via
        # grouped cummax of span ends + doc-boundary breaks (no
        # per-doc Python loop)
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        codes, uids = pd.factorize(g[id_col].to_numpy())
        p = g["pos"].to_numpy(dtype=np.int64)
        e = p + window
        cm = pd.Series(e).groupby(codes, sort=False).cummax().to_numpy()
        new = np.empty(p.size, dtype=bool)
        new[0] = True
        np.logical_or(codes[1:] != codes[:-1], p[1:] > cm[:-1],
                      out=new[1:])
        seg = np.nonzero(new)[0]
        seg_end = np.append(seg[1:], p.size)
        seg_len = cm[seg_end - 1] - p[seg]          # per-segment union
        seg_doc = codes[seg]
        ulen = np.bincount(seg_doc, weights=seg_len,
                           minlength=len(uids)).astype(np.int64)
        nwin = np.bincount(codes, minlength=len(uids)).astype(np.int64)
        # codes are non-decreasing (bucket sorted by id): first row of
        # each doc via searchsorted
        ntok = g["n_tokens"].to_numpy(dtype=np.int64)[
            np.searchsorted(codes, np.arange(len(uids)))]
        return pd.DataFrame({id_col: uids, "n_dup_windows": nwin,
                             "n_removed_tokens": ulen, "n_tokens": ntok})

    return bucketed_groupby(hits, [id_col], per_bucket,
                            num_buckets=num_buckets)


def scrub_dup_spans(ds: rd.Dataset, *, window: int = 8, min_count: int = 2,
                    text_col: str = "text", id_col: str = "doc_id",
                    num_buckets: int = 64) -> rd.Dataset:
    """The user-facing half of exact substring dedup: REMOVE every
    duplicated span (all occurrences, the Lee et al. 2022 exact-substring
    scrub) and emit every doc with its cleaned text and the removed
    token count.  A doc that is entirely duplicated content comes back
    with ``text == ''`` — downstream curation drops or re-weights it.

    Shape: the counts-only front half (:func:`_dup_hits`), flagged
    window starts joined back to the docs with ONE doc-keyed bucket
    join (the only stage where text shuffles), then a per-doc coverage
    mask built by difference-array + cumsum — token membership in any
    flagged [p, p+window) span — and a vectorized keep-filter.  The
    per-bucket group loop is over DOCS (string split/join are per-doc
    by nature); everything inside is numpy."""
    from .relational import bucket_join, bucketed_groupby

    hits = _dup_hits(ds, window, min_count, text_col, id_col, num_buckets)

    def pos_only(b: pd.DataFrame) -> pd.DataFrame:
        return b[[id_col, "pos"]]

    joined = bucket_join(ds.select_columns([id_col, text_col]),
                         hits.map_batches(pos_only, batch_format="pandas"),
                         on=id_col, how="left", num_buckets=num_buckets)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ids, texts, removed = [], [], []
        for doc, sub in g.groupby(id_col, sort=False):
            text = sub[text_col].iloc[0]
            pos = sub["pos"].dropna()
            ids.append(doc)
            if not len(pos):
                texts.append(text)
                removed.append(0)
                continue
            toks = np.asarray(text.split(" "), dtype=object)
            n = toks.size
            p = pos.to_numpy(dtype=np.int64) - 1      # 0-based starts
            diff = np.zeros(n + 1, dtype=np.int64)
            np.add.at(diff, p, 1)
            np.add.at(diff, np.minimum(p + window, n), -1)
            covered = np.cumsum(diff[:-1]) > 0
            texts.append(" ".join(toks[~covered]))
            removed.append(int(covered.sum()))
        return pd.DataFrame({id_col: ids, text_col: texts,
                             "n_removed_tokens": np.asarray(removed,
                                                            dtype=np.int64)})

    return bucketed_groupby(joined, [id_col], per_bucket,
                            num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

def embedding_neardup_pairs(ds: rd.Dataset, threshold: float,
                            id_col="vec_id", vec_col="embedding",
                            num_blocks: int = 8) -> rd.Dataset:
    """All pairs with ``round(cosine*1000) >= round(threshold*1000)`` —
    EXACT, and filtered on the quantized value so the gate matches the
    DuckDB oracle bit-for-bit (an unrounded pre-filter dropped pairs
    with cosine in [thr-0.0005, thr)).

    Distributed block-pair search (no driver-side ``X @ X.T``): each
    vector lands in block ``b = stable_hash(id) % B`` and is replicated
    to every unordered block pair ``(min(b,o), max(b,o))``; a bucketed
    groupby over the B*(B+1)/2 pair-buckets runs one vectorized
    float64 matmul of block-b1 rows against block-b2 rows.  Replication
    is B× on the (id, vec) projection only; per-bucket compute/memory is
    ~(n/B)² — pick B so a block pair fits one worker (B ≈ sqrt(#tasks)
    at cluster scale).  Every pair is computed in exactly one bucket, so
    the result is exact, not LSH-approximate."""
    from .relational import bucketed_groupby
    from ..streaming.partitioning import stable_hash

    thr_milli = int(round(threshold * 1000))
    B = max(1, int(num_blocks))

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

    def per_pair(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for (b1, b2), sub in g.groupby(["__b1", "__b2"], sort=False):
            if b1 == b2:
                ids = sub[id_col].to_numpy()
                X = np.stack(sub["__vec"].to_numpy())
                q = np.rint((X @ X.T) * 1000).astype(np.int64)
                a, b = np.nonzero(np.triu(q >= thr_milli, k=1))
                ia, ib, qv = ids[a], ids[b], q[a, b]
            else:
                la = sub[sub["__blk"] == b1]
                lb = sub[sub["__blk"] == b2]
                if la.empty or lb.empty:
                    continue
                A = np.stack(la["__vec"].to_numpy())
                Bm = np.stack(lb["__vec"].to_numpy())
                q = np.rint((A @ Bm.T) * 1000).astype(np.int64)
                a, b = np.nonzero(q >= thr_milli)
                ia, ib = la[id_col].to_numpy()[a], lb[id_col].to_numpy()[b]
                qv = q[a, b]
            if ia.size:
                outs.append(pd.DataFrame({
                    "id_a": np.minimum(ia, ib).astype(np.int64),
                    "id_b": np.maximum(ia, ib).astype(np.int64),
                    "cos_milli": qv}))
        if not outs:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "cos_milli": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    exploded = ds.select_columns([id_col, vec_col]).map_batches(
        explode, batch_format="pandas", batch_size=4096)
    return bucketed_groupby(exploded, ["__b1", "__b2"], per_pair,
                            num_buckets=max(B * (B + 1) // 2, 1))


class _HyperplaneSketch:
    """Instance-as-UDF: random-hyperplane LSH band keys per vector.
    The projection matrix is regenerated deterministically from
    ``(seed, dim)`` on first batch — nothing heavy is pickled, every
    task derives the identical plane set."""

    def __init__(self, bits_per_band: int, num_bands: int, seed: int,
                 id_col: str, vec_col: str):
        self.r, self.b, self.seed = bits_per_band, num_bands, seed
        self.id_col, self.vec_col = id_col, vec_col
        self.planes: np.ndarray | None = None

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(batch[self.vec_col].to_numpy()).astype(np.float64)
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        if self.planes is None:
            rng = np.random.default_rng(self.seed + 1_000_003 * X.shape[1])
            self.planes = rng.standard_normal((X.shape[1], self.r * self.b))
        bits = (X @ self.planes) >= 0.0                       # (n, r*b)
        w = (1 << np.arange(self.r, dtype=np.int64))
        keys = (bits.reshape(len(X), self.b, self.r) @ w).astype(np.int64)
        n = len(batch)
        return pd.DataFrame({
            self.id_col: np.repeat(batch[self.id_col].to_numpy(), self.b),
            "band_id": np.tile(np.arange(self.b, dtype=np.int64), n),
            "band_key": keys.reshape(-1),
            "__vec": list(np.repeat(X, self.b, axis=0)),
        })


def embedding_neardup_lsh(ds: rd.Dataset, threshold: float, *,
                          id_col: str = "vec_id", vec_col: str = "embedding",
                          bits_per_band: int = 4, num_bands: int = 24,
                          seed: int = 7, num_buckets: int = 64) -> rd.Dataset:
    """APPROXIMATE near-dup pairs via random-hyperplane LSH — the scale
    path when the exact block-pair search (O(n²/B) per bucket) is too
    hot.  Collision prob per bit is ``1 - theta/pi``; with r=4, b=24 the
    recall at cosine 0.45 is ~0.99 (asserted vs the exact path in
    tests/test_dedup_scale.py).  Precision is exactly 1: every candidate
    is verified with the true quantized cosine inside its band bucket,
    so output ⊆ exact output always.

    Shuffle cost: (id, band_key, vec) rows, ``num_bands`` replicas per
    vector — O(n·b·dim) bytes, versus the exact path's O(n·B·dim); the
    win is per-bucket compute, which drops from (n/B)² matmuls to
    near-duplicate-cluster-sized groups only."""
    from .relational import bucketed_groupby

    thr_milli = int(round(threshold * 1000))

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, sub in g.groupby(["band_id", "band_key"], sort=False):
            sub = sub.drop_duplicates(id_col)
            if len(sub) < 2:
                continue
            ids = sub[id_col].to_numpy()
            o = np.argsort(ids)
            ids = ids[o]
            X = np.stack(sub["__vec"].to_numpy())[o]
            q = np.rint((X @ X.T) * 1000).astype(np.int64)
            a, b = np.nonzero(np.triu(q >= thr_milli, k=1))
            if a.size:
                outs.append(pd.DataFrame({
                    "id_a": ids[a].astype(np.int64),
                    "id_b": ids[b].astype(np.int64),
                    "cos_milli": q[a, b]}))
        if not outs:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "cos_milli": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    banded = ds.select_columns([id_col, vec_col]).map_batches(
        _HyperplaneSketch(bits_per_band, num_bands, seed, id_col, vec_col),
        batch_format="pandas", batch_size=4096)
    pairs = bucketed_groupby(banded, ["band_id", "band_key"], bucket_pairs,
                             num_buckets=num_buckets)
    # a pair verifies in every band where it collides -> distinct
    return bucketed_groupby(
        pairs, ["id_a", "id_b"],
        lambda g: g.drop_duplicates(["id_a", "id_b"]), num_buckets=16)


# ---------------------------------------------------------------------------
# C4-style line-level cross-corpus dedup (Raffel et al. 2020, public recipe)
# ---------------------------------------------------------------------------

def dedup_lines(ds: rd.Dataset, *, corpus: rd.Dataset | None = None,
                delimiter: str = "\n",
                text_col: str = "text", id_col: str = "doc_id",
                num_buckets: int = 64) -> rd.Dataset:
    """LINE-granularity dedup across the whole corpus — the C4 recipe
    (Raffel et al. 2020 §2.2: any line occurring more than once in the
    dataset is kept ONCE, at its first occurrence, and removed from
    every later document).  The missing granularity between this
    repo's doc-level ``exact_dedup`` and span-level ``dup_spans``:
    boilerplate lines (nav bars, cookie banners, license footers) that
    repeat across millions of pages are struck while the surrounding
    prose survives.

    Survivor semantics match the ROW_NUMBER twin exactly: per distinct
    line text, the occurrence with the smallest ``(doc_id, line_no)``
    (1-based line numbers) is kept; every other occurrence is removed.
    Output per doc: ``(doc_id, text_dedup, n_lines,
    n_removed_lines)`` — every doc appears, ``text_dedup`` is the
    surviving lines re-joined by ``delimiter`` in original order (''
    when everything was struck).

    Scale shape: two bucketed exchanges.  (1) Lines ship as 128-bit
    fingerprint + (doc_id, line_no) triples — never the line text —
    bucketed on the LOW hash half (equal lines co-locate; the in-group
    match keys on the full pair, same discipline as
    ``dedup_against_corpus``); each group emits ONLY its non-survivor
    occurrences, so the mark stream is O(removed lines), not O(lines).
    (2) Marks co-locate with their docs in one doc-keyed bucket pass
    (the only stage where text moves — same shape as
    ``scrub_dup_spans``) and each doc re-splits, drops its marked
    line_nos, and re-joins.  Decision-by-fingerprint: a false merge
    needs a 2^-128 collision.

    ``corpus``: the INCREMENTAL ingest form (the C4 recipe applied at
    crawl-shard arrival): every line already present ANYWHERE in the
    corpus is struck from every shard doc, and within the shard the
    usual first-occurrence-wins applies.  Corpus lines ship as
    per-batch-distinct fingerprints only (side-tagged into the same
    single exchange); corpus text never moves and the corpus is never
    rebuilt — output covers the shard docs only (shard ids must
    be non-negative: -1 is the corpus sentinel, and its sort
    position before any real id turns a corpus hit into a strike
    through the same keep-first pass).

    Reference analog: the first-definition-wins merge of ReachingDefs
    (passes/src/reaching_defs.rs:38-60) applied per line instead of
    per definition."""
    from ..functions.text import fingerprint128
    from .relational import bucketed_groupby

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)
        ids = _int_ids(b, id_col, "dedup_lines")
        if len(ids) and ids.min() < 0:
            # -1 is the corpus sentinel; a negative real id would
            # silently act as one (its lines would strike everyone
            # else's) — refuse loudly instead
            raise ValueError(
                f"dedup_lines requires non-negative {id_col} values "
                f"(got min {ids.min()})")
        # regex=False: pandas treats a multi-char pat as a REGEX by
        # default, which would disagree with rebuild's literal
        # str.split for delimiters containing metachars ('|', '.')
        ls = b[text_col].fillna("").str.split(delimiter, regex=False)
        ex = ls.explode()
        pos = ex.index.to_numpy()
        lo, hi = fingerprint128(ex.reset_index(drop=True))
        return pd.DataFrame({
            "__lo": lo, "__hi": hi,
            id_col: ids[pos],
            "__ln": (ex.groupby(level=0).cumcount() + 1)
            .to_numpy(np.int64)})

    def corpus_explode(b: pd.DataFrame) -> pd.DataFrame:
        ex = b[text_col].fillna("").str.split(delimiter,
                                              regex=False).explode()
        lo, hi = fingerprint128(ex.reset_index(drop=True))
        out = pd.DataFrame({"__lo": lo, "__hi": hi,
                            id_col: np.int64(-1),
                            "__ln": np.int64(-1)})
        # per-batch distinct bounds what ships; -1 sentinels sort
        # FIRST within a (lo, hi) group, so a corpus hit makes every
        # shard occurrence a non-survivor via the same keep="first"
        return out.drop_duplicates(["__lo", "__hi"])

    lines = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pandas", batch_size=1024)
    if corpus is not None:
        lines = lines.union(
            corpus.select_columns([id_col, text_col]).map_batches(
                corpus_explode, batch_format="pandas", batch_size=1024))

    def non_survivors(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__lo", "__hi", id_col, "__ln"],
                          kind="mergesort")
        loser = g.duplicated(["__lo", "__hi"], keep="first")
        out = g.loc[loser & (g[id_col] >= 0), [id_col, "__ln"]].copy()
        out["__side"] = np.int8(1)
        return out

    marks = bucketed_groupby(lines, ["__lo"], non_survivors,
                             num_buckets=num_buckets)

    def doc_side(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: _int_ids(b, id_col, "dedup_lines"),
                             "__ln": np.int64(0),
                             "__side": np.int8(0),
                             text_col: b[text_col].fillna("")})

    def mark_side(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b[text_col] = ""
        return b[[id_col, "__ln", "__side", text_col]]

    tagged = ds.select_columns([id_col, text_col]).map_batches(
        doc_side, batch_format="pandas").union(
        marks.map_batches(mark_side, batch_format="pandas"))

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        removed: dict[int, set] = {}
        for d, ln in zip(
                g.loc[g["__side"] == 1, id_col].to_numpy(np.int64),
                g.loc[g["__side"] == 1, "__ln"].to_numpy(np.int64)):
            removed.setdefault(int(d), set()).add(int(ln))
        docs = g[g["__side"] == 0]
        ids = docs[id_col].to_numpy(np.int64)
        texts = docs[text_col].to_numpy(object)
        out_text = np.empty(len(ids), object)
        n_lines = np.empty(len(ids), np.int64)
        n_rm = np.empty(len(ids), np.int64)
        for i, (d, t) in enumerate(zip(ids, texts)):
            lines = t.split(delimiter)
            gone = removed.get(int(d), ())
            kept = [l for j, l in enumerate(lines, 1) if j not in gone]
            out_text[i] = delimiter.join(kept)
            n_lines[i] = len(lines)
            n_rm[i] = len(gone)
        return pd.DataFrame({id_col: ids, "text_dedup": out_text,
                             "n_lines": n_lines,
                             "n_removed_lines": n_rm})

    return bucketed_groupby(tagged, [id_col], rebuild,
                            num_buckets=num_buckets)
