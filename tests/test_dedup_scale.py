"""Scale-path dedup: the distributed block-pair embedding search and the
distributed label-propagation components must equal their obviously-
correct driver-side twins (differential, reference test.rs:21-70 spirit).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from parallel_dataflow_ray.sources.tables import read_table
from parallel_dataflow_ray.stages import dedup as dd

SF_DIR = "/root/testdata/sf0.001"


def _brute_pairs(thr_milli: int = 450) -> pd.DataFrame:
    t = read_table(SF_DIR, "embeddings", columns=["vec_id", "embedding"]).to_pandas()
    X = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    ids = t["vec_id"].to_numpy()
    q = np.rint((X @ X.T) * 1000).astype(np.int64)
    a, b = np.nonzero(np.triu(q >= thr_milli, k=1))
    out = pd.DataFrame({"id_a": np.minimum(ids[a], ids[b]),
                        "id_b": np.maximum(ids[a], ids[b]),
                        "cos_milli": q[a, b]})
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


def _dist_pairs(num_blocks: int) -> pd.DataFrame:
    ds = read_table(SF_DIR, "embeddings", columns=["vec_id", "embedding"])
    got = dd.embedding_neardup_pairs(ds, threshold=0.45,
                                     num_blocks=num_blocks).to_pandas()
    return got.sort_values(["id_a", "id_b"], ignore_index=True)


def test_blockpair_matches_bruteforce():
    want = _brute_pairs()
    assert len(want) > 0
    for nb in (1, 8):
        got = _dist_pairs(nb)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_components_labels_matches_unionfind():
    pair_df = _brute_pairs()
    got = (dd.components_labels(rd.from_pandas(pair_df), node_col="doc_id")
           .to_pandas().sort_values("doc_id", ignore_index=True))
    want = dd.connected_components(pair_df).sort_values(
        "doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


def test_components_chain_converges():
    """A 4-node path graph needs >1 propagation round — verify the loop
    iterates to the true min label, not just one hop."""
    chain = pd.DataFrame({"id_a": [10, 11, 12], "id_b": [11, 12, 13],
                          "cos_milli": [999, 999, 999]})
    got = (dd.components_labels(rd.from_pandas(chain), node_col="doc_id")
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert got["doc_id"].tolist() == [10, 11, 12, 13]
    assert got["cluster_id"].tolist() == [10, 10, 10, 10]


def test_lsh_embedding_neardup_recall():
    """LSH path: precision exactly 1 (every emitted pair is verified on
    the true quantized cosine, so output ⊆ exact), recall >= 0.9 at the
    configured (r=4, b=24) amplification — deterministic given the fixed
    hyperplane seed."""
    ds = read_table(SF_DIR, "embeddings", columns=["vec_id", "embedding"])
    got = dd.embedding_neardup_lsh(ds, threshold=0.45).to_pandas()
    want = _brute_pairs()
    sg = set(map(tuple, got[["id_a", "id_b"]].to_numpy()))
    sw = set(map(tuple, want[["id_a", "id_b"]].to_numpy()))
    assert sg <= sw                       # precision 1
    assert len(sg) >= 0.9 * len(sw)       # recall bound
    # verified cos_milli values match the exact path's for shared pairs
    m = got.merge(want, on=["id_a", "id_b"], suffixes=("", "_w"))
    assert (m["cos_milli"] == m["cos_milli_w"]).all()


def test_exact_dedup_carry_keeps_winners_attrs():
    # duplicate texts across ids: the min-id row's carried column must
    # survive, not an arbitrary group member's
    df = pd.DataFrame({
        "doc_id": [5, 2, 9, 7, 1],
        "text":   ["aa", "aa", "bb", "bb", "cc"],
        "n_tokens": [50, 20, 90, 70, 10],
    })
    got = dd.exact_dedup(rd.from_pandas(df), carry=["n_tokens"]) \
            .to_pandas().sort_values("doc_id", ignore_index=True)
    want = pd.DataFrame({"doc_id": [1, 2, 7], "n_dups": [1, 2, 2],
                         "n_tokens": [10, 20, 70]})
    pd.testing.assert_frame_equal(got[["doc_id", "n_dups", "n_tokens"]],
                                  want, check_dtype=False)


def test_components_empty_pairs():
    empty = rd.from_pandas(pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                         "id_b": pd.Series(dtype="int64")}))
    got = dd.components_labels(empty, node_col="doc_id")
    # NB: Dataset.to_pandas() drops columns when there are zero rows, so
    # assert on the dataset schema (which downstream joins consume)
    assert got.schema().names == ["doc_id", "cluster_id"]
    assert got.count() == 0


def _dup_span_bruteforce(df: pd.DataFrame, L: int) -> pd.DataFrame:
    wins: dict[str, int] = {}
    per_doc: dict[object, list[int]] = {}
    for _, r in df.iterrows():
        toks = r["text"].split(" ")
        for i in range(len(toks) - L + 1):
            w = " ".join(toks[i:i + L])
            wins[w] = wins.get(w, 0) + 1
            per_doc.setdefault(r["doc_id"], []).append(0)  # placeholder
    rows = []
    for _, r in df.iterrows():
        toks = r["text"].split(" ")
        flagged = [i + 1 for i in range(len(toks) - L + 1)
                   if wins[" ".join(toks[i:i + L])] >= 2]
        if not flagged:
            continue
        # interval union of [p, p+L)
        spans, cur = [], None
        for p in flagged:
            if cur is None or p > cur[1]:
                cur = [p, p + L]
                spans.append(cur)
            else:
                cur[1] = max(cur[1], p + L)
        rows.append({"doc_id": r["doc_id"], "n_dup_windows": len(flagged),
                     "n_removed_tokens": sum(b - a for a, b in spans),
                     "n_tokens": len(toks)})
    return (pd.DataFrame(rows)
            .astype({"n_dup_windows": "int64",
                     "n_removed_tokens": "int64", "n_tokens": "int64"})
            .sort_values("doc_id", ignore_index=True))


def test_dup_spans_matches_bruteforce(ray_session):
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(40)]
    docs = []
    for i in range(60):
        toks = list(rng.choice(vocab, rng.integers(12, 60)))
        docs.append({"doc_id": i, "text": " ".join(toks)})
    # inject exact shared spans (partial overlaps, multiple per doc)
    shared = " ".join(vocab[:10])           # 10-token boilerplate
    docs[3]["text"] += " " + shared
    docs[7]["text"] = shared + " " + docs[7]["text"]
    docs[11]["text"] += " " + shared + " filler " + shared
    df = pd.DataFrame(docs)
    got = (dd.dup_spans(rd.from_pandas(df), window=8, min_count=2)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    want = _dup_span_bruteforce(df, 8)
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert len(want) >= 3


def test_dup_spans_boilerplate_no_fanout(ray_session):
    """The design claim vs the n-gram inverted index: a boilerplate
    window shared by EVERY doc costs O(occurrences) count rows, not
    O(occurrences^2) pairs — 1000 docs sharing one sentence must
    complete fast and flag all of them."""
    shared = " ".join(f"b{i}" for i in range(8))
    df = pd.DataFrame({
        "doc_id": range(1000),
        "text": [f"u{i}a u{i}b u{i}c " + shared + f" t{i}x t{i}y"
                 for i in range(1000)],
    })
    out = dd.dup_spans(rd.from_pandas(df), window=8,
                       min_count=2).to_pandas()
    assert len(out) == 1000
    assert (out["n_dup_windows"] == 1).all()
    assert (out["n_removed_tokens"] == 8).all()


def test_scrub_dup_spans_consistent_with_stats(ray_session):
    """The transform half must agree with the stats half: same removed
    token counts for flagged docs, zero for the rest, and cleaned
    token count + removed == original tokens."""
    df = pd.read_parquet("/root/testdata/sf0.001/documents.parquet")[
        ["doc_id", "text"]]
    ds = rd.from_pandas(df)
    stats = dd.dup_spans(ds, window=8, min_count=2).to_pandas()
    scrub = dd.scrub_dup_spans(rd.from_pandas(df), window=8,
                               min_count=2).to_pandas()
    assert len(scrub) == len(df)
    merged = scrub.merge(stats[["doc_id", "n_removed_tokens"]],
                         on="doc_id", how="left", suffixes=("", "_stats"))
    want = merged["n_removed_tokens_stats"].fillna(0).astype("int64")
    pd.testing.assert_series_equal(merged["n_removed_tokens"], want,
                                   check_names=False)
    orig_tokens = df.set_index("doc_id")["text"].str.split(" ").str.len()
    cleaned_tokens = scrub.set_index("doc_id")["text"].map(
        lambda t: len(t.split(" ")) if t else 0)
    total = (cleaned_tokens
             + scrub.set_index("doc_id")["n_removed_tokens"]).sort_index()
    pd.testing.assert_series_equal(total, orig_tokens.sort_index(),
                                   check_names=False)


def test_dedup_against_corpus_bruteforce_parity():
    """Incremental ingest dedup == driver-local brute force: corpus
    copies drop, fresh docs survive, within-shard dups collapse to the
    min id with the right n_dups."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from parallel_dataflow_ray.stages.dedup import dedup_against_corpus

    rng = np.random.default_rng(3)
    corpus_texts = [f"doc body {i} {rng.integers(1e6)}" for i in range(80)]
    new_rows = []
    nid = 1000
    for i in range(120):
        r = rng.random()
        if r < 0.3:                     # exact corpus copy -> must drop
            t = corpus_texts[int(rng.integers(80))]
        elif r < 0.5:                   # within-shard dup family
            t = f"fresh dup family {int(rng.integers(10))}"
        else:                           # unique fresh doc
            t = f"fresh unique {i}"
        new_rows.append((nid + i, t))
    new_df = pd.DataFrame(new_rows, columns=["doc_id", "text"])
    corpus_df = pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64),
                              "text": corpus_texts})

    got = dedup_against_corpus(
        rd.from_pandas(new_df), rd.from_pandas(corpus_df)
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)

    cset = set(corpus_texts)
    fresh = new_df[~new_df["text"].isin(cset)]
    want = (fresh.groupby("text", sort=False)
            .agg(doc_id=("doc_id", "min"), n_dups=("doc_id", "size"))
            .reset_index(drop=True)
            .sort_values("doc_id").reset_index(drop=True).astype("int64"))
    pd.testing.assert_frame_equal(got[["doc_id", "n_dups"]].astype("int64"),
                                  want[["doc_id", "n_dups"]])
    assert (got["n_dups"] > 1).any()          # within-shard dups exercised
    assert len(got) < len(new_df)             # corpus copies dropped


@pytest.mark.parametrize("fn", ["dedup_against_corpus", "dedup_lines"])
def test_dedup_refuses_float_ids(fn):
    """Float ids fail loudly, naming the id column and its dtype, instead
    of being truncated to int64 (2.7 would become id 2)."""
    new = rd.from_pandas(pd.DataFrame({"doc_id": [1.0, 2.7, 3.0],
                                       "text": ["a", "b", "a"]}))
    corpus = rd.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(2, dtype=np.int64), "text": ["x", "y"]}))
    with pytest.raises(Exception, match=r"signed-integer 'doc_id' values "
                                        r"\(got dtype float64\)"):
        if fn == "dedup_against_corpus":
            dd.dedup_against_corpus(new, corpus).to_pandas()
        else:
            dd.dedup_lines(new, corpus=corpus).to_pandas()


# ---------------------------------------------------------------------------
# fuzzy incremental ingest screen (jaccard_against_corpus)
# ---------------------------------------------------------------------------

def _jaccard_bruteforce(new: pd.DataFrame, corpus: pd.DataFrame,
                        threshold_milli: int) -> pd.DataFrame:
    from parallel_dataflow_ray.functions.text import word_shingles

    nsets = {r.doc_id: set(word_shingles(r.text or "", 3))
             for r in new.itertuples()}
    csets = {r.doc_id: set(word_shingles(r.text or "", 3))
             for r in corpus.itertuples()}
    rows = []
    for nid, ns in nsets.items():
        if not ns:
            continue
        jms = []
        for cid, cs in csets.items():
            if not cs:
                continue
            inter = len(ns & cs)
            if inter:
                jm = (1000 * inter) // (len(ns) + len(cs) - inter)
                if jm >= threshold_milli:
                    jms.append(jm)
        if jms:
            rows.append((nid, len(jms), max(jms)))
    return pd.DataFrame(rows, columns=["doc_id", "n_matches",
                                       "max_jaccard_milli"])


def _jc_canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.astype("int64").sort_values("doc_id", ignore_index=True)


def test_jaccard_against_corpus_bruteforce_parity():
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(30)]
    corpus = pd.DataFrame({
        "doc_id": np.arange(60),
        "text": [" ".join(rng.choice(vocab, 20)) for _ in range(60)]})
    # shard: near-copies (footer tweak), exact copies under new ids,
    # unrelated docs, an empty doc
    near = corpus.head(15).assign(
        doc_id=lambda d: d.doc_id + 1000,
        text=lambda d: d.text + " re v2")
    exact = corpus.iloc[15:25].assign(doc_id=lambda d: d.doc_id + 2000)
    fresh = pd.DataFrame({
        "doc_id": np.arange(3000, 3010),
        "text": [" ".join(rng.choice([f"z{i}" for i in range(50)], 20))
                 for _ in range(10)]})
    empty = pd.DataFrame({"doc_id": [4000], "text": [""]})
    new = pd.concat([near, exact, fresh, empty], ignore_index=True)

    got = dd.jaccard_against_corpus(
        rd.from_pandas(new), rd.from_pandas(corpus),
        threshold_milli=500, num_buckets=8).to_pandas()
    want = _jaccard_bruteforce(new, corpus, 500)
    pd.testing.assert_frame_equal(_jc_canon(got), _jc_canon(want))
    gi = got.set_index("doc_id")
    # every exact copy flagged at jaccard 1000; near-copies flagged high
    assert all(gi.loc[i + 2000, "max_jaccard_milli"] == 1000
               for i in range(15, 25))
    assert all(gi.loc[i + 1000, "max_jaccard_milli"] >= 800
               for i in range(15))
    # unrelated + empty docs absent
    assert not set(range(3000, 3010)) & set(got["doc_id"])
    assert 4000 not in set(got["doc_id"])


def test_jaccard_against_corpus_df_cap_drops_boilerplate():
    """A stop-shingle present in every doc is skipped under the cap;
    pairs whose only overlap is boilerplate disappear (reported pairs
    remain true pairs)."""
    boiler = "the same footer text"
    corpus = pd.DataFrame({
        "doc_id": np.arange(20),
        "text": [f"unique{i} alpha{i} beta{i} " + boiler
                 for i in range(20)]})
    new = pd.DataFrame({
        "doc_id": [100],
        "text": ["fresh words only here " + boiler]})
    capped = dd.jaccard_against_corpus(
        rd.from_pandas(new), rd.from_pandas(corpus),
        threshold_milli=200, num_buckets=4, df_cap=4).to_pandas()
    assert capped.empty              # boilerplate-only overlap dropped
    uncapped = dd.jaccard_against_corpus(
        rd.from_pandas(new), rd.from_pandas(corpus),
        threshold_milli=200, num_buckets=4, df_cap=None).to_pandas()
    assert len(uncapped) == 1        # exact join still finds it


def test_minhash_against_corpus_subset_of_exact_and_planted_recall():
    """The LSH scale path: flagged set ⊆ exact inverted-index screen
    (verification is exact, so no false positives), and every planted
    high-similarity near-copy is found (collision prob ≈1 at J≈0.9
    with 16 bands x 4 rows)."""
    rng = np.random.default_rng(23)
    vocab = [f"t{i}" for i in range(60)]
    corpus = pd.DataFrame({
        "doc_id": np.arange(80),
        "text": [" ".join(rng.choice(vocab, 40)) for _ in range(80)]})
    near = corpus.head(20).assign(
        doc_id=lambda d: d.doc_id + 1000,
        text=lambda d: d.text + " re v2")          # J ~ 0.93
    fresh = pd.DataFrame({
        "doc_id": np.arange(3000, 3010),
        "text": [" ".join(rng.choice([f"q{i}" for i in range(80)], 40))
                 for _ in range(10)]})
    new = pd.concat([near, fresh], ignore_index=True)

    got = dd.minhash_against_corpus(
        rd.from_pandas(new), rd.from_pandas(corpus),
        threshold_milli=500, num_buckets=8).to_pandas()
    exact = dd.jaccard_against_corpus(
        rd.from_pandas(new), rd.from_pandas(corpus),
        threshold_milli=500, num_buckets=8).to_pandas()

    # no false positives: every flagged doc is exact-flagged, and since
    # verification is true Jaccard, max values agree on the overlap
    ge = exact.set_index("doc_id")
    for r in got.itertuples():
        assert r.doc_id in ge.index
        assert r.max_jaccard_milli == ge.loc[r.doc_id,
                                             "max_jaccard_milli"]
        assert r.n_matches <= ge.loc[r.doc_id, "n_matches"]
    # planted near-copies all found
    assert set(near["doc_id"]) <= set(got["doc_id"])
    # genuinely-new docs never flagged
    assert not set(fresh["doc_id"]) & set(got["doc_id"])


def test_dedup_against_corpus_survives_lo_half_collision(monkeypatch):
    """The in-bucket match compares the FULL 128-bit pair: force every
    doc to collide in the low 64 bits and distinct texts must still
    neither cross-drop nor merge (the r3/r4 advisory's widening)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    import parallel_dataflow_ray.functions.text as textmod
    from parallel_dataflow_ray.stages.dedup import dedup_against_corpus

    real = textmod.fingerprint128

    def all_lo_collide(texts):
        _lo, hi = real(texts)
        return np.zeros(len(texts), np.int64), hi

    monkeypatch.setattr(textmod, "fingerprint128", all_lo_collide)
    new = pd.DataFrame({"doc_id": np.int64([10, 11, 12, 13]),
                        "text": ["in corpus", "fresh a", "fresh a",
                                 "fresh b"]})
    corpus = pd.DataFrame({"doc_id": np.int64([1]), "text": ["in corpus"]})
    out = dedup_against_corpus(
        rd.from_pandas(new), rd.from_pandas(corpus)
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [11, 13]
    assert out["n_dups"].tolist() == [2, 1]


def test_dedup_lines_c4_semantics():
    """C4 line dedup on real multi-line docs: first (doc_id, line_no)
    occurrence survives, later ones are struck, order preserved, and a
    doc made entirely of seen lines comes back empty."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from parallel_dataflow_ray.stages.dedup import dedup_lines

    df = pd.DataFrame({
        "doc_id": np.int64([1, 2, 3, 4]),
        "text": ["alpha\nboiler\nbeta",       # all first occurrences
                 "boiler\ngamma\nalpha",      # boiler+alpha struck
                 "alpha\nboiler",             # fully struck -> ''
                 None]})                      # null -> one '' line
    out = dedup_lines(rd.from_pandas(df).repartition(3), num_buckets=4
                      ).to_pandas().sort_values("doc_id",
                                                ignore_index=True)
    assert out["text_dedup"].tolist() == [
        "alpha\nboiler\nbeta", "gamma", "", ""]
    assert out["n_lines"].tolist() == [3, 3, 2, 1]
    assert out["n_removed_lines"].tolist() == [0, 2, 2, 0]
    # partition invariance of the survivor choice
    out2 = dedup_lines(rd.from_pandas(df).repartition(1), num_buckets=16
                       ).to_pandas().sort_values("doc_id",
                                                 ignore_index=True)
    pd.testing.assert_frame_equal(out, out2)


def test_dedup_lines_incremental_corpus_mode():
    """Ingest form: corpus lines strike shard lines everywhere; within
    the shard, first occurrence wins; corpus never appears in output."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from parallel_dataflow_ray.stages.dedup import dedup_lines

    shard = pd.DataFrame({
        "doc_id": np.int64([10, 12]),
        "text": ["boiler\nfresh a\nfresh b", "fresh a\nother"]})
    corpus = pd.DataFrame({
        "doc_id": np.int64([1, 3]),
        "text": ["boiler\nlegal", "legal\nboiler"]})
    out = dedup_lines(rd.from_pandas(shard).repartition(2),
                      corpus=rd.from_pandas(corpus).repartition(2),
                      num_buckets=4).to_pandas().sort_values(
        "doc_id", ignore_index=True)
    assert out["doc_id"].tolist() == [10, 12]
    assert out["text_dedup"].tolist() == ["fresh a\nfresh b", "other"]
    assert out["n_lines"].tolist() == [3, 2]
    assert out["n_removed_lines"].tolist() == [1, 1]


def test_dedup_lines_hypothesis_brute_force():
    """Property test: dedup_lines == a driver-local brute force on
    random corpora (random line alphabet, random doc/line counts,
    plain and corpus modes)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from hypothesis import given, settings, strategies as st

    from parallel_dataflow_ray.stages.dedup import dedup_lines

    line_st = st.sampled_from(["aa", "bb", "cc", "dd", ""])
    doc_st = st.lists(line_st, min_size=1, max_size=5)

    def brute(shard, corpus_texts):
        seen = set()
        for t in corpus_texts:
            seen.update((t or "").split("\n"))
        out = []
        for did, t in shard:                     # ids ascending
            lines = (t or "").split("\n")
            kept, removed = [], 0
            for ln in lines:
                if ln in seen:
                    removed += 1
                else:
                    seen.add(ln)
                    kept.append(ln)
            out.append((did, "\n".join(kept), len(lines), removed))
        return out

    @settings(max_examples=12, deadline=None)
    @given(st.lists(doc_st, min_size=1, max_size=6),
           st.lists(doc_st, min_size=0, max_size=3))
    def check(shard_docs, corpus_docs):
        shard = [(i, "\n".join(d)) for i, d in enumerate(shard_docs)]
        corpus_texts = ["\n".join(d) for d in corpus_docs]
        sd = pd.DataFrame(shard, columns=["doc_id", "text"])
        sd["doc_id"] = sd["doc_id"].astype(np.int64)
        kw = dict(num_buckets=4)
        if corpus_texts:
            cd = pd.DataFrame({
                "doc_id": np.arange(100, 100 + len(corpus_texts),
                                    dtype=np.int64),
                "text": corpus_texts})
            got = dedup_lines(rd.from_pandas(sd).repartition(2),
                              corpus=rd.from_pandas(cd).repartition(2),
                              **kw)
        else:
            got = dedup_lines(rd.from_pandas(sd).repartition(2), **kw)
        got = got.to_pandas().sort_values("doc_id", ignore_index=True)
        want = brute(shard, corpus_texts)
        assert [tuple(r) for r in got.itertuples(index=False)] == want

    check()
