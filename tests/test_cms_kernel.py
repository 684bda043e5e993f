"""CMSWatch kernel laws: never-undercount, width-bounded overcount,
exactness at collision-free width, merge == single-pass, watchlist
read-off parity vs brute force."""
import numpy as np
import pandas as pd
import pyarrow as pa

from parallel_dataflow_ray.fixtures import clips_table
from parallel_dataflow_ray.streaming import StreamEngine, TumblingWindows
from parallel_dataflow_ray.streaming.kernels import CMSWatch
from parallel_dataflow_ray.streaming.partitioning import epochs_from_table


def _true_counts(words, watch):
    s = pd.Series(words)
    vc = s.value_counts()
    return {w: int(vc.get(w, 0)) for w in watch}


def _ingest_words(spec, state, words):
    return spec.update_table(state, pa.table({"transcript": [" ".join(words)]}))


def test_never_undercounts_and_exact_at_default_width():
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(200)]
    words = list(rng.choice(vocab, 5000))
    watch = ("w0", "w1", "w42", "absent")
    spec = CMSWatch(watch=watch)
    st = _ingest_words(spec, spec.initial_state(), words)
    true = _true_counts(words, watch)
    est = spec.estimate(st, watch)
    for w, e in zip(watch, est):
        assert e >= true[w]
    # 200 items in 4x1024 rows: min-over-depth is exact w.o.p. for this
    # fixed seed (pytest-gated determinism, not luck per run)
    assert {w: int(e) for w, e in zip(watch, est)} == true
    assert st["n"] == len(words)


def test_overcount_bounded_at_adversarial_width():
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(3000)]
    words = list(rng.choice(vocab, 20_000))
    watch = tuple(f"t{i}" for i in range(8))
    spec = CMSWatch(watch=watch, depth=4, width=64)   # heavy collisions
    st = _ingest_words(spec, spec.initial_state(), words)
    true = _true_counts(words, watch)
    est = spec.estimate(st, watch)
    n = st["n"]
    for w, e in zip(watch, est):
        assert e >= true[w]
        # CMS law: overshoot <= 2N/width with prob 1-2^-depth per query;
        # allow 2x slack so the fixed seed is comfortably inside
        assert e - true[w] <= 2 * (2 * n / 64)


def test_merge_equals_single_pass_any_split():
    rng = np.random.default_rng(3)
    vocab = [f"v{i}" for i in range(50)]
    words = list(rng.choice(vocab, 2000))
    spec = CMSWatch()
    whole = _ingest_words(spec, spec.initial_state(), words)
    for cut in (1, 137, 1000, 1999):
        a = _ingest_words(spec, spec.initial_state(), words[:cut])
        b = _ingest_words(spec, spec.initial_state(), words[cut:])
        m = spec.merge(a, b)
        assert np.array_equal(m["cms"], whole["cms"])
        assert m["n"] == whole["n"]
    # merge is commutative
    a = _ingest_words(spec, spec.initial_state(), words[:700])
    b = _ingest_words(spec, spec.initial_state(), words[700:])
    ab = spec.merge(_ingest_words(spec, spec.initial_state(), words[:700]),
                    b)
    ba = spec.merge(_ingest_words(spec, spec.initial_state(), words[700:]),
                    a)
    assert np.array_equal(ab["cms"], ba["cms"])


def test_update_table_matches_bruteforce_word_count():
    """One run of several rows, a None transcript among them: the
    watchlist read-off equals a plain word count over the run."""
    transcripts = ["the quick brown", None, "the the codec"]
    spec = CMSWatch(watch=("the", "quick", "codec", "absent"))
    st = spec.update_table(spec.initial_state(),
                           pa.table({"transcript": pa.array(transcripts)}))
    words = " ".join(t or "" for t in transcripts).split()
    assert st["n"] == len(words)
    est = spec.estimate(st, spec.watch)
    assert {w: int(e) for w, e in zip(spec.watch, est)} == \
        _true_counts(words, spec.watch)


def test_engine_watch_counts_match_bruteforce(ray_session):
    table = clips_table(400, seed=42, lateness_ms=0, n_speakers=7)
    epochs = epochs_from_table(table, 97)
    spec = CMSWatch()
    eng = StreamEngine("window",
                       {"spec": CMSWatch(),
                        "assigner": TumblingWindows(2_000_000)},
                       num_partitions=4, allowed_lateness_us=50_000)
    res = eng.run(epochs, collect=True, final_flush=True)
    rows = [r for ep in res["emitted"] for r in ep]
    assert rows
    # brute-force per (speaker, window) watch counts off the fixture
    df = table.to_pandas()
    eu = df["event_ts"].astype("int64")          # timestamp[us] -> us
    df["window_start"] = (eu // 2_000_000) * 2_000_000
    for r in rows:
        grp = df[(df["speaker_id"] == r["speaker_id"])
                 & (df["window_start"] == r["window_start"])]
        words = " ".join(grp["transcript"]).split()
        true = _true_counts(words, spec.watch)
        got = dict(kv.split(":") for kv in r["watch_counts"].split(","))
        assert {k: int(v) for k, v in got.items()} == true
        assert r["n_words"] == len(words)
