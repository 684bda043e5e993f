"""Auditable driver-window rotation (VERDICT r3 item 7).

The driver's CORRECTNESS sweep records only the first 50 registry
entries, while 65+ queries are oracle-gated — so entries rotate through
the head-50 window across rounds.  This test makes the claim "every
gated query has been driver-verified" checkable from the repo alone:
each ``oracle_sql()`` entry must have a fully-green row (rows + schema
+ hash) in at least one recorded ``CORRECTNESS_r*.json``, unless it is
explicitly declared new-this-round (pending its first driver window —
it still passes the identical DuckDB gate in test_queries_oracle.py).
"""

from __future__ import annotations

import glob
import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Queries added since the last recorded driver sweep: they ride the
# pytest mirror gate until the next CORRECTNESS_r*.json lands, at which
# point they must either be green there or be moved out of this set.
# round-4's 36 pending names all went driver-green in CORRECTNESS_r04 and
# were pruned here (VERDICT r4 item 1); round-5's three
# (pagerank_orders_delta, dedup_lines_docs, dedup_lines_incremental_docs)
# went driver-green in CORRECTNESS_r05.json and were pruned too.  Declare
# each new gated query here until a recorded sweep covers it.
PENDING_FIRST_DRIVER_WINDOW: set[str] = set()


def _driver_green() -> dict[str, list[str]]:
    covered: dict[str, list[str]] = {}
    for f in sorted(glob.glob(os.path.join(REPO, "CORRECTNESS_r*.json"))):
        rec = json.load(open(f))
        for k, v in rec.items():
            if (isinstance(v, dict) and v.get("rows_match")
                    and v.get("schema_match") and v.get("hash_match")
                    and not v.get("err")):
                covered.setdefault(k, []).append(os.path.basename(f))
    return covered


def test_every_gated_query_driver_green_in_some_round():
    from parallel_dataflow_ray.pipelines import ORACLE_SQL

    covered = _driver_green()
    missing = [n for n in ORACLE_SQL
               if n not in covered and n not in PENDING_FIRST_DRIVER_WINDOW]
    assert not missing, (
        f"oracle-gated queries never driver-green in any recorded round "
        f"and not declared pending: {missing}")


def test_pending_set_is_not_stale():
    """A query can't stay 'pending' once a recorded round covers it."""
    covered = _driver_green()
    stale = sorted(PENDING_FIRST_DRIVER_WINDOW & set(covered))
    assert not stale, f"remove from PENDING_FIRST_DRIVER_WINDOW: {stale}"


def test_pending_entries_exist_in_registry():
    from parallel_dataflow_ray.pipelines import ORACLE_SQL

    unknown = sorted(PENDING_FIRST_DRIVER_WINDOW - set(ORACLE_SQL))
    assert not unknown, f"pending names not in oracle_sql(): {unknown}"
