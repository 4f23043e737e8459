"""Zone-map summaries must never be served stale.

Mirrors ``tests/test_execution_cache.py``: every mutation path in the
engine — ``append_rows``, small-group table replacement, ``drop_table``
— must leave the chunk summaries consistent with the data the query
actually scans.  A stale min/max or bitmask OR does not crash; it skips
chunks that now contain matching rows, which is exactly the
silent-wrongness failure mode the identity-anchored cache design rules
out.
"""

import gc

import numpy as np

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine.cache import MISS, get_cache
from repro.engine.database import Database
from repro.engine.executor import execute
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    Compare,
    CompareOp,
    Query,
)
from repro.engine.parallel import ExecutionOptions
from repro.engine.schema import ForeignKey, StarSchema
from repro.engine.table import Table
from repro.engine.zonemap import bitmask_chunk_ors, column_zone_map
from repro.middleware import AQPSession
from repro.sql.parser import parse_query

OPTIONS = ExecutionOptions(chunk_rows=8, data_skipping=True)

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")

SPEC = dict(
    categoricals=[
        CategoricalSpec("color", 20, 1.5),
        CategoricalSpec("status", 4, 0.8),
    ],
    measures=[MeasureSpec("amount", distribution="lognormal")],
)


def star_db() -> Database:
    fact = Table.from_dict(
        "sales",
        {
            "cust_id": [i % 5 for i in range(40)],
            "amount": [float(i) for i in range(40)],
            "channel": ["web" if i % 3 else "store" for i in range(40)],
        },
    )
    dim = Table.from_dict(
        "customers",
        {
            "cust_id": list(range(5)),
            "region": [f"r{i % 2}" for i in range(5)],
        },
    )
    schema = StarSchema(
        fact_table="sales",
        foreign_keys=(ForeignKey("cust_id", "customers", "cust_id"),),
    )
    return Database([fact, dim], schema)


def answer_values(answer):
    return {
        group: tuple(e.value for e in estimates)
        for group, estimates in answer.groups.items()
    }


class TestZoneMapCacheEntries:
    def test_zone_map_is_cached_per_column_and_layout(self):
        db = star_db()
        col = db.fact_table.column("amount")
        cache = get_cache()
        cache.clear()
        first = column_zone_map(col, OPTIONS)
        assert column_zone_map(col, OPTIONS) is first
        # A different chunk layout is a different summary.
        other = column_zone_map(col, ExecutionOptions(chunk_rows=16))
        assert other is not first
        assert other.n_chunks != first.n_chunks

    def test_entries_die_with_the_column(self):
        cache = get_cache()
        cache.clear()
        table = Table.from_dict("t", {"a": list(range(32))})
        column_zone_map(table.column("a"), OPTIONS)
        assert len(cache) == 1
        del table
        gc.collect()
        assert len(cache) == 0

    def test_bitmask_ors_cached_per_vector(self):
        from repro.engine.bitmask import BitmaskVector

        cache = get_cache()
        cache.clear()
        vector = BitmaskVector(32, 4)
        vector.set_bit(np.array([3, 17]), 2)
        ors = bitmask_chunk_ors(vector, OPTIONS)
        assert ors.shape == (4, 1)
        assert bitmask_chunk_ors(vector, OPTIONS) is ors
        replacement = BitmaskVector(32, 4)
        assert bitmask_chunk_ors(replacement, OPTIONS) is not ors


class TestAppendRowsInvalidation:
    # Selective on the tail of the value range: appended rows extend the
    # range, so a stale max would skip the chunks holding the new rows.
    QUERY = Query(
        "sales",
        (COUNT,),
        ("channel",),
        where=Compare("amount", CompareOp.GE, 100.0),
    )

    def test_appended_rows_are_not_skipped(self):
        db = star_db()
        cache = get_cache()
        cache.clear()
        before = execute(db, self.QUERY, options=OPTIONS)
        assert before.rows == {}  # nothing reaches 100 yet

        batch = Table.from_dict(
            "sales",
            {
                "cust_id": [0, 1, 2],
                "amount": [150.0, 250.0, 350.0],
                "channel": ["web", "web", "store"],
            },
        )
        db.append_rows("sales", batch)

        warm = execute(db, self.QUERY, options=OPTIONS)
        cache.clear()
        cold = execute(db, self.QUERY, options=OPTIONS)
        assert warm.rows == cold.rows
        assert warm.raw_counts == cold.raw_counts
        assert sum(warm.raw_counts.values()) == 3

    def test_append_drops_entries_anchored_on_replaced_columns(self):
        db = star_db()
        cache = get_cache()
        cache.clear()
        old_col = db.fact_table.column("amount")
        column_zone_map(old_col, OPTIONS)
        db.append_rows(
            "sales",
            Table.from_dict(
                "sales",
                {"cust_id": [0], "amount": [999.0], "channel": ["web"]},
            ),
        )
        new_col = db.fact_table.column("amount")
        # Whether append concatenated into a new column object or
        # invalidated in place, the summary served for the current column
        # must see the new maximum.
        assert new_col is not old_col or cache.get(
            "zone_map", (old_col,), extra=OPTIONS.chunk_rows
        ) is MISS
        zone_map = column_zone_map(new_col, OPTIONS)
        assert max(mx for _, mx, _ in zone_map.summaries) == 999.0


class TestSmallGroupReplacementInvalidation:
    SQL = (
        "SELECT color, COUNT(*) AS cnt FROM flat "
        "WHERE status = 'status_0' GROUP BY color"
    )

    def build(self):
        db = Database([generate_flat_table("flat", 3000, seed=7, **SPEC)])
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=7)
        )
        session = AQPSession(db, options=OPTIONS)
        session.install(sg)
        return db, sg, session

    def test_insert_rows_refreshes_summaries_and_answers(self):
        _, sg, session = self.build()
        session.sql(self.SQL)  # warm the zone maps on the sample tables
        sg.insert_rows(generate_flat_table("flat", 800, seed=8, **SPEC))

        warm = session.sql(self.SQL).approx
        get_cache().clear()
        cold = session.sql(self.SQL).approx
        assert answer_values(warm) == answer_values(cold)
        assert warm.rows_scanned == cold.rows_scanned

    def test_skipping_matches_no_skipping_after_replacement(self):
        _, sg, session = self.build()
        session.sql(self.SQL)
        sg.insert_rows(generate_flat_table("flat", 800, seed=8, **SPEC))
        with_skipping = session.sql(self.SQL).approx

        session.options = ExecutionOptions(chunk_rows=8, data_skipping=False)
        get_cache().clear()
        without = session.sql(self.SQL).approx
        assert answer_values(with_skipping) == answer_values(without)
        assert with_skipping.rows_scanned == without.rows_scanned

    def test_insert_rows_sample_maintenance_not_stale(self):
        db = Database([generate_flat_table("flat", 4000, seed=31, **SPEC)])
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=31)
        )
        technique.preprocess(db)
        query = parse_query(
            "SELECT status, COUNT(*) AS cnt, SUM(amount) AS total "
            "FROM flat WHERE amount BETWEEN 0.5 AND 50.0 GROUP BY status"
        )
        technique.answer(query)  # warms masks and zone maps on the samples
        technique.insert_rows(generate_flat_table("flat", 1000, seed=77, **SPEC))

        # Staleness oracle: the answer with whatever cache entries
        # survived the mutation must equal the answer from a cold cache.
        after = technique.answer(query)
        get_cache().clear()
        clean = technique.answer(query)
        assert set(after.groups) == set(clean.groups)
        for group, estimates in clean.groups.items():
            for mine, other in zip(estimates, after.groups[group]):
                assert other.value == mine.value, group
                assert other.variance == mine.variance, group


class TestDropTableInvalidation:
    def test_drop_table_releases_zone_maps(self):
        db = star_db()
        cache = get_cache()
        cache.clear()
        dim = db.table("customers")
        region = dim.column("region")
        column_zone_map(region, OPTIONS)
        assert (
            cache.get("zone_map", (region,), extra=OPTIONS.chunk_rows)
            is not MISS
        )
        db.drop_table("customers")
        assert (
            cache.get("zone_map", (region,), extra=OPTIONS.chunk_rows)
            is MISS
        )
