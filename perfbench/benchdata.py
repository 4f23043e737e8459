"""Inputs of the served-AQP benchmark: stored database, queries, appends.

The database is TPC-H with Zipf skew z = 2.0 and 1,000,000 fact rows
(``repro.datagen.tpch``), stored with ``repro.storage``.  It is the same
for every seed; the seed drives the traffic: query order, the order each
client walks the panel in, and the rows of every append batch.

Generated data and reference answers are kept under
``.perfbench_cache/<key>/``, where ``key`` hashes the source of
``src/repro`` and of this directory, so a changed program never reuses
a stale reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FACT_ROWS = 1_000_000
SKEW_Z = 2.0
#: Datagen seed of the stored database (fixed: see README "Seeds").
DATA_SEED = 2003
#: Queries per (group columns, predicates, subset fraction) cell and
#: aggregate; 32 cells x 2 aggregates x 16 = 1,024 distinct queries.
QUERIES_PER_CELL = 16
APPEND_ROWS = 2048
FACT_TABLE = "lineitem"


def code_key(root: Path) -> str:
    """Hash of the program and benchmark source under ``root``."""
    digest = hashlib.sha256()
    files = sorted((root / "src" / "repro").rglob("*.py"))
    files += sorted((root / "perfbench").glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cache_dir(root: Path) -> Path:
    path = root / ".perfbench_cache" / code_key(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def stored_database(cache: Path) -> Path:
    """Directory of the stored benchmark database, generated on first use.

    Datagen and storage happen here, before any timed set-up.
    """
    target = cache / "tpch_z2_1m"
    if (target / "catalog.json").exists():
        return target
    from repro.datagen.tpch import generate_tpch
    from repro.storage.io import save_database

    db = generate_tpch(
        scale=1.0, z=SKEW_Z, rows_per_scale=FACT_ROWS, seed=DATA_SEED
    )
    staging = cache / f"tpch_z2_1m.tmp{os.getpid()}"
    save_database(db, staging)
    shutil.rmtree(target, ignore_errors=True)
    os.replace(staging, target)
    return target


@dataclass
class Inputs:
    """Everything a run sends, derived from the stored data and the seed."""

    db_dir: Path
    #: SQL text of every query; a query's index is its position.
    pool: list[str]
    #: Pool indices whose answers are scored for accuracy: one query per
    #: cell and aggregate (64), the same set for every seed.
    accuracy_set: list[int]
    #: The dashboard panel: 1-4 group columns x COUNT/SUM, 1 predicate,
    #: subset fraction 0.1; the same 8 queries for every seed.
    panel: list[int]
    seed: int

    def sequence(self) -> list[int]:
        """The distinct query order of ``adhoc`` and ``exact_scan``.

        Rounds of one query from every cell and aggregate (64 queries).
        Round 0 is the accuracy set, so every run scores it; the seed
        picks which of a cell's other queries goes in which later round,
        and the order of the cells in every round.  Every prefix of the
        sequence mixes query shapes alike, so runs of different seeds do
        comparable work.
        """
        rng = np.random.default_rng([self.seed, 1])
        later = [1 + rng.permutation(QUERIES_PER_CELL - 1) for _ in self.accuracy_set]
        order = []
        for round_ in range(QUERIES_PER_CELL):
            cells = [
                first + (int(later[c][round_ - 1]) if round_ else 0)
                for c, first in enumerate(self.accuracy_set)
            ]
            rng.shuffle(cells)
            order.extend(cells)
        return order

    def panel_order(self, client: int) -> list[int]:
        """The order in which dashboard client ``client`` walks the panel."""
        order = list(self.panel)
        np.random.default_rng([self.seed, 2, client]).shuffle(order)
        return order


def load_inputs(cache: Path, db, db_dir: Path, seed: int) -> Inputs:
    """The query pool, generated on first use and kept in the cache."""
    path = cache / "pool.json"
    if not path.exists():
        inputs = build_inputs(db, db_dir, seed)
        staging = path.with_name(f"pool.json.tmp{os.getpid()}")
        staging.write_text(
            json.dumps(
                {
                    "pool": inputs.pool,
                    "accuracy_set": inputs.accuracy_set,
                    "panel": inputs.panel,
                }
            )
        )
        os.replace(staging, path)
        return inputs
    saved = json.loads(path.read_text())
    return Inputs(
        db_dir=db_dir,
        pool=saved["pool"],
        accuracy_set=saved["accuracy_set"],
        panel=saved["panel"],
        seed=seed,
    )


def build_inputs(db, db_dir: Path, seed: int) -> Inputs:
    """Query pool from ``repro.workload.generate_workload`` (paper §5.2.3)."""
    from repro.datagen.tpch import TPCH_KEY_COLUMNS, TPCH_MEASURE_COLUMNS
    from repro.sql.formatter import format_query
    from repro.workload.generator import generate_workload
    from repro.workload.spec import WorkloadConfig

    pool: list[str] = []
    accuracy: list[int] = []
    panel: list[int] = []
    for aggregate, workload_seed in (("COUNT", 11), ("SUM", 12)):
        workload = generate_workload(
            db,
            WorkloadConfig(
                aggregate=aggregate,
                measure_columns=(
                    TPCH_MEASURE_COLUMNS if aggregate == "SUM" else ()
                ),
                queries_per_combo=QUERIES_PER_CELL,
                exclude_columns=TPCH_KEY_COLUMNS,
                seed=workload_seed,
            ),
        )
        for i, wq in enumerate(workload.queries):
            index = len(pool)
            pool.append(format_query(wq.query))
            if i % QUERIES_PER_CELL == 0:
                accuracy.append(index)
                if wq.n_predicates == 1 and wq.subset_fraction == 0.1:
                    panel.append(index)
    return Inputs(
        db_dir=db_dir, pool=pool, accuracy_set=accuracy, panel=panel, seed=seed
    )


def append_bodies(db, seed: int, count: int) -> list[bytes]:
    """``/append`` request bodies: ``count`` batches of joined-view rows
    drawn with the seed.

    Rows are resampled from the stored joined view, so every foreign key
    resolves and every categorical value is one the data already has.
    Encoded here, as ``ReproClient.append_rows`` would encode them, so no
    timed window pays for it.
    """
    from repro.obs.jsonsafe import dumps

    view = db.joined_view()
    rng = np.random.default_rng([seed, 3])
    bodies = []
    for _ in range(count):
        rows = view.take(rng.integers(0, view.n_rows, APPEND_ROWS))
        columns = {name: rows.column(name).to_list() for name in rows.column_names}
        bodies.append(dumps({"table": FACT_TABLE, "rows": columns}).encode("utf-8"))
    return bodies
