"""Deterministic synthetic two-group tables for experiments and tests."""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import SchemaError
from .fileio import atomic_write_text, read_text

COLUMNS = ("SEX", "score", "age")

DEFAULT_ROWS = 120_000
DEFAULT_SEED = 987_654_321


def synthetic_two_group(n_rows: int = DEFAULT_ROWS, seed: int = DEFAULT_SEED) -> list[dict[str, str]]:
    """Rows with a protected column and two numeric features.

    The Female subgroup's score distribution is shifted and reshaped against
    the rest, so the subgroup differs visibly from the pooled population;
    ages differ more mildly.  Deterministic in (n_rows, seed).
    """
    rng = np.random.default_rng(seed)
    female = rng.random(n_rows) < 0.4
    score = np.where(female,
                     rng.normal(4.2, 2.4, n_rows),
                     rng.normal(5.6, 1.8, n_rows))
    score = np.clip(score, 0.0, 10.0)
    age = np.where(female,
                   rng.gamma(6.0, 6.5, n_rows),
                   rng.gamma(9.0, 4.5, n_rows)) + 18.0
    age = np.clip(age, 18.0, 80.0)
    sex = np.where(female, "Female", "Male")
    return [
        {"SEX": s, "score": f"{sc:.6f}", "age": f"{ag:.6f}"}
        for s, sc, ag in zip(sex.tolist(), score.tolist(), age.tolist())
    ]


def write_synthetic_csv(path: str, n_rows: int = DEFAULT_ROWS,
                        seed: int = DEFAULT_SEED) -> None:
    """Write the synthetic table as CSV (atomic, byte-stable for fixed inputs)."""
    rows = synthetic_two_group(n_rows=n_rows, seed=seed)
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(row[c] for c in COLUMNS))
    atomic_write_text(str(path), "\n".join(lines) + "\n")


def read_csv_records(path: str) -> list[dict[str, str]]:
    """Load a UTF-8 CSV into a list of row dicts (header required).

    Raises SchemaError naming the file when it is not UTF-8 or not valid CSV.
    """
    try:
        return list(csv.DictReader(io.StringIO(read_text(path), newline="")))
    except csv.Error as exc:
        raise SchemaError(f"{path} is not valid CSV: {exc}") from exc
