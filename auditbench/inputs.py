"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed.  The program receives
only the generated files: a CSV table and the key=value config that
declares its binning scheme.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Feature(NamedTuple):
    """One encoded feature, as declared in the config file."""

    name: str
    kind: str  # "continuous" | "categorical"
    lower: float = 0.0
    upper: float = 0.0
    bins: int = 0
    categories: tuple[str, ...] = ()

    @property
    def bin_count(self) -> int:
        return self.bins if self.kind == "continuous" else len(self.categories)

    def config_line(self) -> str:
        if self.kind == "continuous":
            return f"feature.{self.name} = continuous:{self.lower!r}:{self.upper!r}:{self.bins}"
        return f"feature.{self.name} = categorical:{','.join(self.categories)}"

    def centers(self) -> np.ndarray:
        if self.kind == "categorical":
            return np.arange(len(self.categories), dtype=float)
        width = (self.upper - self.lower) / self.bins
        return self.lower + (np.arange(self.bins) + 0.5) * width


def grid_shape(scheme: tuple[Feature, ...]) -> tuple[int, ...]:
    return tuple(f.bin_count for f in scheme)


def scheme_config(scheme: tuple[Feature, ...]) -> str:
    return "\n".join(f.config_line() for f in scheme) + "\n"


def derive_seed(seed: int, *path: int) -> int:
    """Non-negative 63-bit seed for one (workload seed, *path) stream."""
    state = np.random.SeedSequence((seed, *path)).generate_state(2, np.uint32)
    return (int(state[0]) << 31) | (int(state[1]) >> 1)


# --- subgroup-audit ---------------------------------------------------------
#
# Five features on a 32*32*32*16*4 = 2**21-bin grid.  Records sit on a few
# thousand "prototype" bins, so well under 1% of the grid is occupied.  Three
# protected attributes give 12 intersectional subgroups, named in the GROUP
# column because `bin --filter` takes a single COL=VAL test.

AUDIT_SCHEME = (
    Feature("income", "continuous", 0.0, 200000.0, 32),
    Feature("age", "continuous", 18.0, 90.0, 32),
    Feature("tenure", "continuous", 0.0, 40.0, 32),
    Feature("score", "continuous", 0.0, 1.0, 16),
    Feature("region", "categorical", categories=("north", "east", "south", "west")),
)
PROTECTED = {
    "SEX": ("Female", "Male"),
    "RACE": ("A", "B", "C"),
    "DISABILITY": ("yes", "no"),
}
AUDIT_GROUPS = tuple(f"{s}/{r}/{d}" for s in PROTECTED["SEX"]
                     for r in PROTECTED["RACE"] for d in PROTECTED["DISABILITY"])
AUDIT_ROWS = 40_000
AUDIT_PROTOTYPES = 4_000
# Every third subgroup puts a quarter of its records on five bins of its own
# (about 5% mass each), far above any 0.02 band; the others follow the
# population, whose largest per-bin gap stays near 0.005 at these sizes.
AUDIT_BIASED = frozenset(range(1, len(AUDIT_GROUPS), 3))
AUDIT_TILT = 0.25
AUDIT_DELTA = 0.02
AUDIT_MISSING = 0.003  # share of records with a blank score, reported as skipped


def audit_table(seed: int) -> str:
    """CSV text of the subgroup-audit table for this seed."""
    rng = np.random.default_rng(derive_seed(seed, 1))
    shape = grid_shape(AUDIT_SCHEME)
    n_total = int(np.prod(shape))
    prototypes = rng.choice(n_total, AUDIT_PROTOTYPES, replace=False)
    weights = rng.dirichlet(np.full(AUDIT_PROTOTYPES, 5.0))
    group_share = rng.uniform(1.0, 3.0, len(AUDIT_GROUPS))
    group = rng.choice(len(AUDIT_GROUPS), AUDIT_ROWS, p=group_share / group_share.sum())
    flat = prototypes[rng.choice(AUDIT_PROTOTYPES, AUDIT_ROWS, p=weights)]
    for g in sorted(AUDIT_BIASED):
        rows = np.flatnonzero(group == g)
        tilted = rows[rng.random(rows.size) < AUDIT_TILT]
        own_bins = rng.choice(n_total, 5, replace=False)
        flat[tilted] = own_bins[rng.integers(0, 5, tilted.size)]
    coords = np.unravel_index(flat, shape)

    columns = [[AUDIT_GROUPS[g] for g in group.tolist()]]
    for feature, coord in zip(AUDIT_SCHEME, coords):
        if feature.kind == "categorical":
            columns.append([feature.categories[c] for c in coord.tolist()])
            continue
        # a uniform point inside the record's bin, away from the bin edges
        width = (feature.upper - feature.lower) / feature.bins
        values = feature.lower + (coord + rng.uniform(0.01, 0.99, AUDIT_ROWS)) * width
        columns.append([f"{v:.6f}" for v in values.tolist()])
    score = [f.name for f in AUDIT_SCHEME].index("score") + 1
    for row in np.flatnonzero(rng.random(AUDIT_ROWS) < AUDIT_MISSING).tolist():
        columns[score][row] = ""
    header = ["GROUP"] + [f.name for f in AUDIT_SCHEME]
    lines = [",".join(header)]
    lines.extend(",".join(fields) for fields in zip(*columns))
    return "\n".join(lines) + "\n"


# --- supnorm-sweep and transport-baseline -------------------------------------
#
# Both sweep workloads run on the bundled synthetic table (`synth`, default
# size) and the example 500-bin scheme; only the `synth` seed and the sweep's
# master seed come from the workload seed.

SWEEP_SCHEME = (
    Feature("score", "continuous", 0.0, 10.0, 20),
    Feature("age", "continuous", 18.0, 80.0, 25),
)
SYNTH_ROWS = 120_000
SWEEP_SUBGROUP = ("SEX", "Female")
SWEEP_EPS = (0.05, 0.1, 0.2)
SWEEP_SAMPLES = (50, 100, 200, 400)
# Band half-widths of the pipeline's own `query` commands: the Female-vs-all
# sup-norm gap is about 0.004, so the verdicts differ across them.
SWEEP_DELTAS = (0.001, 0.002, 0.004, 0.008)


def sweep_config(seed: int, trials: int, baseline_trials: int | None = None,
                 samples: tuple[int, ...] = SWEEP_SAMPLES) -> str:
    """Sweep config text; a baseline_trials value adds the W2 baseline."""
    lines = [
        scheme_config(SWEEP_SCHEME).rstrip("\n"),
        f"protected = {SWEEP_SUBGROUP[0]}",
        f"subgroup = {SWEEP_SUBGROUP[1]}",
        "eps = " + ",".join(repr(e) for e in SWEEP_EPS),
        "samples = " + ",".join(str(s) for s in samples),
        f"trials = {trials}",
        f"seed = {derive_seed(seed, 3)}",
    ]
    if baseline_trials is not None:
        lines += ["baseline = wasserstein", "p = 2", "method = exact",
                  "threshold_factor = 1.25", f"baseline_trials = {baseline_trials}"]
    return "\n".join(lines) + "\n"
