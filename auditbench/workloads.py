"""The three benchmark workloads, driven through the CLI in-process.

A workload makes its inputs in `setup`, runs one round of CLI commands per
`run_pass`, and checks that round's outputs in `check_pass` with the
independent computations of `checks`.  Commands go through `Client` one at a
time (a closed loop with a single client), so each command's latency is its
own wall time.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import sys
import traceback
from typing import NamedTuple

import checks
import inputs
from speed import ALL_PARTS, LP_PART, Meter
from subspace_audit import cli


class Op(NamedTuple):
    """One CLI command as run: kind, exit code, stdout, and its wall seconds
    scaled to the reference machine speed (`seconds`) and as measured (`raw`)."""

    kind: str
    code: int | None
    out: str
    seconds: float
    raw: float
    ok: bool


class Client:
    """Runs one CLI command at a time in this process and times it.

    Times are measured by a shared `speed.Meter`, so each command carries its
    wall time and its time scaled to the reference machine speed.  `tracer`,
    when set, wraps each command in a `cli.<kind>` span.  A command fails
    when it raises or exits with a code outside `ok_codes`.
    """

    def __init__(self, meter: Meter | None = None,
                 calibration: dict[str, tuple[int, ...]] | None = None):
        self.ops: list[Op] = []
        self.tracer = None
        self.meter = meter or Meter()
        self.calibration = calibration or {}  # command kind -> speed.Meter parts

    def _invoke(self, kind: str, args: list[str], out: io.StringIO, err: io.StringIO):
        span = self.tracer.span(f"cli.{kind}") if self.tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.main.main(args=args, prog_name="subspace-audit", standalone_mode=False)
                    return 0
                except SystemExit as exc:
                    return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, reported and counted
            err.write(traceback.format_exc())
            return None

    def __call__(self, kind: str, args: list[str], ok_codes=(0,)) -> Op:
        out, err = io.StringIO(), io.StringIO()
        code, timing = self.meter.measure(self._invoke, kind, args, out, err,
                                          parts=self.calibration.get(kind, ALL_PARTS))
        op = Op(kind, code, out.getvalue(), timing.scaled, timing.raw, code in ok_codes)
        if not op.ok:
            print(f"failed: subspace-audit {' '.join(args)} -> exit {code}\n"
                  f"{err.getvalue()}", file=sys.stderr)
        self.ops.append(op)
        return op


class Workload:
    """Inputs under `work`; each pass bins the population and audits subgroups.

    Auditing one subgroup means `bin --filter`, `sample-size`, and at every
    band half-width in DELTAS an exact `query` plus `query --samples` at the
    PAC budget and at SMALL_BUDGET.
    """

    name = ""
    # Command kinds timed against one part of the calibration slice only.
    CALIBRATION: dict[str, tuple[int, ...]] = {}
    SCHEME: tuple[inputs.Feature, ...] = ()
    DELTAS: tuple[float, ...] = ()
    GROUPS: tuple[tuple[str, str], ...] = ()  # (filter column, value)
    EPS, DELTA_PROB = 0.05, 0.05  # the `sample-size` request
    SMALL_BUDGET = 64

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.shape = inputs.grid_shape(self.SCHEME)
        self.n_total = math.prod(self.shape)
        self.config = self.path("scheme.cfg")
        self.budget = checks.expected_budget(self.EPS, self.DELTA_PROB,
                                             len(self.shape), self.n_total)[1]

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def setup(self, client: Client) -> None:
        """Writes the table and configs; `self.table` names the CSV."""
        raise NotImplementedError

    def warm_up(self, client: Client) -> None:
        raise NotImplementedError

    def run_pass(self, client: Client, pass_no: int) -> int:
        """One round of commands; returns the number of subgroups audited."""
        raise NotImplementedError

    def check_pass(self, ops: list[Op], pass_no: int) -> None:
        raise NotImplementedError

    def final_check(self, client: Client) -> None:
        """Checks that need extra program output, run after the timed passes."""

    # -- shared audit steps --

    def _query_seed(self, pass_no: int, group: int, d: int, budget: int) -> int:
        return inputs.derive_seed(self.seed, 2, pass_no, group, d, budget)

    def _bin(self, client: Client, table: str, out: str,
             group: tuple[str, str] | None = None) -> None:
        args = ["bin", "--data", table, "--config", self.config, "--out", self.path(out)]
        if group is not None:
            args += ["--filter", f"{group[0]}={group[1]}"]
        client("bin", args)

    def _audit(self, client: Client, table: str, pass_no: int, g: int,
               reference: str, test: str) -> None:
        self._bin(client, table, test, self.GROUPS[g])
        client("sample_size", ["sample-size", "--eps", repr(self.EPS), "--delta",
                               repr(self.DELTA_PROB), "--n-features", str(len(self.shape)),
                               "--total-bins", str(self.n_total)])
        for d, delta in enumerate(self.DELTAS):
            query = ["query", "--reference", self.path(reference), "--test", self.path(test),
                     "--delta", repr(delta)]
            client("query_exact", query, ok_codes=(0, 1))
            for kind, budget in (("query_pac", self.budget), ("query_small", self.SMALL_BUDGET)):
                client(kind, query + ["--samples", str(budget), "--seed",
                                      str(self._query_seed(pass_no, g, d, budget))],
                       ok_codes=(0, 1))

    @property
    def audit_ops(self) -> int:
        """Commands per audited subgroup."""
        return 2 + 3 * len(self.DELTAS)

    def prepare_checks(self) -> None:
        """Counts recomputed from the table as written (untimed)."""
        columns = checks.read_columns(self.table)
        flats, valid = checks.bin_ids(columns, self.SCHEME)
        self.expected_population = checks.expected_counts(flats, valid)
        self.expected_groups = [checks.expected_counts(flats, valid, columns[col] == value)
                                for col, value in self.GROUPS]
        self.row_total = flats.size

    def _check_bin(self, op: Op, out: str, expected: checks.Counts) -> None:
        if op.ok:
            checks.check_bin(op.out, self.path(out), expected, self.shape)

    def _check_audit(self, ops: list[Op], pass_no: int, g: int, test: str) -> None:
        bin_op, size_op, *query_ops = ops
        expected, population = self.expected_groups[g], self.expected_population
        self._check_bin(bin_op, test, expected)
        if size_op.ok:
            checks.check_sample_size(size_op.out, self.EPS, self.DELTA_PROB,
                                     len(self.shape), self.n_total)
        for d, delta in enumerate(self.DELTAS):
            exact_op, pac_op, small_op = query_ops[3 * d:3 * d + 3]
            if not exact_op.ok:
                continue
            inside = checks.check_exact(exact_op.out, expected, population, delta, self.shape)
            checks.require(exact_op.code == (0 if inside else 1), "query exit code")
            for op, budget in ((pac_op, self.budget), (small_op, self.SMALL_BUDGET)):
                if op.ok:
                    sub_inside = checks.check_subsampled(
                        op.out, expected, population, delta, budget,
                        self._query_seed(pass_no, g, d, budget), inside, self.shape)
                    checks.require(op.code == (0 if sub_inside else 1), "query exit code")

    def row_counts(self) -> dict[str, int]:
        """Data rows per CSV the workload ingests, for the traced rows/s rate."""
        return {self.table: self.row_total}

    def info(self, passes) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed next to the metrics."""
        small = [op.seconds for p in passes for op in p.ops if op.kind == "query_small"]
        out = {"subsampled_query_small_p50_ms": (statistics.median(small) * 1e3, "ms"),
               "pac_budget": (float(self.budget), "bins")}
        for kind in ("query_exact", "query_pac", "query_small"):
            verdicts = [op.code for p in passes for op in p.ops if op.kind == kind]
            out[f"{kind}_outside_share"] = (verdicts.count(1) / len(verdicts), "ratio")
        return out


# --- subgroup-audit -------------------------------------------------------------

class SubgroupAudit(Workload):
    """Bin the population, then audit each of the 12 intersectional subgroups."""

    name = "subgroup-audit"
    SCHEME = inputs.AUDIT_SCHEME
    DELTAS = (inputs.AUDIT_DELTA,)
    GROUPS = tuple(("GROUP", label) for label in inputs.AUDIT_GROUPS)

    def __init__(self, work: str, seed: int):
        super().__init__(work, seed)
        self.table = self.path("audit.csv")

    def setup(self, client):
        with open(self.table, "w", encoding="utf-8", newline="") as fh:
            fh.write(inputs.audit_table(self.seed))
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(inputs.scheme_config(self.SCHEME))

    def warm_up(self, client):
        self._bin(client, self.table, "warm-population.hist")
        self._audit(client, self.table, 0, 0, "warm-population.hist", "warm-group.hist")

    def run_pass(self, client, pass_no):
        self._bin(client, self.table, "population.hist")
        for g in range(len(self.GROUPS)):
            self._audit(client, self.table, pass_no, g, "population.hist", f"group{g}.hist")
        return len(self.GROUPS)

    def check_pass(self, ops, pass_no):
        self._check_bin(ops[0], "population.hist", self.expected_population)
        for g in range(len(self.GROUPS)):
            start = 1 + g * self.audit_ops
            self._check_audit(ops[start:start + self.audit_ops], pass_no, g, f"group{g}.hist")


# --- sweep workloads ------------------------------------------------------------

class _SweepPipeline(Workload):
    """synth, then per pass: bin, audit both SEX groups, sweep the Female one."""

    SCHEME = inputs.SWEEP_SCHEME
    DELTAS = inputs.SWEEP_DELTAS
    GROUPS = tuple((inputs.SWEEP_SUBGROUP[0], value) for value in ("Female", "Male"))
    SAMPLES = inputs.SWEEP_SAMPLES
    TRIALS = 0
    BASELINE_TRIALS: int | None = None
    THREADS = 1
    WARM_ROWS = 1000

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.table = self.path("synth.csv")
        self.sweep_cfg = self.path("sweep.cfg")
        self.trials_run = 0

    def setup(self, client):
        client("synth", ["synth", "--rows", str(inputs.SYNTH_ROWS), "--seed",
                         str(inputs.derive_seed(self.seed, 4)), "--out", self.table])
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(inputs.scheme_config(self.SCHEME))
        with open(self.sweep_cfg, "w", encoding="utf-8") as fh:
            fh.write(inputs.sweep_config(self.seed, self.TRIALS, self.BASELINE_TRIALS,
                                         samples=self.SAMPLES))

    def warm_up(self, client):
        """Every command once on a small table, so lazy imports are done."""
        small, cfg = self.path("warm.csv"), self.path("warm-sweep.cfg")
        client("synth", ["synth", "--rows", str(self.WARM_ROWS), "--seed", "1", "--out", small])
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(inputs.sweep_config(self.seed, 20, 1 if self.BASELINE_TRIALS else None,
                                         samples=(50,)))
        self._bin(client, small, "warm-population.hist")
        self._audit(client, small, 0, 0, "warm-population.hist", "warm-group.hist")
        self._sweep(client, small, cfg, "warm-sweep.csv")

    def _sweep(self, client, table, config, out):
        client("sweep", ["sweep", "--config", config, "--data", table,
                         "--out", self.path(out), "--threads", str(self.THREADS)])

    def run_pass(self, client, pass_no):
        self._bin(client, self.table, "population.hist")
        for g in range(len(self.GROUPS)):
            self._audit(client, self.table, pass_no, g, "population.hist", f"group{g}.hist")
        self._sweep(client, self.table, self.sweep_cfg, "sweep.csv")
        return len(self.GROUPS)

    def check_pass(self, ops, pass_no):
        self._check_bin(ops[0], "population.hist", self.expected_population)
        for g in range(len(self.GROUPS)):
            start = 1 + g * self.audit_ops
            self._check_audit(ops[start:start + self.audit_ops], pass_no, g, f"group{g}.hist")
        if ops[-1].ok:
            with open(self.path("sweep.csv"), encoding="utf-8") as fh:
                self.trials_run = checks.check_supnorm_csv(
                    fh.read(), self.expected_groups[0], self.expected_population,
                    inputs.SWEEP_EPS, self.SAMPLES, self.TRIALS, self.n_total)

    def _sweep_seconds(self, passes) -> float:
        return statistics.median(op.seconds for p in passes for op in p.ops
                                 if op.kind == "sweep")


class SupnormSweep(_SweepPipeline):
    """Many sup-norm trials per cell, one thread, no baseline."""

    name = "supnorm-sweep"
    TRIALS = 10_000

    def info(self, passes):
        return dict(super().info(passes), mc_trials_per_s=(
            self.trials_run / self._sweep_seconds(passes), "1/s"))


class TransportBaseline(_SweepPipeline):
    """The exact W2 baseline: few trials, threads at the core count."""

    name = "transport-baseline"
    # about 90% of the sweep is kantorovich_lp (traced)
    CALIBRATION = {"sweep": LP_PART}
    # Without the 400-record subsamples a pass is short enough for three
    # passes per run, so one slow pass cannot set the median.
    SAMPLES = (50, 100, 200)
    TRIALS = 200
    BASELINE_TRIALS = 2
    THREADS = len(os.sched_getaffinity(0))

    def check_pass(self, ops, pass_no):
        super().check_pass(ops, pass_no)
        if ops[-1].ok:
            with open(self.path("sweep.csv.wasserstein.csv"), encoding="utf-8") as fh:
                checks.check_baseline_csv(fh.read(), self.SAMPLES, self.BASELINE_TRIALS)

    def final_check(self, client):
        """Full-data W2 of the last pass's Female histogram against the dual LP."""
        op = client("distance", ["distance", "--a", self.path("group0.hist"),
                                 "--b", self.path("population.hist"), "--p", "2",
                                 "--method", "exact"])
        checks.require(op.ok, "distance command failed")
        checks.check_distance(op.out, self.expected_groups[0], self.expected_population,
                              self.SCHEME)

    def info(self, passes):
        solves = 1 + len(self.SAMPLES) * self.BASELINE_TRIALS
        return dict(super().info(passes), baseline_solves_per_s=(
            solves / self._sweep_seconds(passes), "1/s"))


WORKLOADS = {w.name: w for w in (SubgroupAudit, SupnormSweep, TransportBaseline)}
