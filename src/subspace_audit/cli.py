"""Command-line surface for reproducible audit runs.

Exit codes: 0 success (and "inside" for query), 1 query verdict "outside",
2 parameter/schema/input problems, 3 incompatible binning schemes, 4 an
internal error (any other exception; a bug, never a verdict).  Every
run that writes files also writes a `<out>.manifest.json` sidecar with the
seed, config echo, and input fingerprints; a sweep's manifest also records,
under `run`, what the run derived (band half-widths, the baseline's full-data
distance and threshold, dropped records, measure fingerprints).  Outputs are
written atomically and are byte-identical across reruns with the same inputs
and seed.
"""

from __future__ import annotations

import json
import math
import os
import sys
from datetime import datetime, timezone

import click

from . import __version__
from .config import load_config, scheme_from_config, sweep_config_from
from .datasets import write_synthetic_csv
from .errors import AlignmentError, AuditError
from .fileio import atomic_write_text, sha256_file
from .histogram import (JointHistogram, ProbabilityHistogram, RecordFilter,
                        ingest_csv, normalize, read_flat_ids, read_histogram,
                        write_histogram)
from .pac import analytic_false_positive, sample_size, vc_dimension_bound
from .query import (ReferenceBand, subsampled_query, verdict_record,
                    violation_report)
from .sweep import measure_from_flats, run_supnorm_sweep, run_wasserstein_sweep
from .transport import wasserstein_nd

_EXIT_OUTSIDE = 1
_EXIT_USAGE = 2
_EXIT_ALIGNMENT = 3
_EXIT_INTERNAL = 4


class _AuditGroup(click.Group):
    """The one error boundary: no exception a command raises exits 1, "outside"."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except AuditError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_EXIT_ALIGNMENT if isinstance(exc, AlignmentError) else _EXIT_USAGE)
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(_EXIT_INTERNAL)


@click.group(cls=_AuditGroup)
@click.version_option(__version__)
def main():
    """Audit subgroup histograms against reference bands on a shared bin grid."""


def _write_manifest(out_path: str, command: str, params: dict,
                    seed: int | None, inputs: list[str], run: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": params,
        "seed": seed,
        "inputs": {os.path.basename(p): sha256_file(p) for p in inputs},
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if run is not None:
        manifest["run"] = run
    atomic_write_text(out_path + ".manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_filter(spec: str | None) -> RecordFilter | None:
    if spec is None:
        return None
    if "!=" in spec:
        column, _, value = spec.partition("!=")
        return RecordFilter(column=column.strip(), value=value.strip(), negate=True)
    column, sep, value = spec.partition("=")
    if not sep:
        raise AuditError(f"filter must look like COL=VAL or COL!=VAL, got {spec!r}")
    return RecordFilter(column=column.strip(), value=value.strip())


def _as_measure(hist: JointHistogram | ProbabilityHistogram) -> ProbabilityHistogram:
    return normalize(hist) if isinstance(hist, JointHistogram) else hist


@main.command("bin")
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False),
              help="CSV table to discretize.")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Key=value file declaring the feature.* scheme.")
@click.option("--filter", "filter_spec", default=None,
              help="COL=VAL keeps matching rows; COL!=VAL keeps the rest.")
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Histogram file to write.")
def cmd_bin(data, config_path, filter_spec, out):
    """Discretize a CSV into a joint histogram file."""
    scheme = scheme_from_config(load_config(config_path))
    hist = ingest_csv(data, scheme, _parse_filter(filter_spec))
    write_histogram(hist, out)
    _write_manifest(out, "bin",
                    {"data": os.path.basename(data), "filter": filter_spec,
                     "features": [f.name for f in scheme.features]},
                    seed=None, inputs=[data, config_path])
    click.echo(f"wrote {out}: total={hist.total} skipped={hist.skipped} "
               f"occupied_bins={hist.flats.size}")


@main.command("query")
@click.option("--reference", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Reference histogram file (counts are normalized on load).")
@click.option("--test", "test_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Test histogram file.")
@click.option("--delta", required=True, type=float, help="Band half-width.")
@click.option("--samples", type=int, default=None,
              help="Bin sample budget; omit for the exact full scan.")
@click.option("--seed", type=int, default=None,
              help="RNG seed for the subsampled mode; generated and printed when absent.")
def cmd_query(reference, test_path, delta, samples, seed):
    """Band membership verdict; exit 0 inside, 1 outside.

    Prints one line: verdict,delta,s,seed,witness,eps_hat,sup_norm.  For
    subsampled runs eps_hat and sup_norm describe the sampled bins only.
    """
    base = _as_measure(read_histogram(reference))
    test = _as_measure(read_histogram(test_path))
    band = ReferenceBand(base=base, delta=delta)
    if delta == 0:
        click.echo("warning: delta = 0 is degenerate (every bin counts as a violation)",
                   err=True)
    if samples is None:
        report = violation_report(test, band)
        outcome = report.outcome()
        line = verdict_record(outcome, delta, report.fraction, report.sup_norm)
    else:
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "big")
            click.echo(f"generated seed: {seed}", err=True)
        outcome = subsampled_query(test, band, samples, seed)
        diffs = outcome.sampled_diffs
        line = verdict_record(outcome, delta, (diffs >= delta).mean(), diffs.max())
    click.echo(line)
    sys.exit(0 if outcome.inside else _EXIT_OUTSIDE)


@main.command("sample-size")
@click.option("--eps", required=True, type=float,
              help="Violation fraction the sample must detect.")
@click.option("--delta", "delta_prob", required=True, type=float,
              help="Acceptable failure probability of the guarantee.")
@click.option("--n-features", required=True, type=int)
@click.option("--total-bins", type=int, default=None,
              help="Grid size; adds the analytic false-positive rate to the row.")
@click.option("--union-constant", type=float, default=2.0, show_default=True,
              help="Constant in the O(n log n) dimension bound.")
def cmd_sample_size(eps, delta_prob, n_features, total_bins, union_constant):
    """Print d,s(,analytic_rate,capped?) as a single CSV row."""
    vc_dim = vc_dimension_bound(n_features, union_constant)
    samples = sample_size(eps, delta_prob, vc_dim)
    fields = [str(vc_dim), str(samples)]
    if total_bins is not None:
        violating = min(math.ceil(eps * total_bins), total_bins)
        effective = min(samples, total_bins)
        rate = analytic_false_positive(total_bins, violating, effective)
        fields = [str(vc_dim), str(effective), repr(rate)]
        if samples > total_bins:
            fields.append("capped")
    click.echo(",".join(fields))


@main.command("sweep")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Result CSV; a baseline run adds <out>.wasserstein.csv.")
@click.option("--seed", type=int, default=None, help="Overrides the config master seed.")
@click.option("--threads", type=int, default=None, envvar="SUBSPACE_AUDIT_THREADS",
              help="Cap on concurrent baseline transport solves "
                   "(env: SUBSPACE_AUDIT_THREADS).")
@click.option("--baseline", type=click.Choice(["none", "wasserstein"]), default=None,
              help="Overrides the config baseline choice.")
def cmd_sweep(config_path, data, out, seed, threads, baseline):
    """Run the error-rate sweep and write CSV result(s) plus a manifest."""
    cfg = load_config(config_path)
    scheme = scheme_from_config(cfg)
    if seed is None and "seed" not in cfg:
        seed = int.from_bytes(os.urandom(8), "big")
        click.echo(f"generated seed: {seed}", err=True)
    sweep_cfg = sweep_config_from(cfg, scheme, seed=seed, threads=threads, baseline=baseline)
    subgroup = RecordFilter(sweep_cfg.protected_column, sweep_cfg.subgroup_value)
    test, reference = read_flat_ids(data, scheme, subgroup), read_flat_ids(data, scheme)
    result = run_supnorm_sweep(sweep_cfg, measure_from_flats(test[0], scheme),
                               measure_from_flats(reference[0], scheme))
    atomic_write_text(out, result.to_csv())
    outputs = {"supnorm": os.path.basename(out)}
    derived = {"supnorm": {**result.metadata, "dropped_test": test[1],
                           "dropped_reference": reference[1]}}
    if sweep_cfg.baseline is not None:
        baseline_result = run_wasserstein_sweep(sweep_cfg, test, reference)
        baseline_out = out + ".wasserstein.csv"
        atomic_write_text(baseline_out, baseline_result.to_csv())
        outputs["wasserstein"] = os.path.basename(baseline_out)
        derived["wasserstein"] = baseline_result.metadata
    _write_manifest(out, "sweep",
                    {"config_echo": cfg, "overrides": {
                        "seed": seed, "threads": threads, "baseline": baseline},
                     "outputs": outputs},
                    seed=sweep_cfg.seed, inputs=[data, config_path], run=derived)
    click.echo(f"wrote {out} ({len(result.rows)} rows)")


@main.command("distance")
@click.option("--a", "path_a", required=True, type=click.Path(exists=True, dir_okay=False),
              help="First histogram file (counts are normalized on load).")
@click.option("--b", "path_b", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Second histogram file.")
@click.option("--p", type=float, default=2.0, show_default=True, help="Distance order.")
@click.option("--method", type=click.Choice(["exact", "entropic"]), default="exact",
              show_default=True)
@click.option("--reg", type=float, default=0.01, show_default=True,
              help="Entropic regularization, relative to the largest ground cost.")
def cmd_distance(path_a, path_b, p, method, reg):
    """Transport distance between two histograms; prints distance,residual."""
    first = _as_measure(read_histogram(path_a))
    second = _as_measure(read_histogram(path_b))
    value, plan = wasserstein_nd(first, second, p, method=method,
                                 reg_factor=reg, with_plan=True)
    click.echo(f"{value!r},{plan.marginal_residual!r}")


@main.command("synth")
@click.option("--rows", type=click.IntRange(min=0), default=120_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=987_654_321, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_synth(rows, seed, out):
    """Write the bundled synthetic two-group CSV (deterministic in rows/seed)."""
    write_synthetic_csv(out, n_rows=rows, seed=seed)
    click.echo(f"wrote {out}: {rows} rows")


if __name__ == "__main__":
    main()
