#!/usr/bin/env python3
"""Layered benchmark of the subspace-audit CLI.

    python3 auditbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The package is imported from the repository's `src/`, found next to this
directory, so nothing needs installing.  One process runs one workload as a
closed loop: a single client sends the next CLI command only after the
previous one returned.  Passes (whole rounds of the workload's commands) repeat until
`--seconds` of commands have run, three passes at least; every pass's outputs are checked against
independent computations.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Without `--workload`, every workload runs in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".auditbench")
SETUP_ROUNDS = 3
# Medians over passes need at least three, so one slow pass cannot set them.
MIN_PASSES = 3


class Pass(NamedTuple):
    ops: list
    subgroups: int
    traced: bool

    @property
    def seconds(self) -> float:
        """Scaled command time of the pass (calibration between commands excluded)."""
        return sum(op.seconds for op in self.ops)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def figures(passes: list[Pass], timing: str = "seconds") -> dict[str, float]:
    """End-to-end figures of a set of passes, from scaled (`seconds`) or `raw`
    command times: medians over passes or over commands."""
    def p50_ms(kind: str) -> float:
        return statistics.median(getattr(op, timing) for p in passes for op in p.ops
                                 if op.kind == kind) * 1e3

    return {
        "audit_subgroups_per_s": statistics.median(
            p.subgroups / sum(getattr(op, timing) for op in p.ops) for p in passes),
        "bin_p50_ms": p50_ms("bin"),
        "exact_query_p50_ms": p50_ms("query_exact"),
        "subsampled_query_p50_ms": p50_ms("query_pac"),
    }


def layer_metrics(spans, traced_passes: int, rows: dict[str, int]) -> dict[str, float]:
    """Per-layer figures per traced pass, from the recorded spans."""
    from spans import LAYER_FUNCTIONS, summarize

    table = summarize(spans)
    out: dict[str, float] = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for fn in names:
            row = table.get(f"{layer}.{fn}", {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
            for field in ("calls", "s", "self_s"):
                out[f"{layer}.{fn}.{field}"] = row[field] / traced_passes
    commands = [row for name, row in table.items() if name.startswith("cli.")]
    out["cli.commands"] = sum(r["calls"] for r in commands) / traced_passes
    out["cli.self_s"] = sum(r["self_s"] for r in commands) / traced_passes
    ingest = table.get("histogram.ingest_csv")
    out["histogram.ingest_csv.rows_per_s"] = ingest["count"] / ingest["s"] if ingest else 0.0
    lp = table.get("transport.kantorovich_lp")
    out["transport.lp_vars"] = lp["count"] / traced_passes if lp else 0.0
    out["trace.spans"] = len(spans) / traced_passes
    return out


def setup_round(workload, client) -> None:
    """Imports in a fresh interpreter, input generation and warm-up."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import subspace_audit.cli"], env=env, check=True)
    workload.setup(client)
    workload.warm_up(client)


def checked(check, *args) -> list[str]:
    """Runs one output check; any error it raises, a malformed output
    included, is a failed check rather than a crash of the harness."""
    try:
        check(*args)
    except Exception as exc:  # reported with the run's result
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]
    return []


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    from spans import Tracer
    from speed import Meter
    from workloads import WORKLOADS, Client

    work = os.path.join(WORK_ROOT, f"{name}-seed{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = WORKLOADS[name](work, seed)
        meter = Meter()
        client = Client(meter, workload.CALIBRATION)
        setup_s = statistics.median(meter.measure(setup_round, workload, client)[1].scaled
                                    for _ in range(SETUP_ROUNDS))
        if not all(op.ok for op in client.ops):
            raise SystemExit(f"{name}: set-up failed")
        workload.prepare_checks()

        rows = workload.row_counts()
        tracer = Tracer(counters={
            "histogram.ingest_csv": lambda source, *a, **k: rows.get(os.fspath(source), 0),
            "transport.kantorovich_lp": lambda a, b, *rest, **k: len(a) * len(b),
        }) if trace else None
        passes: list[Pass] = []
        problems: list[str] = []
        measured = 0.0
        # With tracing, passes alternate untraced/traced so the overhead is
        # measured under the same conditions.
        while measured < seconds or len(passes) < MIN_PASSES:
            traced = trace and len(passes) % 2 == 1
            client.ops = []
            if traced:
                tracer.install()
                client.tracer = meter.tracer = tracer
            try:
                subgroups = workload.run_pass(client, len(passes))
            finally:
                if traced:
                    tracer.uninstall()
                    client.tracer = meter.tracer = None
            passes.append(Pass(client.ops, subgroups, traced))
            measured += sum(op.raw for op in client.ops)
            problems += checked(workload.check_pass, client.ops, len(passes) - 1)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems += checked(workload.final_check, Client(meter, workload.CALIBRATION))

        plain = [p for p in passes if not p.traced]
        if trace:
            traced_passes = [p for p in passes if p.traced]
            values = layer_metrics(tracer.spans, len(traced_passes), rows)
            base, with_trace = figures(plain), figures(traced_passes)
            for key in base:
                values[f"trace.overhead.{key}"] = with_trace[key] - base[key]
            values["trace.overhead.pass_share"] = (
                statistics.median(p.seconds for p in traced_passes)
                / statistics.median(p.seconds for p in plain) - 1.0)
            tracer.write(os.path.join(WORK_ROOT, f"{name}-seed{seed}.spans.csv"))
            for n_m, seconds in sorted((count, end - start) for _, _, span, start, end, count
                                       in tracer.spans if span == "transport.kantorovich_lp"):
                print(f"# {name} LP n*m = {n_m}: {seconds:.3f} s (raw)")
            wanted = spec["per_layer"]
        else:
            values = dict(figures(plain), setup_s=setup_s, peak_rss_mib=peak_rss_mib)
            wanted = spec["end_to_end"]
        ops = [op for p in passes for op in p.ops]
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        for key, (value, unit) in workload.info(plain).items():
            print(f"# {name} {key} = {value:.6g} {unit}")
        for key, value in figures(plain, "raw").items():
            print(f"# {name} raw {key} = {value:.6g}")
        print(f"# {name} passes = {len(passes)}, commands = {len(ops)}, scaled/raw pass seconds = "
              + " ".join(f"{p.seconds:.2f}/{sum(op.raw for op in p.ops):.2f}" for p in passes))
        return {
            "correct": not problems,
            "attempted": len(ops),
            "failed": sum(not op.ok for op in ops),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_metrics(prefix: str, result: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{prefix}{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{prefix}attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")


def run_all(args, spec: dict) -> dict:
    """Each workload in its own process (peak memory is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name}: exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "subspace_audit", "cli.py")):
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        result = run_all(args, spec)
        print_metrics("", result)
    elif args.workload in names:
        sys.path.insert(0, SRC)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print_metrics(f"{args.workload}/", result)
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
