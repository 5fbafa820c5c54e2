"""Each output check accepts the program's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest -q auditbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from workloads import Client  # noqa: E402

SHAPE = inputs.grid_shape(inputs.SWEEP_SCHEME)
N_TOTAL = math.prod(SHAPE)
TRIALS = 400


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Small synthetic table, both histograms and a baseline sweep, made by the CLI."""
    work = tmp_path_factory.mktemp("bench")
    path = lambda name: str(work / name)  # noqa: E731
    client = Client()
    client("synth", ["synth", "--rows", "3000", "--seed", "5", "--out", path("t.csv")])
    with open(path("scheme.cfg"), "w") as fh:
        fh.write(inputs.scheme_config(inputs.SWEEP_SCHEME))
    with open(path("sweep.cfg"), "w") as fh:
        fh.write(inputs.sweep_config(7, TRIALS, baseline_trials=2, samples=(50, 100)))
    client("bin", ["bin", "--data", path("t.csv"), "--config", path("scheme.cfg"),
                   "--out", path("all.hist")])
    client("bin", ["bin", "--data", path("t.csv"), "--config", path("scheme.cfg"),
                   "--filter", "SEX=Female", "--out", path("f.hist")])
    client("sweep", ["sweep", "--config", path("sweep.cfg"), "--data", path("t.csv"),
                     "--out", path("sweep.csv")])
    client("distance", ["distance", "--a", path("f.hist"), "--b", path("all.hist")])
    assert all(op.ok for op in client.ops)
    columns = checks.read_columns(path("t.csv"))
    flats, valid = checks.bin_ids(columns, inputs.SWEEP_SCHEME)
    return {
        "client": client, "path": path, "ops": {op.kind: op for op in client.ops},
        "population": checks.expected_counts(flats, valid),
        "group": checks.expected_counts(flats, valid, columns["SEX"] == "Female"),
    }


def _query(run, delta, samples=None, seed=None):
    args = ["query", "--reference", run["path"]("all.hist"), "--test", run["path"]("f.hist"),
            "--delta", repr(delta)]
    if samples is not None:
        args += ["--samples", str(samples), "--seed", str(seed)]
    op = run["client"]("query", args, ok_codes=(0, 1))
    assert op.ok
    return op.out


def _replace_field(line, index, value):
    fields = line.strip().split(",")
    fields[index] = value
    return ",".join(fields)


def test_bin_check_rejects_an_altered_count(run, tmp_path):
    path = run["path"]("f.hist")
    out = [op for op in run["client"].ops if op.kind == "bin"][1].out
    checks.check_bin(out, path, run["group"], SHAPE)
    lines = open(path).read().splitlines()
    body = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    head, count = lines[body].split("\t")
    lines[body] = f"{head}\t{int(count) + 1}"
    corrupted = tmp_path / "f.hist"
    corrupted.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_bin(out, str(corrupted), run["group"], SHAPE)
    with pytest.raises(checks.CheckFailed):
        checks.check_bin(out.replace("total=", "total=1"), path, run["group"], SHAPE)


def test_exact_check_rejects_a_flipped_verdict(run):
    for delta in (0.001, 0.5):  # outside, then inside
        line = _query(run, delta)
        inside = checks.check_exact(line, run["group"], run["population"], delta, SHAPE)
        assert inside == (delta == 0.5)
        flipped = _replace_field(line, 0, "TRUE" if not inside else "FALSE")
        with pytest.raises(checks.CheckFailed):
            checks.check_exact(flipped, run["group"], run["population"], delta, SHAPE)
    line = _query(run, 0.001)
    flats, diffs = checks.band_diffs(run["group"], run["population"])
    second = np.unravel_index(int(flats[diffs >= 0.001][1]), SHAPE)
    with pytest.raises(checks.CheckFailed):  # a violating bin, but not the first one
        checks.check_exact(_replace_field(line, 4, ";".join(map(str, second))), run["group"],
                           run["population"], 0.001, SHAPE)


def test_subsampled_check_rejects_false_where_exact_is_true(run):
    line = _query(run, 0.001, samples=N_TOTAL, seed=3)
    assert line.startswith("FALSE")
    checks.check_subsampled(line, run["group"], run["population"], 0.001, N_TOTAL, 3,
                            False, SHAPE)
    with pytest.raises(checks.CheckFailed):
        checks.check_subsampled(line, run["group"], run["population"], 0.001, N_TOTAL, 3,
                                True, SHAPE)
    flats, diffs = checks.band_diffs(run["group"], run["population"])
    calm = np.unravel_index(int(flats[diffs < 0.001][0]), SHAPE)
    with pytest.raises(checks.CheckFailed):  # a witness that does not violate
        checks.check_subsampled(_replace_field(line, 4, ";".join(map(str, calm))),
                                run["group"], run["population"], 0.001, N_TOTAL, 3,
                                False, SHAPE)


def test_sample_size_check_rejects_an_altered_budget_or_rate(run):
    op = run["client"]("sample_size", ["sample-size", "--eps", "0.3", "--delta", "0.05",
                                       "--n-features", "1", "--total-bins", "100000"])
    line = op.out.strip()
    s = checks.check_sample_size(line, 0.3, 0.05, 1, 100000)
    d, _, rate = line.split(",")
    assert float(rate) > 0.0
    for bad in (f"{d},{s + 1},{rate}", f"{d},{s},{float(rate) * 1.001!r}"):
        with pytest.raises(checks.CheckFailed):
            checks.check_sample_size(bad, 0.3, 0.05, 1, 100000)


def test_supnorm_check_rejects_altered_eps_and_rates(run):
    text = open(run["path"]("sweep.csv")).read()
    args = (run["group"], run["population"], inputs.SWEEP_EPS, (50, 100), TRIALS, N_TOTAL)
    assert checks.check_supnorm_csv(text, *args) > 0
    lines = text.strip().split("\n")
    row = next(i for i, line in enumerate(lines[1:], 1) if float(line.split(",")[4]) > 0.01)
    eps, delta, s, empirical, analytic, stderr, trials = lines[row].split(",")
    for fields in (
        [repr(float(eps) + 1.0 / N_TOTAL), delta, s, empirical, analytic, stderr, trials],
        [eps, delta, s, empirical, repr(float(analytic) * 1.01), stderr, trials],
        [eps, delta, s, repr(min(1.0, float(analytic) + 0.3)), analytic, stderr, trials],
    ):
        bad = lines[:row] + [",".join(fields)] + lines[row + 1:]
        with pytest.raises(checks.CheckFailed):
            checks.check_supnorm_csv("\n".join(bad) + "\n", *args)


def test_baseline_check_rejects_a_rate_that_is_not_a_count(run):
    text = open(run["path"]("sweep.csv.wasserstein.csv")).read()
    checks.check_baseline_csv(text, (50, 100), 2)
    header, first, *rest = text.strip().split("\n")
    fields = first.split(",")
    fields[3] = "0.3"
    with pytest.raises(checks.CheckFailed):
        checks.check_baseline_csv("\n".join([header, ",".join(fields), *rest]), (50, 100), 2)


def test_distance_check_rejects_an_altered_distance(run):
    line = run["ops"]["distance"].out
    squared = checks.check_distance(line, run["group"], run["population"], inputs.SWEEP_SCHEME)
    lower, upper = checks.w2_squared_bounds(run["group"], run["population"], inputs.SWEEP_SCHEME)
    assert lower <= squared <= upper
    value, residual = line.strip().split(",")
    with pytest.raises(checks.CheckFailed):
        checks.check_distance(f"{float(value) * 1.001!r},{residual}", run["group"],
                              run["population"], inputs.SWEEP_SCHEME)
