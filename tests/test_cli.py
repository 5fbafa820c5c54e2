import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from subspace_audit import cli, datasets, sweep, transport
from subspace_audit.cli import main
from subspace_audit.histogram import read_histogram

SCHEME_CFG = """\
feature.score = continuous:0:10:8
feature.age = continuous:18:80:5
"""

SWEEP_CFG = SCHEME_CFG + """\
protected = SEX
subgroup = Female
eps = 0.2,0.4
samples = 5,20
trials = 300
seed = 314159
"""


@pytest.fixture()
def workspace(tmp_path):
    runner = CliRunner()
    (tmp_path / "scheme.cfg").write_text(SCHEME_CFG)
    (tmp_path / "sweep.cfg").write_text(SWEEP_CFG)
    result = runner.invoke(main, ["synth", "--rows", "4000", "--seed", "21",
                                  "--out", str(tmp_path / "data.csv")])
    assert result.exit_code == 0, result.output
    return runner, tmp_path


def run(runner, args):
    return runner.invoke(main, [str(a) for a in args])


class TestBin:
    def test_writes_histogram_and_manifest(self, workspace):
        runner, root = workspace
        result = run(runner, ["bin", "--data", root / "data.csv",
                              "--config", root / "scheme.cfg",
                              "--filter", "SEX=Female",
                              "--out", root / "fem.hist"])
        assert result.exit_code == 0, result.output
        assert (root / "fem.hist").exists()
        manifest = json.loads((root / "fem.hist.manifest.json").read_text())
        assert manifest["command"] == "bin"
        assert set(manifest["inputs"]) == {"data.csv", "scheme.cfg"}
        assert all(v.startswith("sha256:") for v in manifest["inputs"].values())

    def test_missing_column_exit_2_names_column(self, workspace):
        runner, root = workspace
        (root / "bad.cfg").write_text("feature.income = continuous:0:10:4\n")
        result = run(runner, ["bin", "--data", root / "data.csv",
                              "--config", root / "bad.cfg",
                              "--out", root / "x.hist"])
        assert result.exit_code == 2
        assert "income" in result.output

    def test_rerun_is_byte_identical(self, workspace):
        runner, root = workspace
        args = ["bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
                "--out", root / "a.hist"]
        assert run(runner, args).exit_code == 0
        first = (root / "a.hist").read_bytes()
        assert run(runner, args).exit_code == 0
        assert (root / "a.hist").read_bytes() == first

    def test_complement_filter(self, workspace):
        runner, root = workspace
        for spec, name in (("SEX=Female", "f.hist"), ("SEX!=Female", "m.hist"), (None, "all.hist")):
            args = ["bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
                    "--out", root / name]
            if spec:
                args[5:5] = ["--filter", spec]
            assert run(runner, args).exit_code == 0

        def total(name):
            for line in (root / name).read_text().splitlines():
                if line.startswith("# total:"):
                    return int(line.split(":")[1])
        assert total("f.hist") + total("m.hist") == total("all.hist")


class TestQuery:
    @pytest.fixture()
    def hists(self, workspace):
        runner, root = workspace
        for flt, name in (("SEX=Female", "fem.hist"), (None, "all.hist")):
            args = ["bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
                    "--out", root / name]
            if flt:
                args += ["--filter", flt]
            assert run(runner, args).exit_code == 0
        return runner, root

    def test_identical_files_inside_exit_0(self, hists):
        runner, root = hists
        result = run(runner, ["query", "--reference", root / "all.hist",
                              "--test", root / "all.hist", "--delta", "0.1"])
        assert result.exit_code == 0
        assert result.output.startswith("TRUE,")

    def test_outside_exit_1_with_witness(self, hists):
        runner, root = hists
        result = run(runner, ["query", "--reference", root / "all.hist",
                              "--test", root / "fem.hist", "--delta", "1e-6"])
        assert result.exit_code == 1
        fields = result.output.strip().splitlines()[-1].split(",")
        assert fields[0] == "FALSE" and fields[4] != ""

    def test_subsampled_deterministic_output(self, hists):
        runner, root = hists
        args = ["query", "--reference", root / "all.hist", "--test", root / "fem.hist",
                "--delta", "0.001", "--samples", "10", "--seed", "99"]
        first = run(runner, args)
        second = run(runner, args)
        assert first.output == second.output
        assert first.exit_code == second.exit_code

    def test_subsampled_false_implies_exact_false(self, hists):
        runner, root = hists
        exact = run(runner, ["query", "--reference", root / "all.hist",
                             "--test", root / "fem.hist", "--delta", "1e-5"])
        for seed in range(5):
            sub = run(runner, ["query", "--reference", root / "all.hist",
                               "--test", root / "fem.hist", "--delta", "1e-5",
                               "--samples", "30", "--seed", seed])
            if sub.exit_code == 1:
                assert exact.exit_code == 1

    def test_incompatible_schemes_exit_3(self, workspace):
        runner, root = workspace
        (root / "other.cfg").write_text("feature.score = continuous:0:10:8\n")
        for cfg, name in (("scheme.cfg", "a.hist"), ("other.cfg", "b.hist")):
            assert run(runner, ["bin", "--data", root / "data.csv",
                                "--config", root / cfg, "--out", root / name]).exit_code == 0
        result = run(runner, ["query", "--reference", root / "a.hist",
                              "--test", root / "b.hist", "--delta", "0.1"])
        assert result.exit_code == 3


# a counts histogram on the scheme.cfg grid, before its data lines
HIST_HEADER = (
    "# subspace-audit histogram v1\n# kind: counts\n"
    '# feature: {"name": "score", "kind": "continuous", "lower": 0.0, "upper": 10.0, "bins": 8}\n'
    '# feature: {"name": "age", "kind": "continuous", "lower": 18.0, "upper": 80.0, "bins": 5}\n')


class TestMalformedInput:
    """Input faults exit 2, never 1: exit 1 means only "outside"."""

    @pytest.mark.parametrize("body", [
        "0,x\t3\n",  # non-integer bin index
        "0,1\tx\n",  # non-integer count
        "# total: abc\n0,1\t3\n",  # non-integer total
        "0,1\t3\n0,1\t5\n",  # the same bin twice
    ])
    def test_malformed_histogram_exit_2(self, tmp_path, body):
        (tmp_path / "bad.hist").write_text(HIST_HEADER + body)
        result = run(CliRunner(), ["query", "--reference", tmp_path / "bad.hist",
                                   "--test", tmp_path / "bad.hist", "--delta", "0.1"])
        assert result.exit_code == 2, result.output

    def test_undecodable_files_exit_2_naming_the_file(self, workspace):
        runner, root = workspace
        (root / "bad.csv").write_bytes(b"SEX,score,age\nFemale,\xff\xfe,30\n")
        (root / "bad.cfg").write_bytes(SCHEME_CFG.encode() + b"# \xff\n")
        (root / "bad.hist").write_bytes(HIST_HEADER.encode() + b"0,1\t\xff\n")
        commands = [
            ["bin", "--data", root / "bad.csv", "--config", root / "scheme.cfg",
             "--out", root / "x.hist"],
            ["bin", "--data", root / "data.csv", "--config", root / "bad.cfg",
             "--out", root / "x.hist"],
            ["sweep", "--config", root / "sweep.cfg", "--data", root / "bad.csv",
             "--out", root / "o.csv"],
            ["query", "--reference", root / "bad.hist", "--test", root / "bad.hist",
             "--delta", "0.1"],
        ]
        for args, name in zip(commands, ["bad.csv", "bad.cfg", "bad.csv", "bad.hist"]):
            result = run(runner, args)
            assert result.exit_code == 2, result.output
            assert name in result.output

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_key_range_exit_2(self, workspace, seed):
        runner, root = workspace
        assert run(runner, ["bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
                            "--out", root / "all.hist"]).exit_code == 0
        result = run(runner, ["query", "--reference", root / "all.hist", "--test",
                              root / "all.hist", "--delta", "0.1", "--samples", "5",
                              "--seed", seed])
        assert result.exit_code == 2, result.output
        assert "2**128" in result.output

    def test_non_integer_threads_exit_2_naming_the_key(self, workspace):
        runner, root = workspace
        (root / "threads.cfg").write_text(SWEEP_CFG + "threads = two\n")
        result = run(runner, ["sweep", "--config", root / "threads.cfg",
                              "--data", root / "data.csv", "--out", root / "o.csv"])
        assert result.exit_code == 2, result.output
        assert "threads" in result.output

    @pytest.mark.parametrize("typo", ["baseline_trial = 2", "thread = 2"])
    def test_misspelled_sweep_key_exit_2_naming_the_key(self, workspace, typo):
        runner, root = workspace
        (root / "typo.cfg").write_text(SWEEP_CFG + typo + "\n")
        result = run(runner, ["sweep", "--config", root / "typo.cfg",
                              "--data", root / "data.csv", "--out", root / "o.csv"])
        assert result.exit_code == 2, result.output
        assert f"unknown sweep config key(s): {typo.split()[0]}" in result.output
        assert not (root / "o.csv").exists()
        # `bin` reads only the feature lines, so the file is still a scheme config
        assert run(runner, ["bin", "--data", root / "data.csv", "--config", root / "typo.cfg",
                            "--out", root / "all.hist"]).exit_code == 0

    def test_sweep_refuses_a_2_40_bin_grid(self, workspace):
        runner, root = workspace
        # 8 features x 32 bins: the dense violation mask would need 1 TiB
        features = "".join(f"feature.f{i} = continuous:0:1:32\n" for i in range(8))
        (root / "huge.cfg").write_text(features + SWEEP_CFG[len(SCHEME_CFG):])
        result = run(runner, ["sweep", "--config", root / "huge.cfg",
                              "--data", root / "data.csv", "--out", root / "o.csv"])
        assert result.exit_code == 2, result.output
        assert "2**30" in result.output and str(2**40) in result.output
        assert not (root / "o.csv").exists()

    @pytest.mark.parametrize("command", ["bin", "sweep"])
    def test_csv_syntax_error_exit_2_naming_the_file(self, workspace, command):
        runner, root = workspace
        # one field above the csv module's 131072-character limit
        (root / "long.csv").write_text("SEX,score,age\nFemale,1.5,30\n"
                                       f"Male,{'9' * 200_000},40\n")
        if command == "bin":
            args = ["bin", "--data", root / "long.csv", "--config", root / "scheme.cfg",
                    "--out", root / "x.hist"]
        else:
            args = ["sweep", "--config", root / "sweep.cfg", "--data", root / "long.csv",
                    "--out", root / "o.csv"]
        result = run(runner, args)
        assert result.exit_code == 2, result.output
        assert "long.csv is not valid CSV" in result.output


class TestErrorBoundary:
    """One handler maps every exception to an exit code; none reads as 1."""

    def test_unexpected_exception_exits_4(self, workspace, monkeypatch):
        runner, root = workspace

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "ingest_csv", boom)
        result = run(runner, ["bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
                              "--out", root / "x.hist"])
        assert result.exit_code == 4, result.output
        assert "internal error: RuntimeError: boom" in result.output

    def test_click_exits_pass_through(self, workspace):
        runner, root = workspace
        assert run(runner, ["bin", "--data", root / "data.csv"]).exit_code == 2  # usage
        assert run(runner, ["query", "--help"]).exit_code == 0
        assert run(runner, ["--version"]).exit_code == 0

    @pytest.mark.parametrize("constant", ["nan", "inf", "0", "1e308"])
    def test_union_constant_without_finite_bound_exit_2(self, constant):
        # nan and inf ended in a ValueError / OverflowError traceback, exit 1
        result = run(CliRunner(), ["sample-size", "--eps", "0.05", "--delta", "0.05",
                                   "--n-features", "2", "--union-constant", constant])
        assert result.exit_code == 2, result.output
        assert "union_constant" in result.output

    @pytest.mark.parametrize("p, factor, key", [("nan", "1.25", "baseline p"),
                                                 ("inf", "1.25", "baseline p"),
                                                 ("2", "nan", "threshold_factor"),
                                                 ("2", "inf", "threshold_factor"),
                                                 ("2", None, "threshold_factor")])
    def test_non_finite_baseline_parameters_exit_2(self, workspace, p, factor, key):
        # one feature takes the 1-D route, where p = nan used to exit 0 and
        # write NaN into the manifest, and threshold_factor = inf Infinity;
        # without the factor, its old default 1 made the full data outside
        runner, root = workspace
        cfg = ("feature.score = continuous:0:10:8\nprotected = SEX\nsubgroup = Female\n"
               "eps = 0.2\nsamples = 5\ntrials = 20\nseed = 1\nbaseline = wasserstein\n"
               f"baseline_trials = 3\np = {p}\n")
        cfg += "" if factor is None else f"threshold_factor = {factor}\n"
        (root / "nf.cfg").write_text(cfg)
        result = run(runner, ["sweep", "--config", root / "nf.cfg", "--data", root / "data.csv",
                              "--out", root / "nf.csv"])
        assert result.exit_code == 2, result.output
        assert key in result.output


class TestSampleSize:
    def test_example_row(self):
        # d = vc_dimension_bound(1) = 7, s = ceil(112 * ln 112) = 529
        runner = CliRunner()
        result = run(runner, ["sample-size", "--eps", "0.5", "--delta", "0.5",
                              "--n-features", "1"])
        assert result.exit_code == 0
        assert result.output.strip() == "7,529"

    def test_delta_monotonicity_across_invocations(self):
        runner = CliRunner()
        sizes = []
        for delta in ("0.2", "0.1", "0.01"):
            out = run(runner, ["sample-size", "--eps", "0.1", "--delta", delta,
                               "--n-features", "2"]).output
            sizes.append(int(out.strip().split(",")[1]))
        assert sizes == sorted(sizes)

    def test_cap_marker_with_total_bins(self):
        runner = CliRunner()
        result = run(runner, ["sample-size", "--eps", "0.05", "--delta", "0.05",
                              "--n-features", "2", "--total-bins", "100"])
        fields = result.output.strip().split(",")
        assert fields[1] == "100" and fields[-1] == "capped"

    def test_bad_parameters_exit_2(self):
        runner = CliRunner()
        assert run(runner, ["sample-size", "--eps", "1.5", "--delta", "0.1",
                            "--n-features", "1"]).exit_code == 2


class TestSweep:
    def test_sweep_writes_csv_and_manifest(self, workspace):
        runner, root = workspace
        result = run(runner, ["sweep", "--config", root / "sweep.cfg",
                              "--data", root / "data.csv", "--out", root / "out.csv"])
        assert result.exit_code == 0, result.output
        lines = (root / "out.csv").read_text().strip().splitlines()
        assert lines[0] == "eps,delta,s,empirical_error,analytic_error,stderr,trials"
        assert len(lines) == 1 + 2 * 2
        manifest = json.loads((root / "out.csv.manifest.json").read_text())
        assert manifest["seed"] == 314159

    def test_rerun_identical(self, workspace):
        runner, root = workspace
        args = ["sweep", "--config", root / "sweep.cfg", "--data", root / "data.csv",
                "--out", root / "out.csv"]
        assert run(runner, args).exit_code == 0
        first = (root / "out.csv").read_bytes()
        assert run(runner, args).exit_code == 0
        assert (root / "out.csv").read_bytes() == first

    def test_seed_flag_overrides_config(self, workspace):
        runner, root = workspace
        args = ["sweep", "--config", root / "sweep.cfg", "--data", root / "data.csv",
                "--out", root / "out.csv"]
        assert run(runner, args).exit_code == 0
        base = (root / "out.csv").read_bytes()
        assert run(runner, args + ["--seed", "777"]).exit_code == 0
        assert (root / "out.csv").read_bytes() != base

    def test_config_error_names_offending_key(self, workspace):
        runner, root = workspace
        (root / "broken.cfg").write_text(SCHEME_CFG + "protected = SEX\nsubgroup = Female\n"
                                         "eps = 0.2\nsamples = nope\ntrials = 10\nseed = 1\n")
        result = run(runner, ["sweep", "--config", root / "broken.cfg",
                              "--data", root / "data.csv", "--out", root / "o.csv"])
        assert result.exit_code == 2
        assert "samples" in result.output

    def test_baseline_writes_second_csv(self, workspace):
        runner, root = workspace
        cfg = SWEEP_CFG + "baseline = wasserstein\np = 2\nthreshold_factor = 1.25\nbaseline_trials = 10\n"
        (root / "wb.cfg").write_text(cfg)
        result = run(runner, ["sweep", "--config", root / "wb.cfg",
                              "--data", root / "data.csv", "--out", root / "wb.csv"])
        assert result.exit_code == 0, result.output
        baseline = (root / "wb.csv.wasserstein.csv").read_text().strip().splitlines()
        assert baseline[0] == "eps,delta,s,empirical_error,analytic_error,stderr,trials"
        assert len(baseline) == 1 + 2

    @pytest.mark.parametrize("column", ["age", "SEX"])
    def test_missing_column_exit_2_names_column(self, workspace, column):
        runner, root = workspace
        rows = [line.split(",") for line in (root / "data.csv").read_text().splitlines()]
        drop = rows[0].index(column)
        (root / "cut.csv").write_text("\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows))
        result = run(runner, ["sweep", "--config", root / "sweep.cfg",
                              "--data", root / "cut.csv", "--out", root / "o.csv"])
        assert result.exit_code == 2, result.output
        assert f"CSV header is missing column(s): {column}" in result.output

    def test_reads_the_table_only_through_read_flat_ids(self, workspace, monkeypatch):
        runner, root = workspace

        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep built row dicts")

        for module, name in ((datasets, "read_csv_records"), (sweep, "flat_bin_ids"),
                             (sweep, "subgroup_split"), (sweep, "measure_from_records")):
            monkeypatch.setattr(module, name, forbidden)
        reads = []
        read_flat_ids = cli.read_flat_ids
        monkeypatch.setattr(cli, "read_flat_ids",
                            lambda *args: reads.append(args) or read_flat_ids(*args))
        (root / "wb.cfg").write_text(SWEEP_CFG + "baseline = wasserstein\n"
                                     "threshold_factor = 1.25\nbaseline_trials = 3\n")
        result = run(runner, ["sweep", "--config", root / "wb.cfg",
                              "--data", root / "data.csv", "--out", root / "wb.csv"])
        assert result.exit_code == 0, result.output
        assert (root / "wb.csv.wasserstein.csv").exists()
        assert len(reads) == 2

    def test_manifest_records_derived_run(self, workspace):
        runner, root = workspace
        (root / "wb.cfg").write_text(SWEEP_CFG + "baseline = wasserstein\np = 2\n"
                                     "threshold_factor = 1.25\nbaseline_trials = 4\n")
        result = run(runner, ["sweep", "--config", root / "wb.cfg",
                              "--data", root / "data.csv", "--out", root / "wb.csv"])
        assert result.exit_code == 0, result.output
        derived = json.loads((root / "wb.csv.manifest.json").read_text())["run"]
        assert len(derived["supnorm"]["deltas"]) == 2
        baseline = derived["wasserstein"]
        assert baseline["threshold"] == 1.25 * baseline["full_distance"]
        assert baseline["full_inside"] is True
        assert baseline["dropped_test"] == baseline["dropped_reference"] == 0
        for flt, name in (("SEX=Female", "fem.hist"), (None, "all.hist")):
            args = ["bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
                    "--out", root / name]
            assert run(runner, args + (["--filter", flt] if flt else [])).exit_code == 0
        printed = run(runner, ["distance", "--a", root / "fem.hist", "--b", root / "all.hist",
                               "--p", "2"])
        assert printed.exit_code == 0, printed.output
        distance = float(printed.output.split(",")[0])
        assert baseline["full_distance"] == pytest.approx(distance, rel=1e-12)

    def test_manifest_dropped_counts_match_bin_skipped(self, workspace):
        runner, root = workspace
        lines = (root / "data.csv").read_text().splitlines()
        for i in range(1, len(lines), 7):  # blank the score of every 7th record
            sex, _, age = lines[i].split(",")
            lines[i] = f"{sex},,{age}"
        (root / "gaps.csv").write_text("\n".join(lines) + "\n")
        result = run(runner, ["sweep", "--config", root / "sweep.cfg",
                              "--data", root / "gaps.csv", "--out", root / "gaps-sweep.csv"])
        assert result.exit_code == 0, result.output
        supnorm = json.loads((root / "gaps-sweep.csv.manifest.json").read_text())["run"]["supnorm"]
        for flt, key in (("SEX=Female", "dropped_test"), (None, "dropped_reference")):
            args = ["bin", "--data", root / "gaps.csv", "--config", root / "scheme.cfg",
                    "--out", root / "gaps.hist"]
            assert run(runner, args + (["--filter", flt] if flt else [])).exit_code == 0
            assert supnorm[key] == read_histogram(root / "gaps.hist").skipped > 0


class TestDistance:
    @pytest.fixture()
    def hists(self, workspace):
        runner, root = workspace
        for flt, name in (("SEX=Female", "fem.hist"), (None, "all.hist")):
            args = ["bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
                    "--out", root / name]
            if flt:
                args += ["--filter", flt]
            assert run(runner, args).exit_code == 0
        return runner, root

    def test_prints_distance_and_residual(self, hists):
        runner, root = hists
        result = run(runner, ["distance", "--a", root / "all.hist",
                              "--b", root / "fem.hist", "--p", "2"])
        assert result.exit_code == 0, result.output
        distance, residual = (float(x) for x in result.output.strip().split(","))
        assert distance > 0
        assert residual <= 1e-9

    def test_identical_files_zero(self, hists):
        runner, root = hists
        result = run(runner, ["distance", "--a", root / "all.hist",
                              "--b", root / "all.hist"])
        distance = float(result.output.strip().split(",")[0])
        assert distance == pytest.approx(0.0, abs=1e-9)

    def test_entropic_method(self, hists):
        runner, root = hists
        exact = run(runner, ["distance", "--a", root / "all.hist", "--b", root / "fem.hist"])
        approx = run(runner, ["distance", "--a", root / "all.hist", "--b", root / "fem.hist",
                              "--method", "entropic", "--reg", "0.0001"])
        assert approx.exit_code == 0, approx.output
        d_exact = float(exact.output.strip().split(",")[0])
        d_approx = float(approx.output.strip().split(",")[0])
        assert d_approx == pytest.approx(d_exact, rel=0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["exact", "entropic"])
    def test_overflowing_order_names_p(self, hists, method):
        # dist ** p overflowed with a RuntimeWarning, then blamed the cost matrix
        runner, root = hists
        result = run(runner, ["distance", "--a", root / "all.hist", "--b", root / "fem.hist",
                              "--p", "200", "--method", method])
        assert result.exit_code == 2, result.output
        assert "order p = 200.0" in result.output

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_entropic_plan_exit_2_quietly(self, hists):
        # numpy warned of an overflow in exp, then the error read "residual inf"
        runner, root = hists
        result = run(runner, ["distance", "--a", root / "fem.hist", "--b", root / "all.hist",
                              "--method", "entropic", "--reg", "1e-20"])
        assert result.exit_code == 2, result.output
        assert "overflowed the plan at regularization" in result.output
        assert "inf" not in result.output and "Warning" not in result.output

    def test_reg_needing_over_64_stages_refused_before_iterating(self, hists, monkeypatch):
        # --reg 1e-300 spent all 50 000 iterations on 499 warm-up stages
        runner, root = hists

        def forbidden(*args, **kwargs):
            raise AssertionError("iterated")

        monkeypatch.setattr(transport, "_logsumexp", forbidden)
        result = run(runner, ["distance", "--a", root / "fem.hist", "--b", root / "all.hist",
                              "--method", "entropic", "--reg", "1e-300"])
        assert result.exit_code == 2, result.output
        assert "would take 499 warm-up stages" in result.output

    def test_incompatible_schemes_exit_3(self, hists):
        runner, root = hists
        (root / "other.cfg").write_text("feature.score = continuous:0:10:8\n")
        assert run(runner, ["bin", "--data", root / "data.csv",
                            "--config", root / "other.cfg",
                            "--out", root / "c.hist"]).exit_code == 0
        result = run(runner, ["distance", "--a", root / "all.hist", "--b", root / "c.hist"])
        assert result.exit_code == 3


class TestSynth:
    def test_deterministic(self, tmp_path):
        runner = CliRunner()
        for name in ("a.csv", "b.csv"):
            assert run(runner, ["synth", "--rows", "500", "--seed", "5",
                                "--out", tmp_path / name]).exit_code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("option", ["--rows", "--seed"])
    def test_negative_value_is_a_usage_error(self, tmp_path, option):
        # numpy raised on either (exit 4, "internal error")
        result = run(CliRunner(), ["synth", option, "-1", "--out", tmp_path / "x.csv"])
        assert result.exit_code == 2, result.output
        assert option in result.output and "internal error" not in result.output
        assert not (tmp_path / "x.csv").exists()


class TestOutDirectory:
    @pytest.mark.parametrize("command, args", [
        ("bin", ["--data", "data.csv", "--config", "scheme.cfg"]),
        ("synth", ["--rows", "10"]),
        ("sweep", ["--data", "data.csv", "--config", "sweep.cfg"]),
    ])
    def test_missing_directory_exit_2_names_out(self, workspace, command, args):
        # the temp file's FileNotFoundError surfaced as an internal error (exit 4)
        runner, root = workspace
        out = root / "missing" / "x.out"
        result = run(runner, [command, *(root / a if a.endswith((".csv", ".cfg")) else a
                                         for a in args), "--out", out])
        assert result.exit_code == 2, result.output
        assert f"cannot write {out}" in result.output
        assert ".partial-" not in result.output and not (root / "missing").exists()


# One fresh interpreter: every command that solves no exact transport
# problem runs without loading scipy, and an exact `distance` loads it.
SCIPY_PROBE = """\
import sys
from pathlib import Path

from subspace_audit.cli import main

root = Path(sys.argv[1])


def run(*args):
    try:
        main.main([str(a) for a in args], standalone_mode=False)
    except SystemExit as exit:
        assert exit.code in (0, 1), (args, exit.code)


def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


run("synth", "--rows", 2000, "--seed", 5, "--out", root / "data.csv")
for flt, name in (("SEX=Female", "fem.hist"), (None, "all.hist")):
    run("bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
        "--out", root / name, *(["--filter", flt] if flt else []))
hists = ("--reference", root / "all.hist", "--test", root / "fem.hist", "--delta", 0.01)
run("query", *hists)
run("query", *hists, "--samples", 10, "--seed", 3)
run("sample-size", "--eps", 0.05, "--delta", 0.05, "--n-features", 2)
run("sweep", "--config", root / "sweep.cfg", "--data", root / "data.csv",
    "--out", root / "sweep.csv", "--threads", 1)
run("distance", "--a", root / "fem.hist", "--b", root / "all.hist", "--method", "entropic")
print("light:", scipy_loaded())
run("distance", "--a", root / "fem.hist", "--b", root / "all.hist", "--method", "exact")
print("exact:", bool(scipy_loaded()))
"""


def test_only_exact_transport_loads_scipy(tmp_path):
    (tmp_path / "scheme.cfg").write_text(SCHEME_CFG)
    (tmp_path / "sweep.cfg").write_text(SWEEP_CFG.replace("trials = 300", "trials = 20"))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    probe = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    loaded = [line for line in probe.stdout.splitlines() if line.startswith(("light:", "exact:"))]
    assert loaded == ["light: []", "exact: True"]
