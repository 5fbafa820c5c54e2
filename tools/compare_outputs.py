#!/usr/bin/env python3
"""Run a fixed list of CLI commands against one source tree, for byte-identity checks.

    python tools/compare_outputs.py SRC INPUTS OUT

SRC is a `src/` directory holding the `subspace_audit` package, INPUTS a
directory of input files (created and filled on the first run, reused
afterwards) and OUT the directory that receives every output.  OUT gets
each histogram file, sweep CSV, generated table and manifest, plus
`log.txt` with the exit code, stdout and stderr of every command, so
refusal messages are compared too; each manifest
loses only its `timestamp`, so a sweep's `run` block (deltas, dropped
counts, fingerprints, the baseline's full-data distance) is compared too.
Two source trees produce the same results when

    python tools/compare_outputs.py OLD/src inputs out-old
    python tools/compare_outputs.py src inputs out-new
    diff -r out-old out-new

prints nothing.  Four hand-edited histogram files (written into INPUTS
from the criterion-10 `bin` outputs) go through exact and subsampled
`query` and `distance`: the population with CRLF line ends and a blank
line, the Female subgroup with `+`-signed and space-padded fields, the
same subgroup as masses in exponent form, and a file with one line of three
coordinates, refused with exit 2.  So both histogram body parsers run:
the array path on plain bodies and the line parser on the rest.
Two `sweep` commands must be refused with exit 2 before
any table is read: a config with a misspelled key (`baseline_trial`) and a
2**40-bin grid (8 features x 32 bins).  So must `synth --rows -1` and a
`bin` whose `--out` lies in a missing directory (OUT/missing).  The other
refusals write into OUT/refused, which is deleted at the end, so against a
tree that still ran them the only difference is their entries in
`log.txt` (exit 0 or 4 there).  `log.txt` shows the paths of OUT and
INPUTS as `OUT` and `IN`, in the arguments that begin with them and in
the output.  The inputs
are the criterion-10 fixture of the acceptance tests (`synth --rows 4000
--seed 33`, its scheme and its sweep config with the transport baseline),
those of the three benchmark workloads at seed 1,
a messy table (blank lines, short and long rows, unparsable values, a
duplicated header column) that `bin` reads with and without a filter and
`sweep` reads with the baseline, also for a subgroup no row has, a quoted
copy of it with CRLF line ends and a non-ASCII category, and two tables over
one read block with a categorical feature, one plain throughout and one
whose last rows are quoted with CRLF ends, read by `bin` and `sweep` too.
Between them the CSV reader's numpy path, its `csv.reader` path and the
switch from one to the other mid-table all run.
The commands are `synth`, `bin`, exact and subsampled `query`,
`sample-size`, `distance` (exact at p = 2 and p = 1, and entropic at two
regularizations and at two refused ones: 1e-20, where the plan overflows,
and 1e-300, whose warm-up would take over 64 stages) and `sweep`.  On the
500-bin grid of the supnorm-sweep table, subsampled queries draw 64 bins,
300 and all 500.  The criterion-10 fixture's baseline sweep
runs four times, so that every transport route runs inside a baseline:
the grid flow (p = 2), the dense transportation LP (p = 1) and the
quantile route (one feature, score in 40 bins).  The fourth run puts the
threshold (factor 1.07, samples 20 and 40) inside the W2 bracket of one
trial, which is solved, while the bracket decides the other fifteen.
A sup-norm sweep of the supnorm-sweep table on a 12 000-bin grid (score
120 x age 100 bins, eps 0.001 and 0.05) takes samples 240 and 241, on
either side of numpy's switch from Floyd's algorithm to a partial shuffle,
and 11 990, which the eps-0.05 violation set always meets.
"""

import csv
import json
import os
import random
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def main(src: str, inputs_dir: str, out: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(0, os.path.join(ROOT, "auditbench"))
    from click.testing import CliRunner

    import checks
    import inputs as bench
    from subspace_audit.cli import main as cli

    fresh = not os.path.isdir(inputs_dir)
    os.makedirs(inputs_dir, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    runner = CliRunner()
    log = open(os.path.join(out, "log.txt"), "w", encoding="utf-8")

    def I(name):  # noqa: E743
        return os.path.join(inputs_dir, name)

    def O(name):  # noqa: E743
        return os.path.join(out, name)

    def write(name, text):
        with open(I(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    def short(arg):
        for path, name in ((out, "OUT"), (inputs_dir, "IN")):
            if arg == path or arg.startswith(os.path.join(path, "")):
                return name + arg[len(path):]
        return arg

    def run(*args):
        args = [str(a) for a in args]
        result = runner.invoke(cli, args)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise result.exception
        shown = " ".join(short(a) for a in args)
        log.write(f"$ {shown}\nexit={result.exit_code}\n")
        for stream in (result.stdout, result.stderr):
            for path, name in ((out, "OUT"), (inputs_dir, "IN")):
                stream = stream.replace(os.path.join(path, ""), os.path.join(name, ""))
            log.write(stream)

    # criterion-10 fixture
    scheme = "feature.score = continuous:0:10:8\nfeature.age = continuous:18:80:5\n"
    if fresh:
        write("c10-scheme.cfg", scheme)
        write("c10-sweep.cfg", scheme + "protected = SEX\nsubgroup = Female\neps = 0.2,0.4\n"
              "samples = 5,20\ntrials = 200\nseed = 271828\nbaseline = wasserstein\n"
              "threshold_factor = 1.25\nbaseline_trials = 8\n")
    run("synth", "--rows", 4000, "--seed", 33, "--out", O("c10.csv"))
    for flt, name in (("SEX=Female", "c10-fem.hist"), (None, "c10-all.hist"),
                      ("SEX!=Female", "c10-male.hist")):
        run("bin", "--data", O("c10.csv"), "--config", I("c10-scheme.cfg"), "--out", O(name),
            *(["--filter", flt] if flt else []))
    for delta in ("0", "1e-06", "0.001", "0.01", "0.05", "0.1", "1.0"):
        for reference in ("c10-all.hist", "c10-male.hist"):
            run("query", "--reference", O(reference), "--test", O("c10-fem.hist"), "--delta", delta)
    for delta, samples, seed in (("0.001", 12, 5), ("0.01", 40, 7), ("0", 5, 1), ("0.05", 40, 3),
                                 ("1e-06", 30, 11), ("0.001", 40, 0)):
        run("query", "--reference", O("c10-all.hist"), "--test", O("c10-fem.hist"),
            "--delta", delta, "--samples", samples, "--seed", seed)
    run("query", "--reference", O("c10-all.hist"), "--test", O("c10-all.hist"), "--delta", "0")
    for args in (("0.5", "0.5", "1"), ("0.05", "0.05", "2", "--total-bins", "100"),
                 ("0.05", "0.05", "5", "--total-bins", "2097152"), ("0.1", "0.01", "3")):
        run("sample-size", "--eps", args[0], "--delta", args[1], "--n-features", *args[2:])
    for a, b, p in (("c10-fem.hist", "c10-all.hist", "2"), ("c10-fem.hist", "c10-all.hist", "1"),
                    ("c10-all.hist", "c10-all.hist", "2")):
        run("distance", "--a", O(a), "--b", O(b), "--p", p, "--method", "exact")
    # the last two are refused with exit 2: the plan overflows at 1e-20, and
    # 1e-300 would need 499 regularization stages, over the 64 allowed
    for reg in ("0.01", "0.001", "1e-20", "1e-300"):
        run("distance", "--a", O("c10-fem.hist"), "--b", O("c10-all.hist"), "--p", "2",
            "--method", "entropic", "--reg", reg)
    run("sweep", "--config", I("c10-sweep.cfg"), "--data", O("c10.csv"), "--out", O("c10-sweep.csv"))
    # the baseline's other transport routes, the dense LP (p = 1 on two
    # features) and the quantile route (one feature), and the grid flow with
    # the threshold close to the trial distances, where some trials are
    # screened by their W2 bracket and the others are solved
    if fresh:
        with open(I("c10-sweep.cfg"), encoding="utf-8") as fh:
            c10_sweep = fh.read()
        write("c10-sweep-p1.cfg", c10_sweep + "p = 1\n")
        write("c10-sweep-1d.cfg", c10_sweep.replace(scheme, "feature.score = continuous:0:10:40\n"))
        write("c10-sweep-near.cfg", c10_sweep.replace("samples = 5,20", "samples = 20,40")
              .replace("threshold_factor = 1.25", "threshold_factor = 1.07"))
    for cfg in ("c10-sweep-p1", "c10-sweep-1d", "c10-sweep-near"):
        run("sweep", "--config", I(cfg + ".cfg"), "--data", O("c10.csv"), "--out", O(cfg + ".csv"))

    # hand-edited histogram files: the population with CRLF line ends and a
    # blank line, the subgroup with signed and space-padded fields, the
    # subgroup as masses in exponent form, and one with a line of three
    # coordinates, which query and distance refuse with exit 2
    if fresh:
        with open(O("c10-all.hist"), encoding="utf-8", newline="") as fh:
            population = fh.read().splitlines()
        write("edited-all.hist", "\r\n".join(population[:9] + [""] + population[9:]) + "\r\n")
        with open(O("c10-fem.hist"), encoding="utf-8", newline="") as fh:
            group = fh.read().splitlines()
        head = [line for line in group if line.startswith("#")]
        data = [line.split("\t") for line in group[len(head):]]
        write("edited-fem.hist", "\n".join(head + [
            f"+{bin_}\t{count}" if i % 3 == 0 else f" {bin_} \t {count} " if i % 3 == 1
            else f"{bin_}\t+{count}" for i, (bin_, count) in enumerate(data)]) + "\n")
        total = int(head[2].partition(":")[2])
        write("edited-fem-masses.hist", "\n".join(
            [head[0], "# kind: masses"] + head[4:] + [
                f"{bin_}\t{int(count) / total:.17{'eE'[i % 2]}}"
                for i, (bin_, count) in enumerate(data)]) + "\n")
        write("edited-malformed.hist", "\n".join(population[:8] + ["0,1,2\t3"]
                                                  + population[8:]) + "\n")
    for test in ("edited-fem.hist", "edited-fem-masses.hist", "edited-malformed.hist"):
        query = ["query", "--reference", I("edited-all.hist"), "--test", I(test), "--delta", "0.01"]
        run(*query)
        run(*query, "--samples", 20, "--seed", 3)
        run("distance", "--a", I(test), "--b", I("edited-all.hist"), "--p", "2",
            "--method", "exact")

    # refused before any table is read: a misspelled sweep key, and a grid
    # whose dense violation mask would need 1 TiB
    if fresh:
        write("c10-typo.cfg", c10_sweep.replace("baseline_trials", "baseline_trial"))
        wide = [f"f{i}" for i in range(8)]
        rng = random.Random(SEED)
        write("wide.csv", ",".join(["SEX"] + wide) + "\n" + "".join(
            ",".join([rng.choice(["Female", "Male"])] + [f"{rng.random():.3f}" for _ in wide])
            + "\n" for _ in range(40)))
        write("wide-sweep.cfg", "".join(f"feature.{f} = continuous:0:1:32\n" for f in wide)
              + "protected = SEX\nsubgroup = Female\neps = 0.2\nsamples = 5\ntrials = 10\n"
              "seed = 3\n")
    os.makedirs(O("refused"), exist_ok=True)
    run("sweep", "--config", I("c10-typo.cfg"), "--data", O("c10.csv"),
        "--out", O(os.path.join("refused", "c10-typo.csv")))
    run("sweep", "--config", I("wide-sweep.cfg"), "--data", I("wide.csv"),
        "--out", O(os.path.join("refused", "wide.csv")))
    # refused too: a negative row count, and an --out in a missing directory
    run("synth", "--rows", -1, "--out", O(os.path.join("refused", "negative.csv")))
    run("bin", "--data", O("c10.csv"), "--config", I("c10-scheme.cfg"),
        "--out", O(os.path.join("missing", "x.hist")))
    shutil.rmtree(O("refused"), ignore_errors=True)

    # subgroup-audit inputs
    if fresh:
        write("audit.csv", bench.audit_table(SEED))
        write("audit.cfg", bench.scheme_config(bench.AUDIT_SCHEME))
    shape = bench.grid_shape(bench.AUDIT_SCHEME)
    n_total = 1
    for width in shape:
        n_total *= width
    budget = checks.expected_budget(0.05, 0.05, len(shape), n_total)[1]
    run("bin", "--data", I("audit.csv"), "--config", I("audit.cfg"), "--out", O("audit-pop.hist"))
    run("sample-size", "--eps", "0.05", "--delta", "0.05", "--n-features", len(shape),
        "--total-bins", n_total)
    for g, label in enumerate(bench.AUDIT_GROUPS):
        name = f"audit-g{g}.hist"
        run("bin", "--data", I("audit.csv"), "--config", I("audit.cfg"), "--out", O(name),
            "--filter", f"GROUP={label}")
        for delta in (repr(bench.AUDIT_DELTA), "0.005"):
            query = ["query", "--reference", O("audit-pop.hist"), "--test", O(name), "--delta", delta]
            run(*query)
            for samples in (budget, 64):
                run(*query, "--samples", samples, "--seed", bench.derive_seed(SEED, 2, 0, g, samples))

    # supnorm-sweep and transport-baseline inputs
    if fresh:
        write("synth.cfg", bench.scheme_config(bench.SWEEP_SCHEME))
        write("supnorm.cfg", bench.sweep_config(SEED, 10_000))
        write("transport.cfg", bench.sweep_config(SEED, 200, 2, samples=(50, 100, 200)))
    run("synth", "--rows", bench.SYNTH_ROWS, "--seed", bench.derive_seed(SEED, 4),
        "--out", O("synth.csv"))
    budget = checks.expected_budget(0.05, 0.05, 2, 500)[1]
    run("bin", "--data", O("synth.csv"), "--config", I("synth.cfg"), "--out", O("synth-pop.hist"))
    for g, value in enumerate(("Female", "Male")):
        name = f"synth-g{g}.hist"
        run("bin", "--data", O("synth.csv"), "--config", I("synth.cfg"), "--out", O(name),
            "--filter", f"SEX={value}")
        for d, delta in enumerate(bench.SWEEP_DELTAS):
            query = ["query", "--reference", O("synth-pop.hist"), "--test", O(name),
                     "--delta", repr(delta)]
            run(*query)
            for samples in (budget, 64):
                run(*query, "--samples", samples,
                    "--seed", bench.derive_seed(SEED, 2, 0, g, d, samples))
    # samples of more than half the 500-bin grid, and of all of it
    for samples in (300, 500):
        run("query", "--reference", O("synth-pop.hist"), "--test", O("synth-g0.hist"),
            "--delta", repr(bench.SWEEP_DELTAS[1]), "--samples", samples, "--seed", 17)
    run("distance", "--a", O("synth-g0.hist"), "--b", O("synth-pop.hist"), "--p", "2",
        "--method", "exact")
    run("sweep", "--config", I("supnorm.cfg"), "--data", O("synth.csv"), "--out", O("supnorm.csv"),
        "--threads", "1")
    run("sweep", "--config", I("transport.cfg"), "--data", O("synth.csv"),
        "--out", O("transport.csv"), "--threads", "2")
    # a 12 000-bin grid: samples on both sides of numpy's switch from Floyd's
    # algorithm to a partial shuffle (a fiftieth of the grid, 240), and one
    # that leaves fewer bins out than violate, so every sample meets them;
    # at eps 0.001 (12 violating bins) most samples of 240 miss them all
    if fresh:
        fine = "feature.score = continuous:0:10:120\nfeature.age = continuous:18:80:100\n"
        write("fine.cfg", bench.sweep_config(SEED, 200, samples=(240, 241, 11_990))
              .replace(bench.scheme_config(bench.SWEEP_SCHEME), fine)
              .replace("eps = 0.05,0.1,0.2", "eps = 0.001,0.05"))
    run("sweep", "--config", I("fine.cfg"), "--data", O("synth.csv"), "--out", O("fine.csv"),
        "--threads", "1")

    # messy table: the CSV reader's edge cases, through bin and sweep
    if fresh:
        rng = random.Random(SEED)
        lines = ["SEX,score,age,score"]  # the last duplicate column wins
        for i in range(300):
            sex = rng.choice(["Female", "Male", "Male", "", "female"])
            score, last = (f"{rng.uniform(-1, 11):.3f}" for _ in range(2))
            age = f"{18 + 62 * rng.random():.2f}"
            kind = i % 9
            if kind == 0:
                lines.append("")  # blank line
            elif kind == 1:
                lines.append(f"{sex},{score}")  # short row: the last score and age missing
            elif kind == 2:
                lines.append(f"{sex},{score},{age},{last},extra,fields")  # long row
            elif kind == 3:
                lines.append(f"{sex},{score},{rng.choice(['x', '', 'nan', ' 40 '])},{last}")
            elif kind == 4:
                lines.append(f"{sex},{score},{age},{rng.choice(['', 'y', '1e400', '-inf'])}")
            else:
                lines.append(f"{sex},{score},{age},{last}")
        write("messy.csv", "\n".join(lines) + "\n\n")
        messy_sweep = (scheme + "protected = SEX\nsubgroup = Female\neps = 0.2\nsamples = 2,6\n"
                       "trials = 50\nseed = 9\nbaseline = wasserstein\nthreshold_factor = 1.25\n"
                       "baseline_trials = 4\n")
        write("messy-sweep.cfg", messy_sweep)
        write("messy-nobody.cfg", messy_sweep.replace("Female", "Nobody"))
        write("messy-nosex.cfg", messy_sweep.replace("protected = SEX", "protected = RACE"))
    for flt, name in (("SEX=Female", "messy-fem.hist"), (None, "messy-all.hist"),
                      ("SEX!=Male", "messy-notmale.hist"), ("SEX=Nobody", "messy-nobody.hist")):
        run("bin", "--data", I("messy.csv"), "--config", I("c10-scheme.cfg"), "--out", O(name),
            *(["--filter", flt] if flt else []))
    for cfg in ("messy-sweep", "messy-nobody", "messy-nosex"):
        run("sweep", "--config", I(cfg + ".cfg"), "--data", I("messy.csv"),
            "--out", O(cfg + ".csv"), "--threads", "2")

    # the messy table quoted, with CRLF line ends and a non-ASCII category:
    # every block goes through csv.reader
    if fresh:
        with open(I("messy.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(I("quoted.csv"), "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(
                [[field.replace("female", "Fémale") for field in row] for row in rows])
        write("quoted-accent.cfg", messy_sweep.replace("Female", "Fémale"))
    for flt, name in (("SEX=Female", "quoted-fem.hist"), (None, "quoted-all.hist"),
                      ("SEX=Fémale", "quoted-accent.hist")):
        run("bin", "--data", I("quoted.csv"), "--config", I("c10-scheme.cfg"), "--out", O(name),
            *(["--filter", flt] if flt else []))
    for cfg in ("messy-sweep", "quoted-accent"):
        run("sweep", "--config", I(cfg + ".cfg"), "--data", I("quoted.csv"),
            "--out", O("quoted-" + cfg + ".csv"), "--threads", "2")

    # tables over one read block (about 1 MiB) with a categorical feature:
    # big.csv is plain throughout, big-late.csv turns quoted and CRLF in its
    # last rows, so its reads switch from numpy to csv.reader mid-table
    if fresh:
        rng = random.Random(SEED + 1)
        lines = ["SEX,score,age,region,note"]
        for i in range(40_000):
            sex = rng.choice(["Female", "Male", "Male", "", "female"])
            score = rng.choice([f"{rng.uniform(-1, 11):.4f}"] * 30 + ["", "x", " 5 ", "1_0"])
            age = f"{18 + 62 * rng.random():.3f}"
            region = rng.choice(["north", "east", "south", "west"] * 10 + [" east", "North", ""])
            row = [sex, score, age, region, f"n{rng.randrange(10**6)}"]
            kind = i % 97
            lines.append("" if kind == 0 else ",".join(row[:3] if kind == 1 else row))
        write("big.csv", "\n".join(lines) + "\n")
        late = lines[:-50] + [f'"{line}"'.replace(",", '","') + "\r" for line in lines[-50:]]
        write("big-late.csv", "\n".join(late) + "\n")
        big_scheme = scheme + "feature.region = categorical:north,east,south,west\n"
        write("big.cfg", big_scheme)
        write("big-sweep.cfg", big_scheme + messy_sweep[len(scheme):])
    for table in ("big", "big-late"):
        for flt, name in (("SEX=Female", "fem"), (None, "all"), ("SEX!=Male", "notmale")):
            run("bin", "--data", I(table + ".csv"), "--config", I("big.cfg"),
                "--out", O(f"{table}-{name}.hist"), *(["--filter", flt] if flt else []))
        run("sweep", "--config", I("big-sweep.cfg"), "--data", I(table + ".csv"),
            "--out", O(table + "-sweep.csv"), "--threads", "2")

    log.close()
    for name in os.listdir(out):
        if name.endswith(".manifest.json"):
            path = os.path.join(out, name)
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            del manifest["timestamp"]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit(__doc__)
    main(*sys.argv[1:])
