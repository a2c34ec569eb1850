"""The benchmark's workloads: three Monte-Carlo studies run through
``dips.harness.run_study`` and the data holder's ``dips synth`` command.

Every workload is a closed loop with one caller: the next unit of work
starts when the previous one ends.  A unit is one *cycle*:

* a study cycle is ``run_study`` with ``reps=1``, i.e. one replication of
  every (eps, method) pair of the workload, under its own study seed;
* a CLI cycle is one in-process ``dips.cli.main(["synth", ...])``
  invocation; cycle ``i`` runs configuration ``i % 4``, and a run ends on
  a whole round of the four configurations.

Cycle ``i`` of a run with ``--seed s`` uses the seed ``s * 1_000_000 + i``,
so the inputs depend on the seed alone.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SYNTH_ROWS = 200_000
SYNTH_EPS = 1.0
SYNTH_M = 5
# (truth simulator, method) per CLI configuration; the first one also runs
# untimed (the warm-up, and the seed check when a run has a single round),
# so it is the cheapest
SYNTH_CONFIGS = (("sim3", "smooth-hist"), ("sim2", "modips-normal"),
                 ("sim2", "pert-hist"), ("sim3", "pert-hist"))

STUDIES = {
    "sim1-truncate": dict(study="sim1", n=40, truth={"pi": 0.25},
                          eps_grid=[math.exp(-9)], m=5,
                          methods=["modips-bernoulli", "md", "bbmr"],
                          postprocess="truncate"),
    "sim3-mixture": dict(study="sim3", n=1000,
                         eps_grid=[math.exp(-2), math.exp(2)], m=5,
                         methods=["np-dips", "modips-mixture"]),
    "sim4-logistic": dict(study="sim4", n=200, eps_grid=[1.0], m=5,
                          methods=["modips-logistic", "np-dips"]),
}
WORKLOADS = tuple(STUDIES) + ("synth-cli",)

# a pooled utility statistic may sit this many Monte-Carlo standard errors
# from its reference before the run is marked incorrect
BAND_Z = 6.0


def cycle_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def sha256_of(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class CheckFailed(Exception):
    """An output or determinism check failed."""


# -- Monte-Carlo studies -----------------------------------------------------

class StudyTally:
    """Pools the one-replication metric rows of many cycles into per
    (eps, method, parameter) samples of bias, coverage and CI width."""

    def __init__(self):
        self.samples = defaultdict(lambda: {"attempted": 0, "bias": [],
                                            "covered": [], "width": []})
        self.reps = 0
        self.failed = 0
        self.nonfinite: list[str] = []

    def add(self, rows):
        used_by_rep = defaultdict(list)
        for r in rows:
            key = f"{r.eps!r}|{r.method}|{r.parameter}"
            s = self.samples[key]
            s["attempted"] += 1
            if r.reps_used > 0:
                values = (r.bias, r.rmse, r.coverage, r.ci_width)
                if not all(math.isfinite(v) for v in values):
                    self.nonfinite.append(key)
                s["bias"].append(r.bias)
                s["covered"].append(r.coverage)
                s["width"].append(r.ci_width)
            used_by_rep[(r.eps, r.method)].append(r.reps_used)
        for used in used_by_rep.values():
            self.reps += 1
            self.failed += not any(used)

    def usable_fraction(self) -> float:
        """Mean over (eps, method, parameter) of usable / attempted."""
        return statistics.fmean(len(s["bias"]) / s["attempted"]
                                for s in self.samples.values())

    def usable_by_method(self) -> dict[str, float]:
        out = defaultdict(list)
        for key, s in self.samples.items():
            out[key.split("|")[1]].append(len(s["bias"]) / s["attempted"])
        return {m: min(v) for m, v in out.items()}

    def reference(self) -> dict:
        ref = {}
        for key, s in sorted(self.samples.items()):
            n = len(s["bias"])
            if n < 2:
                continue
            ref[key] = {
                "n": n, "attempted": s["attempted"],
                "bias_mean": statistics.fmean(s["bias"]),
                "bias_sd": statistics.stdev(s["bias"]),
                "cov_mean": statistics.fmean(s["covered"]),
                "width_mean": statistics.fmean(s["width"]),
                "width_sd": statistics.stdev(s["width"]),
            }
        return ref

    def band_violations(self, ref: dict, z: float = BAND_Z):
        """Pooled bias, coverage and CI width against the reference: each
        must lie within ``z`` standard errors of the difference of two
        independent Monte-Carlo means.  Returns the violations and the
        largest standardized distance seen."""
        bad = []
        worst = 0.0
        for key, s in sorted(self.samples.items()):
            n = len(s["bias"])
            if n == 0:
                continue
            r = ref.get(key)
            if r is None:
                bad.append(f"{key}: no reference")
                continue
            scale = math.sqrt(1 / n + 1 / r["n"])
            p = r["cov_mean"]
            cov_sd = math.sqrt(max(p * (1 - p), 1 / r["n"]))
            for stat, got, mean, sd in (
                    ("bias", statistics.fmean(s["bias"]), r["bias_mean"],
                     r["bias_sd"]),
                    ("coverage", statistics.fmean(s["covered"]), p, cov_sd),
                    ("ci_width", statistics.fmean(s["width"]),
                     r["width_mean"], r["width_sd"])):
                tol = z * sd * scale + 1e-9 * max(1.0, abs(mean))
                worst = max(worst, z * abs(got - mean) / tol)
                if abs(got - mean) > tol:
                    bad.append(f"{key}: {stat} {got:.6g} outside "
                               f"{mean:.6g} +- {tol:.3g} (n={n})")
        return bad, worst


def rows_digest(rows, columns) -> str:
    return sha256_of((",".join(repr(getattr(r, c)) for c in columns)
                      + "\n").encode() for r in rows)


class StudyWorkload:
    """One replication of every (eps, method) per cycle, via run_study."""

    def __init__(self, name: str, seed: int, dips):
        self.name = name
        self.seed = seed
        self.dips = dips
        self.spec = STUDIES[name]
        self.pairs = [(e, m) for e in self.spec["eps_grid"]
                      for m in self.spec["methods"]]
        self.round_size = 1
        self.rep_starts: list[float] = []

    def prepare(self, workdir: Path):
        """Nothing to write: the harness simulates each replication's data
        from its seed."""

    @contextlib.contextmanager
    def boundary_clock(self):
        """Timestamp each replication start: the harness calls its public
        truth simulator once per replication."""
        harness = self.dips.harness
        name = f"simulate_truth_{self.spec['study']}"
        original = getattr(harness, name)
        starts = self.rep_starts

        def clocked(*args, **kwargs):
            starts.append(time.perf_counter())
            return original(*args, **kwargs)

        setattr(harness, name, clocked)
        try:
            yield
        finally:
            setattr(harness, name, original)

    def run_cycle(self, index: int):
        """Returns ((start, end), digest, rows, [(pair index, seconds)] per
        replication)."""
        config = self.dips.harness.StudyConfig(
            **self.spec, reps=1, seed=cycle_seed(self.seed, index))
        first = len(self.rep_starts)
        t0 = time.perf_counter()
        rows = self.dips.harness.run_study(config)
        t1 = time.perf_counter()
        starts = self.rep_starts[first:] + [t1]
        if len(starts) != len(self.pairs) + 1:
            raise CheckFailed(
                f"{self.name}: saw {len(starts) - 1} replication starts, "
                f"expected {len(self.pairs)}")
        reps = [(k, b - a) for k, (a, b) in enumerate(zip(starts,
                                                          starts[1:]))]
        digest = rows_digest(rows, self.dips.harness.METRIC_COLUMNS)
        return (t0, t1), digest, rows, reps

    def digest_of(self, index: int) -> str:
        """Digest of cycle ``index``, run outside the timed loop."""
        with self.boundary_clock():
            return self.run_cycle(index)[1]

    def new_tally(self):
        return StudyTally()

    def check_cycle(self, tally: StudyTally, rows, index: int):
        tally.add(rows)

    def final_checks(self, tally: StudyTally, reference: dict) -> list[str]:
        bad = [f"non-finite metric row {k}" for k in tally.nonfinite]
        if self.name == "sim1-truncate":
            for method, frac in sorted(tally.usable_by_method().items()):
                if frac < 0.995:
                    bad.append(f"{method}: usable fraction {frac:.4f} "
                               "< 0.995")
        band, worst = tally.band_violations(reference.get(self.name, {}))
        print(f"utility band: largest distance {worst:.2f} standard errors "
              f"(limit {BAND_Z:g}) over {len(tally.samples)} rows")
        return bad + band

    def cleanup(self):
        pass


# -- data holder's CLI path --------------------------------------------------

def _schema_of(dataset, categorical_cls) -> dict:
    return {c.name: ({"type": "categorical", "levels": len(c.levels)}
                     if isinstance(c, categorical_cls)
                     else {"type": "continuous", "lo": c.lo, "hi": c.hi})
            for c in dataset.columns}


class CliTally:
    def __init__(self):
        self.reps = 0
        self.failed = 0

    def usable_fraction(self) -> float:
        return (self.reps - self.failed) / self.reps


class SynthWorkload:
    """One ``dips synth`` invocation per cycle, rotating through the
    configurations, on seeded 200k-row CSVs with schema files."""

    def __init__(self, name: str, seed: int, dips):
        self.name = name
        self.seed = seed
        self.dips = dips
        self.pairs = list(SYNTH_CONFIGS)
        self.round_size = len(SYNTH_CONFIGS)

    def prepare(self, workdir: Path):
        """Simulate the sim2 and sim3 truth at SYNTH_ROWS rows and write
        each as CSV plus a JSON schema with the declared bounds."""
        harness = self.dips.harness
        rng = self.dips.randvar.RngStream(self.seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = {}
        for k, (study, simulate) in enumerate(
                (("sim2", harness.simulate_truth_sim2),
                 ("sim3", harness.simulate_truth_sim3))):
            ds = simulate(rng.substream(k), SYNTH_ROWS)
            names = [c.name for c in ds.columns]
            csv_path = workdir / f"{study}.csv"
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(names)
                writer.writerows(zip(*(ds.column(n).tolist()
                                       for n in names)))
            schema = _schema_of(ds, self.dips.dataset.CategoricalColumn)
            schema_path = workdir / f"{study}.schema.json"
            schema_path.write_text(json.dumps(schema))
            self.inputs[study] = (csv_path, schema_path, names, schema)

    def run_cycle(self, index: int):
        """One in-process ``dips synth`` call, timed; its outputs are then
        checked, digested and removed.  Returns the same tuple as a
        study cycle."""
        k = index % len(SYNTH_CONFIGS)
        study, method = SYNTH_CONFIGS[k]
        csv_path, schema_path, names, schema = self.inputs[study]
        out = self.workdir / f"out-{index}"
        argv = ["synth", "--input", str(csv_path), "--schema",
                str(schema_path), "--method", method, "--eps",
                repr(SYNTH_EPS), "--m", str(SYNTH_M), "--seed",
                str(cycle_seed(self.seed, index)), "--out", str(out)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = self.dips.cli.main(argv)
        t1 = time.perf_counter()
        try:
            problems, digest = self._verify(out, code, method, names, schema)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return (t0, t1), digest, (study, method, code, problems), \
            [(k, t1 - t0)]

    def digest_of(self, index: int) -> str:
        """Digest of cycle ``index``, run and checked outside the timed
        loop."""
        _, digest, outcome, _ = self.run_cycle(index)
        self.check_cycle(self.new_tally(), outcome, index)
        return digest

    def _verify(self, out: Path, code: int, method: str, names, schema):
        problems = []
        if code != 0:
            return [f"exit code {code}"], f"exit-{code}"
        ledger = json.loads((out / "ledger.json").read_text())
        if ledger["effective_spend"] != SYNTH_EPS:
            problems.append(f"ledger spend {ledger['effective_spend']!r} "
                            f"!= eps {SYNTH_EPS!r}")
        expected_sets = 1 if method == "smooth-hist" else SYNTH_M
        files = sorted(out.glob("synth_*.csv"))
        if len(files) != expected_sets:
            problems.append(f"{len(files)} synthetic sets, expected "
                            f"{expected_sets}")
        chunks = [(out / "ledger.json").read_bytes()]
        for path in files:
            data = path.read_bytes()
            chunks.append(path.name.encode() + data)
            header = data[:data.index(b"\n")].decode().strip().split(",")
            if header != names:
                problems.append(f"{path.name}: header {header}")
                continue
            table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1,
                               ndmin=2)
            if len(table) != SYNTH_ROWS:
                problems.append(f"{path.name}: {len(table)} rows")
            for j, name in enumerate(names):
                col = table[:, j]
                spec = schema[name]
                if spec["type"] == "categorical":
                    ok = (np.all(col == np.round(col)) and col.min() >= 0
                          and col.max() < spec["levels"])
                else:
                    ok = (np.all(np.isfinite(col))
                          and col.min() >= spec["lo"] - 1e-9
                          and col.max() <= spec["hi"] + 1e-9)
                if not ok:
                    problems.append(f"{path.name}: column {name} outside "
                                    "its schema")
        return problems, sha256_of(chunks)

    def new_tally(self):
        return CliTally()

    def check_cycle(self, tally: CliTally, outcome, index: int):
        study, method, code, problems = outcome
        tally.reps += 1
        tally.failed += code != 0
        if problems:
            raise CheckFailed(f"cycle {index} {study} {method}: "
                              + "; ".join(problems))

    def final_checks(self, tally: CliTally, reference: dict) -> list[str]:
        return []

    @contextlib.contextmanager
    def boundary_clock(self):
        yield

    def cleanup(self):
        if hasattr(self, "workdir"):
            shutil.rmtree(self.workdir, ignore_errors=True)


def make_workload(name: str, seed: int, dips):
    if name in STUDIES:
        return StudyWorkload(name, seed, dips)
    if name == "synth-cli":
        return SynthWorkload(name, seed, dips)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def load_reference(path: Path) -> dict:
    if not path.exists():
        sys.exit(f"missing reference file {path}")
    return json.loads(path.read_text())
