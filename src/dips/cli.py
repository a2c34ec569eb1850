"""Command-line entry points.

``dips synth`` reads a CSV, runs one synthesizer of
``dips.synthesizers.SYNTHESIZERS`` under a stated budget, and writes the
released set(s) plus a budget audit.  Sets whose sanitized counts have no
mass are dropped; when none survives, the audit is still written and
the exit code is 2.  ``dips bench`` runs one of the benchmark studies from
a JSON config and writes metric CSVs.

Exit codes: 0 success, 2 configuration error, 3 privacy-budget violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .budget import BudgetExhausted, PrivacyBudget, PrivacyLedger
from .dataset import (CategoricalColumn, ContinuousColumn, TabularDataset,
                      category_codes, read_numeric_csv)
from .harness import STUDIES, StudyConfig, report, run_study
from .randvar import RngStream
from .synthesizers import SYNTHESIZERS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3

SYNTH_METHODS = tuple(SYNTHESIZERS)
# methods that release one set whatever --m is
ONE_SET_METHODS = ("smooth-hist", "bbmr")


class ConfigError(ValueError):
    pass


def _load_csv(path: str, schema_path: str | None) -> TabularDataset:
    """Load a CSV, inferring a schema unless one is supplied.

    Inference treats a column as categorical when every value is a
    non-negative integer below 20; continuous bounds default to the
    observed min/max (state explicit bounds in a schema file for a
    data-independent domain).  A ragged row, a repeated name, a cell that
    is not a finite number, or a column with no rows and no schema entry
    is a ConfigError; a non-integer categorical code, or one outside its
    declared levels, is a ValueError.

    A schema file is a JSON object mapping CSV column names to objects
    with a ``type`` of ``categorical`` (and a positive integer ``levels``) or
    ``continuous`` (and finite ``lo`` < ``hi``)."""
    try:
        header, arrays = read_numeric_csv(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    schema = {}
    if schema_path:
        with open(schema_path) as fh:
            schema = json.load(fh)
        if not (isinstance(schema, dict)
                and all(isinstance(v, dict) for v in schema.values())):
            raise ConfigError(f"{schema_path}: the schema must be a JSON "
                              "object of column objects")
        for key in schema:
            if key not in header:
                raise ConfigError(f"schema key {key!r} names no CSV column")
    columns = []
    data = {}
    for name, values in zip(header, arrays):
        finite = np.isfinite(values)
        if not finite.all():
            raise ConfigError(f"column {name!r} holds a non-finite value "
                              f"{float(values[~finite][0])!r}")
        spec = schema.get(name)
        if spec is None and not values.size:
            raise ConfigError(f"column {name!r} has no rows to infer its "
                              "type from; declare it in a schema")
        if spec is not None:
            kind = spec.get("type")
            if kind == "categorical":
                levels = spec.get("levels")
                # exact types: bool is an int, and 2.7 must not become 2
                if type(levels) is not int or levels < 1:
                    raise ConfigError(f"column {name!r} needs a positive "
                                      f"integer levels, got {levels!r}")
                columns.append(CategoricalColumn(name, range(levels)))
                data[name] = category_codes(name, values, levels)
            elif kind == "continuous":
                lo, hi = spec.get("lo"), spec.get("hi")
                if not all(type(b) in (int, float) for b in (lo, hi)):
                    raise ConfigError(f"column {name!r} needs numeric lo and "
                                      f"hi, got {lo!r} and {hi!r}")
                columns.append(ContinuousColumn(name, float(lo), float(hi)))
                data[name] = values
            else:
                raise ConfigError(f"column {name!r} needs a type of "
                                  f"categorical or continuous, got {kind!r}")
            continue
        # tested on the floats: a cast out of int64's range warns
        if (values.min() >= 0 and values.max() < 20
                and np.all(values == np.trunc(values))):
            columns.append(CategoricalColumn(name,
                                             range(int(values.max()) + 1)))
            data[name] = values.astype(np.int64)
        else:
            columns.append(ContinuousColumn(name, float(values.min()),
                                            float(values.max())))
            data[name] = values
    if not columns:
        raise ConfigError("input CSV has no columns")
    return TabularDataset(columns, data)


def _run_synth(args) -> int:
    ledger = PrivacyLedger(PrivacyBudget(args.eps))
    ds = _load_csv(args.input, args.schema)
    sets = SYNTHESIZERS[args.method](RngStream(args.seed), ds, args.eps,
                                     args.m, ledger, "BIT")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "ledger.json", "w") as fh:
        fh.write(ledger.to_json())
    if not sets:
        raise ConfigError(f"no synthetic set survived at eps {args.eps}: "
                          "every set's sanitized counts had no mass")
    for j, s in enumerate(sets, start=1):
        s.to_csv(out / f"synth_{j}.csv")
    wanted = 1 if args.method in ONE_SET_METHODS else args.m
    if len(sets) < wanted:
        print(f"dropped {wanted - len(sets)} of {wanted} set(s): their "
              "sanitized counts had no mass")
    print(f"wrote {len(sets)} synthetic set(s) to {out}")
    return EXIT_OK


def _run_bench(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: the config must be a JSON "
                              "object")
    if cfg.setdefault("study", args.study) != args.study:
        raise ConfigError(f"the config's study {cfg['study']!r} differs "
                          f"from --study {args.study}")
    if args.reps is not None:
        cfg["reps"] = args.reps
    cfg.setdefault("n", 100)
    try:
        config = StudyConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    rows = run_study(config)
    report(rows, args.out, config)
    print(f"wrote {len(rows)} metric rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dips",
        description="differentially private data synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize one dataset")
    synth.add_argument("--input", required=True, help="input CSV")
    synth.add_argument("--method", required=True, choices=SYNTH_METHODS)
    synth.add_argument("--eps", required=True, type=float,
                       help="total privacy budget")
    synth.add_argument("--m", type=int, default=5,
                       help="number of released sets")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--schema", default=None,
                       help="optional JSON column schema")

    bench = sub.add_parser("bench", help="run a benchmark study")
    bench.add_argument("--study", required=True,
                       choices=tuple(STUDIES))
    bench.add_argument("--config", default=None,
                       help="JSON config mirroring StudyConfig")
    bench.add_argument("--reps", type=int, default=None)
    bench.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            if args.eps <= 0 or args.m < 1:
                raise ConfigError("need eps > 0 and m >= 1")
            return _run_synth(args)
        return _run_bench(args)
    except BudgetExhausted as exc:
        print(f"budget violation: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, OSError, KeyError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
