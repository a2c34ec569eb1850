"""Write ``reference.json``: pooled utility statistics per (eps, method,
parameter) of each study workload, from many cycles under seeds that the
benchmark's own seeds do not reach.  The benchmark checks each run's
pooled bias, coverage and CI width against these values.

Usage, from the root of a source checkout::

    python3 perfbench/calibrate.py --cycles sim1-truncate=300 \
        --cycles sim3-mixture=200 --cycles sim4-logistic=24
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import ROOT, SRC, cap_blas_threads  # noqa: E402

CALIBRATION_SEED = 10**6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cycles", action="append", required=True,
                        help="WORKLOAD=N, repeatable")
    args = parser.parse_args(argv)
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import dips
    import dips.harness
    from perfbench import workloads

    path = Path(__file__).with_name("reference.json")
    computed = {}
    for item in args.cycles:
        name, count = item.split("=")
        wl = workloads.make_workload(name, CALIBRATION_SEED, dips)
        wl.prepare(ROOT / ".perfbench" / name)
        tally = wl.new_tally()
        t0 = time.perf_counter()
        with wl.boundary_clock():
            for i in range(int(count)):
                tally.add(wl.run_cycle(i)[2])
        computed[name] = tally.reference()
        print(f"{name}: {tally.reps} replications, {tally.failed} without "
              f"a usable estimate, {time.perf_counter() - t0:.1f} s")
    reference = json.loads(path.read_text()) if path.exists() else {}
    reference.update(computed)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
