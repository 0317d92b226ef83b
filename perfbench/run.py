#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload line2-const --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's layer entry points and reports per-layer metrics instead. The line
before the result holds the machine facts, the workload-property counts and
any failed checks. Run from the repository root (or a checkout of it).
"""

import os

# One process, one thread: BLAS must not fan out over the cores, and the cap
# has to be in the environment before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot load the package from ../src: {exc}", file=sys.stderr)
        return 1
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result, details = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
