"""enumstack benchmark.

    python3 bench/run.py --workload resolve_mix --seed 1 --seconds 15 --trace 0

Runs one workload on inputs made from ``--seed``, checks every answer,
prints the workload's figures by name with their units and sample counts,
and prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``). Exits 1 if an
answer check fails and 2 if the package source is missing.
``--workload all`` runs the three workloads in turn, each in its own
process, and exits non-zero if any of them does.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("resolve_mix", "provision_churn", "cli_state")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time (a traced run splits it: untraced, then traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=4000,
                        help="numbers in the state (smaller only for smoke tests)")
    return parser.parse_args(argv)


def import_package() -> None:
    """Import enumstack from this checkout's source tree, never from elsewhere."""
    package = SRC / "enumstack" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a checkout with the package source",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import enumstack

    if Path(enumstack.__file__).resolve() != package.resolve():
        print(f"error: imported enumstack from {enumstack.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def run_all(args: argparse.Namespace) -> int:
    worst = 0
    for workload in WORKLOADS:
        code = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--n", str(args.n)],
        ).returncode
        worst = max(worst, code)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    import workloads

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    params = workloads.Params(seed=args.seed, seconds=args.seconds, n=args.n,
                              trace=bool(args.trace), out_dir=out_dir)
    outcome = workloads.WORKLOADS[args.workload](params)

    print(f"{args.workload} seed={args.seed} n={args.n} seconds={args.seconds:g}"
          f" trace={args.trace}")
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    chosen = outcome.layers if args.trace else outcome.metrics
    if args.trace:
        for name, (value, unit) in sorted(chosen.items()):
            print(f"  {name:<42} {value:>14.4f} {unit}")
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
