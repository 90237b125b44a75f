"""Compare the benchmark of two checkouts in alternating pairs of runs.

Usage: python3 tools/bench_pairs.py <parent-checkout> <change-checkout>
           [--workload W] [--pairs 10] [--seed S] [--seconds T] [--n N]
           [--json PATH]

Each run is a fresh ``python3 <checkout>/bench/run.py --trace 0`` process,
so each side runs its own benchmark on its own package source. Before the
first pair, ``src/`` and ``bench/`` of both checkouts are byte-compiled
(``compileall``): with ``PYTHONDONTWRITEBYTECODE`` set, a checkout that
was never compiled compiles its modules in every run, and its ``rss_mb``
reads about 1 MB higher than the same code compiled. Pair *i*
runs the parent first when *i* is even and the change first when it is
odd. ``--workload`` defaults to every workload, and ``--seconds`` to the
``run_seconds``, of the change's ``BENCHMARK.json``.

For every workload and end-to-end metric it prints the parent's and the
change's medians, the parent's interquartile range (third quartile minus
first), the change's wins, losses and ties over the pairs (by the metric's
``better`` direction), how much worse the change's median is than the
parent's as a fraction of it, and whether that stays within the metric's
``bound``. That ``holds`` column reads ``unresolved`` when the parent's
interquartile range is wider than the bound times the parent's median,
since runs spread wider than the bound cannot show it holds, unless every
run of the change reads better than every run of the parent. A ``gain``
column reads ``yes`` when the change won at least nine tenths of the pairs
and its median is better than the parent's by more than the parent's
interquartile range. ``--json`` writes every run
and the summary to PATH. Exits 1 if any run fails its answer checks or
prints no result, else 0.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
GAIN_SHARE = 0.9


def load_spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float, n: int) -> dict:
    """One benchmark process on *checkout*: its JSON result line, plus
    ``exit`` (the return code) and ``error`` (why no result was read)."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--n", str(n)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        return {"exit": proc.returncode, "error": tail[0] if tail else "no output"}
    result["exit"] = proc.returncode
    return result


def byte_compile(checkout: Path) -> None:
    """Write the bytecode of *checkout*'s package and benchmark sources."""
    for sub in ("src", "bench"):
        compileall.compile_dir(checkout / sub, quiet=1)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The comparison of one metric's paired values (pair *i* is
    ``parent[i]`` against ``change[i]``)."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent_median": p_med,
        "change_median": c_med,
        "parent_q1": q1,
        "parent_q3": q3,
        "parent_iqr": q3 - q1,
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "worse_by": worse_by,
        "bound": metric["bound"],
        "bound_holds": worse_by <= metric["bound"],
        "resolved": q3 - q1 <= metric["bound"] * abs(p_med) or all_better,
        "gain": wins >= GAIN_SHARE * len(parent) and sign * (p_med - c_med) > q3 - q1,
    }


def compare(args: argparse.Namespace) -> dict:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    spec = load_spec(checkouts["change"])
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for checkout in checkouts.values():
        byte_compile(checkout)
    runs = []
    summary: dict[str, dict] = {}
    for workload in workloads:
        paired: dict[str, list[dict]] = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, args.seed, args.seconds, args.n)
                runs.append({"workload": workload, "pair": pair, "side": side, **result})
                paired[side].append(result)
                status = result.get("error") or (
                    f"{result['failed']}/{result['attempted']} failed" if result["exit"]
                    else "ok")
                print(f"# {workload} pair {pair} {side}: {status}", file=sys.stderr)
        if any(r["exit"] or "metrics" not in r for side in SIDES for r in paired[side]):
            summary[workload] = {"error": "a run failed its checks or printed no result"}
            continue
        summary[workload] = {
            metric["name"]: summarize(
                metric,
                *[[r["metrics"][metric["name"]]["value"] for r in paired[side]]
                  for side in SIDES],
            )
            for metric in spec["end_to_end"]
        }
        summary[workload]["failed_share"] = {
            side: sum(r["failed"] for r in paired[side])
            / max(1, sum(r["attempted"] for r in paired[side]))
            for side in SIDES
        }
    return {
        "parent": str(checkouts["parent"]),
        "change": str(checkouts["change"]),
        "seed": args.seed,
        "seconds": args.seconds,
        "n": args.n,
        "pairs": args.pairs,
        "summary": summary,
        "runs": runs,
    }


def render(report: dict) -> list[str]:
    lines = [
        f"pairs={report['pairs']} seed={report['seed']} seconds={report['seconds']:g}"
        f" n={report['n']}",
        f"{'workload':<16} {'metric':<10} {'parent':>12} {'change':>12} {'p_iqr':>10}"
        f" {'W-L-T':>8} {'worse_by':>9} {'bound':>6} {'holds':>10} {'gain':>4}",
    ]
    for workload, metrics in report["summary"].items():
        if "error" in metrics:
            lines.append(f"{workload:<16} ERROR: {metrics['error']}")
            continue
        for name, m in metrics.items():
            if name == "failed_share":
                continue
            holds = ("yes" if m["bound_holds"] else "NO") if m["resolved"] else "unresolved"
            lines.append(
                f"{workload:<16} {name:<10} {m['parent_median']:>12.6g}"
                f" {m['change_median']:>12.6g} {m['parent_iqr']:>10.3g}"
                f" {m['wins']:>2}-{m['losses']}-{m['ties']:<3} {m['worse_by']:>+9.3f}"
                f" {m['bound']:>6.2f} {holds:>10}"
                f" {'yes' if m['gain'] else 'no':>4}"
            )
        share = metrics["failed_share"]
        lines.append(
            f"{workload:<16} failed share: parent {share['parent']:.4f}"
            f" change {share['change']:.4f}"
        )
    return lines


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", help="one workload (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--n", type=int, default=4000,
                        help="numbers in the state (smaller only for smoke tests)")
    parser.add_argument("--json", type=Path, help="write every run and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    report = compare(args)
    for line in render(report):
        print(line)
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if any("error" in m for m in report["summary"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
