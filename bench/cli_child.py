"""One CLI invocation in a fresh interpreter:
``python cli_child.py <aggregates.json | -> <cli args>``.

Imports ``enumstack.cli``, runs ``enumstack.cli.main`` with the remaining
arguments and exits with main's exit code. It takes a host-speed reading
(see ``hostclock.py``) on entry and another on the way out, in this
process, because readings taken in the parent do not track the speed at
which the child runs. Its last line on stderr is
``hostclock <first reading> <second reading> <ns spent on both>``.

Given an aggregates path instead of ``-``, it also times
``import enumstack.cli``, installs the span wrappers and writes the span
aggregates to that file.
"""

import json
import sys
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from hostclock import reference_ns  # noqa: E402


def main() -> int:
    agg_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter_ns()
    first = reference_ns()
    spent = perf_counter_ns() - t0

    t0 = perf_counter_ns()
    import enumstack.cli

    import_ns = perf_counter_ns() - t0
    tracer = None
    if agg_path != "-":
        import tracing

        tracer = tracing.Tracer(max_spans=0)
        tracing.install(tracer)
        tracer.count("cli.import_ns", import_ns)
        tracer.enabled = True
    try:
        return enumstack.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.enabled = False
            Path(agg_path).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
        t0 = perf_counter_ns()
        second = reference_ns()
        spent += perf_counter_ns() - t0
        print(f"hostclock {first} {second} {spent}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
