"""One pass of a workload in a fresh interpreter.

Usage: python3 -I perfbench/worker.py <source dir> <trace 0|1>

Imports `latvoa` from <source dir> (the checkout's `src`, or the frozen
reference copy), then prints {"ready": <monotonic time>}.  It then reads
one job per line on stdin, a JSON argv list, and runs
`latvoa.cli.main(argv)` on this one thread.  For each job it prints one
line: the job's wall and CPU seconds, exit code and captured output.  At
the end of stdin it prints a last line with the peak RSS and, when traced,
the layer numbers.  Answers are checked by the parent, outside the timed
window.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_job(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse and --algebra errors exit
            rc = exc.code
        except Exception:  # a job that raises is a failed job, not a dead pass
            error = traceback.format_exc()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def _send(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    traced = sys.argv[2] == "1"
    sys.path.insert(0, str(src))
    import latvoa
    import latvoa.cli

    if Path(latvoa.__file__).resolve().parent != src / "latvoa":
        print(f"imported latvoa from {latvoa.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if traced:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    _send({"ready": time.monotonic()})

    for line in sys.stdin:
        argv = json.loads(line)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = run_job(latvoa.cli, argv)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        _send(result)

    summary = {
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": None,
    }
    if tracer is not None:
        summary["layers"] = tracing.layer_metrics(tracer)
        summary["layers"].update(tracing.cache_sizes())
        summary["span_calls"] = {name: s.calls for name, s in tracer.spans.items()}
    _send(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
