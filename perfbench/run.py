"""latvoa benchmark: cold-process CLI workloads with checked answers.

Usage:
  python3 perfbench/run.py --workload {enumerate,kernel,modes} --seed N \
      --seconds S --trace {0,1} [--out results.jsonl]

Run from anywhere inside a checkout that holds `src/latvoa`.  Each pass
starts a fresh interpreter (perfbench/worker.py) on one thread that imports
`latvoa` and calls `latvoa.cli.main(argv)` for every job of the workload,
one after another: a closed loop with a single client, so module caches
start empty on every pass, as for a user of the command line.  Passes
repeat until S seconds have gone by.  Every answer is checked by
perfbench/oracle.py after its pass, outside the timed window.

The machine this benchmark was built on is shared, and its speed drifts by
up to 1.6x over tens of seconds, so seconds measured in one run are not
comparable with seconds measured in another.  Each untraced pass therefore
also starts a second worker on perfbench/reference, a frozen copy of the
program as it was when the benchmark was written, and hands each job to
the two workers in turn, job by job, alternating which goes first.  Both
see the same machine at the same moment; their ratio does not drift.

--trace 0 reports the end-to-end metrics:
  wall_rel      wall time of a pass over that of the reference (paired_ratio)
  cpu_rel       user + system CPU seconds of a pass over the reference's
  setup_s       worker spawn until `import latvoa` is done and jobs can start
                (median over passes)
  peak_rss_mib  peak resident set of the worker at the end of a pass (median)
and prints, unbounded, the medians of the pass's own wall_s and cpu_s and
of the reference's.
--trace 1 alternates untraced and traced passes without the reference and
reports the per-layer metrics of perfbench/tracer.py (medians over the
traced passes), trace.wall_s and trace.overhead_s, the traced minus the
untraced median wall time.

The last line of stdout is one JSON object: correct, attempted, failed
(jobs over all passes) and metrics.  The lines before it print every
metric with its unit, sample count and quartiles.  --out appends the run,
with every per-pass sample, to a JSON-lines file for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from oracle import check_job  # noqa: E402

E2E = {"wall_rel": "x", "cpu_rel": "x", "setup_s": "s", "peak_rss_mib": "MiB"}
RAW = {"wall_s": "s", "cpu_s": "s", "ref_wall_s": "s", "ref_cpu_s": "s"}
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_PASSES = {False: 3, True: 2}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_density")):
        return "ratio"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Worker:
    """A worker process serving one pass; close() kills and reaps it."""

    def __init__(self, src: Path, traced: bool = False):
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "worker.py"), str(src), "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, cwd=ROOT,
        )

    def wait_ready(self) -> float:
        """Seconds from spawn until the worker could start its first job."""
        return self._read()["ready"] - self.spawned

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"worker exited early:\n{self.proc.stderr.read().strip()}")
        return json.loads(line)

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> dict:
        self.proc.stdin.close()
        summary = self._read()
        self.proc.wait()
        return summary

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_pass(jobs: list[dict], traced: bool, paired: bool, flip: bool) -> dict:
    """One pass over the jobs; with `paired`, the reference worker runs each
    job right before or right after the program, alternating."""
    workers = []
    try:
        program = Worker(ROOT / "src", traced)
        workers.append(program)
        setup_s = program.wait_ready()
        reference = None
        if paired:
            reference = Worker(REFERENCE)
            workers.append(reference)
            reference.wait_ready()
        results, ref_results = [], []
        for i, job in enumerate(jobs):
            ref_first = (i % 2 == 1) != flip
            if reference and ref_first:
                ref_results.append(reference.run(job["argv"]))
            results.append(program.run(job["argv"]))
            if reference and not ref_first:
                ref_results.append(reference.run(job["argv"]))
        summary = program.finish()
        if reference:
            reference.finish()
    finally:
        for worker in workers:
            worker.close()
    report = {"setup_s": setup_s, "jobs": results, **summary}
    for prefix, runs in (("", results), ("ref_", ref_results)):
        for clock in ("wall", "cpu"):
            report[f"{prefix}job_{clock}"] = [r[f"{clock}_s"] for r in runs]
            report[f"{prefix}{clock}_s"] = sum(report[f"{prefix}job_{clock}"])
    return report


def paired_ratio(program: list[list[float]], reference: list[list[float]]) -> float:
    """Program time over reference time for one pass of the jobs.

    program[p][j] and reference[p][j] are the seconds of job j in pass p,
    taken next to each other.  Each job's ratio is its median over passes;
    the jobs' ratios are averaged with the reference's median job times as
    weights, which gives sum(program) / sum(reference) when nothing varies.
    """
    jobs = range(len(program[0]))
    ratios = [statistics.median(p[j] / r[j] for p, r in zip(program, reference)) for j in jobs]
    weights = [statistics.median(r[j] for r in reference) for j in jobs]
    return sum(x * w for x, w in zip(ratios, weights)) / sum(weights)


def check_pass(jobs: list[dict], results: list[dict], golden_dir: Path) -> list[str]:
    """One line per failed job of a pass: job argv and its problems."""
    if len(results) != len(jobs):
        raise RuntimeError(f"worker answered {len(results)} of {len(jobs)} jobs")
    failures = []
    for job, result in zip(jobs, results):
        found = check_job(job, result, golden_dir)
        if found:
            failures.append(f"{' '.join(job['argv'])}: {'; '.join(found)}")
    return failures


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workloads.jobs_for(workload, seed)
    golden_dir = ROOT / "tests" / "golden"
    start = time.monotonic()
    passes, problems = [], []
    last = 0.0
    # stop before a pass that would overrun, judged by the one before it
    while time.monotonic() - start + last <= seconds or len(passes) < MIN_PASSES[trace]:
        began = time.monotonic()
        traced = trace and len(passes) % 2 == 1
        report = run_pass(jobs, traced, paired=not trace, flip=len(passes) % 2 == 1)
        problems += check_pass(jobs, report.pop("jobs"), golden_dir)
        passes.append(report)
        last = time.monotonic() - began
    plain = [p for p in passes if p["layers"] is None]
    if trace:
        traced_passes = [p for p in passes if p["layers"] is not None]
        for span in workloads.DOMINANT[workload]:
            if any(p["span_calls"].get(span, 0) == 0 for p in traced_passes):
                raise RuntimeError(
                    f"the {workload} workload recorded no call of its dominant layer {span}; "
                    "the tracer has gone blind to it"
                )
        samples = {
            name: [p["layers"][name] for p in traced_passes] for name in traced_passes[0]["layers"]
        }
        units = {name: layer_unit(name) for name in samples}
        samples["trace.wall_s"] = [p["wall_s"] for p in traced_passes]
        samples["trace.overhead_s"] = [
            statistics.median(samples["trace.wall_s"])
            - statistics.median(p["wall_s"] for p in plain)
        ]
        units["trace.overhead_s"] = units["trace.wall_s"] = "s"
        reported = list(samples)
    else:
        units = {**E2E, **RAW}
        samples = {name: [p[name] for p in plain] for name in ("setup_s", "peak_rss_mib", *RAW)}
        for clock in ("wall", "cpu"):
            samples[f"{clock}_rel"] = [p[f"{clock}_s"] / p[f"ref_{clock}_s"] for p in plain]
        reported = list(E2E)
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    if not trace:
        for clock in ("wall", "cpu"):
            metrics[f"{clock}_rel"] = paired_ratio(
                [p[f"job_{clock}"] for p in plain], [p[f"ref_job_{clock}"] for p in plain]
            )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "attempted": len(jobs) * len(passes),
        "failed": len(problems),
        "problems": problems[:20],
        "units": units,
        "samples": samples,
        "metrics": metrics,
        "reported": reported,
    }


def print_run(run: dict) -> None:
    print(
        f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
        f"passes {run['passes']}  jobs/pass {run['jobs_per_pass']}  "
        f"python {run['python']}  nproc {run['nproc']}"
    )
    for name, vals in run["samples"].items():
        q1, _median, q3 = quartiles(vals)
        print(
            f"  {name:28s} {run['metrics'][name]:14.6f} {run['units'][name]:6s} "
            f"{len(vals)} passes, quartiles {q1:.6f} .. {q3:.6f}"
        )
    ratio = run["failed"] / run["attempted"]
    print(f"  {'fail_ratio':28s} {ratio:14.6f} ratio  {run['failed']} of {run['attempted']} jobs")
    for line in run["problems"]:
        print(f"  FAILED {line}", file=sys.stderr)


def _timeout(_signum, _frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def _terminate(_signum, _frame):
    sys.exit(143)  # unwinds through run_pass, which kills its workers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the run to this JSON-lines file")
    args = parser.parse_args(argv)

    for src in (ROOT / "src", REFERENCE):
        if not (src / "latvoa" / "__init__.py").is_file():
            print(f"no latvoa sources under {src}; run inside a checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _timeout)
    signal.signal(signal.SIGTERM, _terminate)
    signal.alarm(RUN_LIMIT_S)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ValueError, TimeoutError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print_run(run)
    if args.out:
        with args.out.open("a") as fh:
            fh.write(json.dumps(run) + "\n")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["metrics"][name], "unit": run["units"][name]}
            for name in run["reported"]
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
