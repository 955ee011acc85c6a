"""Compare two sets of benchmark runs, such as a parent commit and a change.

Usage: python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds runs appended by `perfbench/run.py --out FILE`.  For every
workload it prints each end-to-end metric's median and quartiles over the
untraced runs of each side, the change as a share of the base median, and
whether that exceeds the metric's bound in BENCHMARK.json.  Below that it
prints the per-layer numbers of the traced runs (medians over runs) and
their differences, self times first.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import quartiles  # noqa: E402


def load(path: Path) -> dict:
    """{(workload, trace): [run, ...]} of one results file."""
    runs: dict = {}
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault((run["workload"], run["trace"]), []).append(run)
    return runs


def bounds() -> dict[str, dict]:
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {m["name"]: m for m in json.loads(spec.read_text())["end_to_end"]}


def _values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name] for r in runs if name in r["metrics"]]


def _share(base: float, change: float) -> str:
    return f"{(change - base) / base:+8.1%}" if base else "     n/a"


def compare(base: dict, change: dict) -> None:
    limits = bounds()
    workloads = sorted({w for w, _t in base} | {w for w, _t in change})
    for workload in workloads:
        print(f"== {workload}")
        b_runs, c_runs = base.get((workload, 0), []), change.get((workload, 0), [])
        print(f"   end to end: {len(b_runs)} base runs, {len(c_runs)} change runs")
        names = dict.fromkeys(n for r in b_runs + c_runs for n in r["metrics"])
        for name in names:
            bv, cv = _values(b_runs, name), _values(c_runs, name)
            if not bv or not cv:
                continue
            (b1, bm, b3), (c1, cm, c3) = quartiles(bv), quartiles(cv)
            verdict = ""
            spec = limits.get(name)
            if spec:
                worse = (cm - bm) / bm if spec["better"] == "lower" else (bm - cm) / bm
                verdict = "WORSE than bound" if worse > spec["bound"] else "within bound"
            print(
                f"   {name:14s} base {bm:11.5f} [{b1:.5f} .. {b3:.5f}]  "
                f"change {cm:11.5f} [{c1:.5f} .. {c3:.5f}]  {_share(bm, cm)}  {verdict}"
            )
        b_tr, c_tr = base.get((workload, 1), []), change.get((workload, 1), [])
        if not b_tr or not c_tr:
            print("   per layer: no traced runs on one side")
            continue
        print(f"   per layer: {len(b_tr)} base runs, {len(c_tr)} change runs (medians)")
        names = dict.fromkeys(n for r in b_tr + c_tr for n in r["metrics"])
        ordered = [n for n in names if n.endswith("_s")] + [n for n in names if not n.endswith("_s")]
        for name in ordered:
            bv, cv = _values(b_tr, name), _values(c_tr, name)
            if not bv or not cv:
                continue
            bm, cm = statistics.median(bv), statistics.median(cv)
            print(
                f"   {name:28s} {bm:14.6f} -> {cm:14.6f}  diff {cm - bm:+14.6f}  {_share(bm, cm)}"
            )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    compare(load(Path(argv[0])), load(Path(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
