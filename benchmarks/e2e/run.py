"""End-to-end wall-clock benchmark of the repro library.

Four workloads (see README.md), each run in a fresh interpreter with
``src`` on ``PYTHONPATH`` and BLAS pinned to one thread::

    python3 benchmarks/e2e/run.py                                  # all four, seed 0
    python3 benchmarks/e2e/run.py --workload lib-potrf --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --repeat 5 --out runs.json       # seeds 0..4
    python3 benchmarks/e2e/run.py compare A.json B.json

Every metric is printed with its unit; the last stdout line is one JSON
record ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its
per-layer metrics.  The exit code is 1 when an answer was wrong, 2 when
the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A run that produced no record."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, *,
              setup_only: bool = False, trace_out: Path | None = None) -> dict:
    """Start ``workloads.py`` in a fresh interpreter; returns its record."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload, as the record ``--out`` stores."""
    if trace:
        child = run_child(workload, seed, seconds, 1,
                          trace_out=ROOT / ".e2e" / f"trace-{workload}-{seed}.json.gz")
        values, setups = child["per_layer"], []
        names = spec["per_layer"]
    else:
        setups = [
            run_child(workload, seed, seconds, 0, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        child = run_child(workload, seed, seconds, 0)
        setups.append(child["setup_s"])
        values = dict(child["e2e"], setup_s=statistics.median(setups),
                      peak_rss_mb=child["peak_rss_mb"])
        names = spec["end_to_end"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
        "detail": child["detail"],
        "samples": child.get("samples", {}),
        "setup_samples_s": setups,
        "host_probe_ms": child["host_probe_ms"],
        "peak_rss_mb": child["peak_rss_mb"],
        "errors": child["errors"],
    }


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  "
          f"trace={rec['trace']}  correct={rec['correct']}  "
          f"attempted={rec['attempted']}  failed={rec['failed']}")
    for name, metric in rec["metrics"].items():
        print(f"   {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    for name, (value, unit) in rec["detail"].items():
        shown = f"{value:>14.6g}" if isinstance(value, (int, float)) else f" {value}"
        print(f"   {name:<32} {shown} {unit}")
    start, end = rec["host_probe_ms"]
    print(f"   {'host_probe_ms (start, end)':<32} {start:>14.4g} {end:.4g} ms  (reported only)")
    for error in rec["errors"]:
        print(f"   ERROR {error}")


def summary_line(records: list[dict]) -> dict:
    """The last stdout line: one run's record, or medians over several."""
    head = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if len(records) == 1:
        return head | {"metrics": records[0]["metrics"]}
    grouped: dict[str, list] = {}
    for r in records:
        for name, metric in r["metrics"].items():
            grouped.setdefault(f"{r['workload']}.{name}", []).append(metric)
    return head | {"metrics": {
        key: {"value": statistics.median(m["value"] for m in ms), "unit": ms[0]["unit"]}
        for key, ms in grouped.items()
    }}


def main_compare(argv) -> int:
    from compare import compare, format_rows

    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description="Verdicts of run set B against base A.")
    parser.add_argument("base", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    runs = [json.loads(p.read_text())["runs"] for p in (args.base, args.candidate)]
    rows, failing = compare(*runs, load_spec()["end_to_end"])
    print(format_rows(rows))
    print("verdict: " + ("FAIL" if failing else "ok"))
    return 1 if failing else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds seed..seed+N-1, alternating the workload order")
    parser.add_argument("--out", type=Path, help="write every run's record here (JSON)")
    args = parser.parse_args(argv)

    workloads = names if args.workload == "all" else [args.workload]
    records = []
    try:
        for i in range(args.repeat):
            for workload in workloads if i % 2 == 0 else workloads[::-1]:
                rec = run_one(spec, workload, args.seed + i, args.seconds, args.trace)
                print_record(rec)
                records.append(rec)
                if args.out is not None:
                    args.out.write_text(json.dumps({"runs": records}, indent=1) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = summary_line(records)
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
