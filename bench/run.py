"""infoquad benchmark: drives ``infoquad.cli.main`` on seeded maps.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli-uniform64 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

With ``--trace 0`` a run starts SETUP_RUNS fresh interpreters one after
another that only set up, then one that also measures: it runs timed passes
over the run's seeded operation list for the rest of ``--seconds``, at least
MIN_PASSES whole ones, the last one stopping where the time ends.  The
latency metrics take each operation's median time over the passes.

With ``--trace 1`` one interpreter alternates untraced and traced passes and
reports per-layer metrics, then runs the scaling probe.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any output fails
its check or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 4       # fresh interpreters per untraced run that only set up
MIN_PASSES = 2       # timed passes of the measuring interpreter, at the least
RUN_LIMIT_S = 170    # every worker is killed after this much run time
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {          # name: unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "fail_frac": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def context(seed: int) -> dict:
    """Facts recorded beside every result; informational, never gated."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its measurements."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in THREAD_PINS})
    cfg["launched_at"] = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(cfg["result"]).read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    base = {"root": str(ROOT), "workload": name, "seed": seed, "trace": trace,
            "smoke": smoke, "spans": str(out_dir / f"{tag}.spans.json")}
    try:
        setups = [spawn(dict(base, setup_only=True, workdir=str(work / f"setup{i}"),
                             result=str(work / f"setup{i}.json")), deadline)
                  for i in range(0 if trace else 1 if smoke else SETUP_RUNS)]
        # the measuring interpreter's own set-up is not part of --seconds
        budget = seconds - (time.monotonic() - started)
        main = spawn(dict(base, setup_only=False, workdir=str(work / "main"),
                          result=str(work / "main.json"), budget_s=budget,
                          min_passes=1 if smoke or trace else MIN_PASSES), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes, traced = main["passes"], main["traced"]
    every = passes + traced + [r["warmup"] for r in (*setups, main)]
    attempted = sum(len(p["latencies_ms"]) for p in every)
    failed = sum(p["failed"] for p in every)
    # each operation's median latency over the passes, which are spread over
    # the whole run and take the CPUs in turn; the last pass may stop part of
    # the way through the list
    samples = [[] for _ in passes[0]["latencies_ms"]]
    for p in passes:
        for pos, ms in enumerate(p["latencies_ms"]):
            samples[pos].append(ms)
    typical = [statistics.median(times) for times in samples]
    if trace:
        metrics = layer_metrics(passes, traced, main["probe"])
    else:
        metrics = {
            "ops_per_s": len(typical) / (sum(typical) / 1e3),
            "op_p50_ms": statistics.median(typical),
            "op_p90_ms": statistics.quantiles(typical, n=10, method="inclusive")[8],
            "fail_frac": failed / attempted,
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(r["setup_s"] for r in (*setups, main)),
        }
    report = {
        "workload": name, "trace": trace, "seconds": seconds, "context": context(seed),
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "errors": [e for p in every for e in p["errors"]][:20],
        "p90_samples": len(typical), "passes": len(passes),
        "missing_wrap_targets": sorted({m for p in traced for m in p["missing"]}),
        "setups": setups, "main": main,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1))
    return report


def layer_metrics(passes, traced, probe) -> dict:
    """Medians over traced passes of each per-layer metric, plus the overhead."""
    names = traced[0]["layer"]
    out = {k: statistics.median(p["layer"][k] for p in traced) for k in names}
    met = [m for p in traced for m in p["relax_met"]]
    out["relaxation.floor_met_frac"] = sum(met) / len(met) if met else 0.0
    plain = sum(sum(p["latencies_ms"]) for p in passes)
    out["trace.overhead_frac"] = sum(sum(p["latencies_ms"]) for p in traced) / plain - 1.0
    out.update(probe)
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("per_point"):
        return "ratio"
    return "count"


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (trace {int(report['trace'])}) "
          f"context {json.dumps(report['context'], sort_keys=True)}")
    for name, value in report["metrics"].items():
        extra = ""
        if name == "op_p90_ms":
            extra = (f"  (samples: {report['p90_samples']} operations, each its "
                     f"median over {report['passes']} passes)")
        print(f"  {name:<56} {value:>14.6g} {unit_of(name)}{extra}")
    for name in report["missing_wrap_targets"]:
        print(f"  missing wrap target: {name}")
    for err in report["errors"]:
        print(f"  FAILED {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, one pass: checks the harness, not speed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "infoquad" / "__init__.py").is_file():
        print(f"error: no infoquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke)
               for n in names]
    for report in reports:
        print_report(report)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in reports[0]["metrics"].items() if k != "fail_frac"}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": unit_of(k)}
                   for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
