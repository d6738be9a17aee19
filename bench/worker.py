"""One fresh interpreter's share of a benchmark run.

Started by run.py with a JSON configuration as its only argument.  It imports
the program from the checkout's ``src/``, writes the run's maps and runs the
warm-up operations.  A set-up interpreter stops there.  The measuring
interpreter then runs timed passes over the run's fixed operation list, each
pass on the next CPU, until its time budget is spent, checking every output;
the last pass may stop part of the way through the list.
With tracing on, it alternates untraced and traced passes and finishes with
the scaling probe.  It writes its measurements to the result path named in
the configuration.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads
from probe import probe

# the CPUs this process may use, read once before it pins itself to one
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def call_cli(main, argv) -> tuple[object, str]:
    """Run the CLI in-process; returns (exit code or error text, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a dead run
            code = traceback.format_exc()
    return code, out.getvalue()


def run_pass(ops, refs, main, tracer=None, until=None) -> dict:
    """Time every operation of the list once and check its outputs.  With
    `until`, a time.monotonic() value, no operation starts after it, so the
    pass may cover only the head of the list."""
    latencies, errors, met = [], [], []
    earlier: dict[int, dict] = {}
    for pos, op in enumerate(ops):
        if until is not None and time.monotonic() >= until:
            break
        t0 = time.perf_counter()
        if tracer is None:
            code, stdout = call_cli(main, op.argv)
        else:
            code, stdout = tracer.op(pos, op.argv[0], lambda: call_cli(main, op.argv))
        latencies.append((time.perf_counter() - t0) * 1e3)
        seen = earlier.setdefault(op.map_index, {})
        try:
            record, err = workloads.observe(op, code, stdout, seen)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            record, err = None, f"unreadable output: {exc}"
        if err is None and record is not None and refs is not None:
            err = workloads.compare(record, refs[pos])
        if err is None:
            seen[op.kind] = record
            if op.kind == "relax":
                met.append("met_constraint: true" in stdout)
        else:
            errors.append(f"op {pos} ({op.kind}, map {op.map_index}): {err}")
    return {"latencies_ms": latencies, "failed": len(errors), "errors": errors,
            "relax_met": met}


def pin_to_cpu(index: int) -> None:
    """Pin this process to one CPU, taking the CPUs in turn by index.

    On a shared VM one vCPU can run 20-40% slower than another for tens of
    seconds.  Moving each pass to the next CPU gives every operation a sample
    on every CPU, so its median time does not depend on where the scheduler
    happened to place the run.
    """
    if not CPUS:
        return   # no affinity control here: run unpinned
    try:
        os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})
    except OSError:
        pass


def main() -> int:
    cfg = json.loads(sys.argv[1])
    root = Path(cfg["root"])
    sys.path.insert(0, str(root / "src"))
    import infoquad
    import infoquad.cli

    src = (root / "src").resolve()
    if src not in Path(infoquad.__file__).resolve().parents:
        print(f"infoquad imported from {infoquad.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[cfg["workload"]]
    workdir = Path(cfg["workdir"])
    ops = workloads.build_ops(workload, cfg["seed"], workdir,
                              workloads.SMOKE_MAPS if cfg["smoke"] else None)
    refs = workloads.references(workload, cfg["seed"])
    warm = run_pass(workloads.warmup_ops(workload, workdir), None, infoquad.cli.main)
    setup_s = time.monotonic() - cfg["launched_at"]

    result = {"setup_s": setup_s, "warmup": warm, "passes": [], "traced": []}
    if cfg["setup_only"]:
        Path(cfg["result"]).write_text(json.dumps(result))
        return 0
    start = time.monotonic()
    end = start + cfg["budget_s"]
    tracer = None
    while True:
        rounds = len(result["passes"])
        pin_to_cpu(rounds)
        # once min_passes whole passes are in, an untraced pass stops where the
        # budget ends, so a run spends its budget whatever the host's speed
        until = end if rounds >= cfg["min_passes"] and not cfg["trace"] else None
        result["passes"].append(run_pass(ops, refs, infoquad.cli.main, until=until))
        if cfg["trace"]:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(ops, refs, infoquad.cli.main, tracer)
            finally:
                tracer.uninstall()
            traced["layer"] = tracer.layer_metrics()
            traced["missing"] = tracer.missing
            result["traced"].append(traced)
        rounds += 1
        now = time.monotonic()
        # a traced run stops before a pass pair that would overrun the budget
        if rounds >= cfg["min_passes"] and (
                now >= end or cfg["trace"] and now + (now - start) / rounds > end):
            break
    if tracer is not None:
        tracer.dump(cfg["spans"])
        result["probe"] = probe(infoquad, workdir / "probe", cfg["seed"], cfg["smoke"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
