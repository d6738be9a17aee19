"""Record the reference values that the correctness gate compares against.

Run from the root of a checkout whose outputs are trusted:

    python3 bench/record_references.py

It runs every operation of the shipped seeds once, untimed,
checks it against the properties any input must satisfy, and rewrites
bench/references.json.  Values keep 12 significant digits, well inside the
1e-9 tolerance of the comparison.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import infoquad.cli  # noqa: E402
from worker import call_cli  # noqa: E402
from workloads import REFERENCE_FILE, WORKLOADS, build_ops, observe  # noqa: E402

SEEDS = range(3)


def _round(record):
    return [float(f"{v:.12g}") if isinstance(v, float) else v for v in record]


def main() -> int:
    work = HERE.parent / ".bench_work" / "references"
    table: dict = {}
    try:
        for workload in WORKLOADS.values():
            for seed in SEEDS:
                records, earlier = [], {}
                for op in build_ops(workload, seed, work):
                    seen = earlier.setdefault(op.map_index, {})
                    code, stdout = call_cli(infoquad.cli.main, op.argv)
                    record, err = observe(op, code, stdout, seen)
                    if err is not None:
                        raise SystemExit(f"{workload.name} seed {seed}: {err}")
                    seen[op.kind] = record
                    records.append(None if record is None else _round(record))
                table.setdefault(workload.name, {})[str(seed)] = records
                print(f"recorded {workload.name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
