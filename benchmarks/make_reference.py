"""Write reference.json: one pass of every workload at the default seed, reduced to
the values checks.py compares.

    python3 benchmarks/make_reference.py

Run it only when a change is meant to alter the results, and say why in the
change; the reference is what makes a faster program also a correct one.
"""

from __future__ import annotations

import json
import shutil

from run import BENCH_DIR, WORK_DIR, run_worker
from checks import reference_entry
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        workdir = WORK_DIR / "work" / f"reference-{workload.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            child = run_worker(workload, DEFAULT_SEED, 0.0, False, workdir)
            first = child["passes"][0]
            if first["rc"] != 0:
                raise SystemExit(f"{workload.name}: dicke-qfi exited with {first['rc']}")
            reference[workload.name] = reference_entry(workdir / first["output"], workload)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    # one row per line, so that a diff of the reference reads point by point
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as handle:
        handle.write("{\n")
        for i, (name, entry) in enumerate(reference.items()):
            handle.write(f'"{name}": {{"columns": {json.dumps(entry["columns"])}, "rows": [\n')
            handle.write(",\n".join(json.dumps(row) for row in entry["rows"]))
            handle.write("]}" + (",\n" if i < len(reference) - 1 else "\n"))
        handle.write("}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
