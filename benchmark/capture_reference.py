"""Write reference.json: fast-mode bounds on the fixed reference inputs.

    python3 benchmark/capture_reference.py

Run it only at a commit whose bounds are trusted; every benchmark run
compares against the file (run.check_reference).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import run


def main() -> int:
    problem = run.load_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    out = {"commit": run._git_commit(), "reference_seed": run.REFERENCE_SEED, "rtol": run.REFERENCE_RTOL, "workloads": {}}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, run.OUT_DIR / f"work-{os.getpid()}")
        try:
            items = workload.build(run.REFERENCE_SEED, size=run.REFERENCE_SIZE, tag="ref")
            out["workloads"][name] = [workload.reference_values(item) for item in items]
        finally:
            workload.close()
    Path(run.REFERENCE_FILE).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
