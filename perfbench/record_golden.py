"""Record stdout digests of every job of the default seeds into golden.json.

Run from the root of a checkout of the commit whose output is the
reference (the seed commit):

    python3 perfbench/record_golden.py

Each job must pass the structural gate before its digest is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, Runner
import gate
import workloads


def main() -> int:
    runner = Runner(Path.cwd(), golden=None)
    digests = {}
    try:
        for seed in workloads.DEFAULT_SEEDS:
            for name in workloads.WORKLOADS:
                for job in workloads.jobs_for(name, seed):
                    digest = runner.catalog(job.catalog) if job.catalog is not None else None
                    key = job.key(digest)
                    if key in digests:
                        continue
                    result = runner.run_job(job, traced=False)
                    if result.failure is not None:
                        print(f"error: {key}: {result.failure}", file=sys.stderr)
                        return 1
                    digests[key] = gate.digest(result.run.stdout)
    finally:
        runner.close()
    doc = {"seeds": list(workloads.DEFAULT_SEEDS), "digests": digests}
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
