"""Recompute the pinned answers in expected.json.

    PYTHONPATH=src python3 perfbench/pin.py

Runs the sampler job list for seeds 0-19 and the verify job once, and
writes the sampler success counts (in job order) and the number of
verify records.  The pins are what the program gives at the commit they
were taken from; the output gate then holds later commits to them.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from worker import run_job  # noqa: E402


PINNED_SEEDS = range(20)


def main() -> int:
    expected = workloads.load_expected()
    verify_job = workloads.verify_job(random.Random(0))
    expected["verify_records"] = len(json.loads(run_job(verify_job).stdout))
    pins = expected.setdefault("sampler_successes", {})
    for seed in PINNED_SEEDS:
        counts = []
        for job in workloads.sample_jobs(random.Random(seed)):
            res = run_job(job)
            counts.append(workloads.sample_successes(res.stdout))
        pins[str(seed)] = counts
        print(seed, counts, flush=True)
    rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(pins[seed])}"
                      for seed in sorted(pins, key=int))
    workloads.EXPECTED_PATH.write_text(
        f'{{\n "verify_records": {expected["verify_records"]},\n'
        f' "sampler_successes": {{\n{rows}\n }}\n}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
