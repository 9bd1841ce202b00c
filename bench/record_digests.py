"""Rewrite bench/digests.json: SHA-256 of the report bytes of the first
instances of every workload at the default seed.

    python3 bench/record_digests.py

Run it only in a change that means to alter report bytes; the benchmark
counts any other difference as a wrong output.
"""

import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, instance_config

RECORDED_INSTANCES = 4

if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for name, w in WORKLOADS.items():
        digests[name] = []
        for index in range(RECORDED_INSTANCES):
            data, failure = run.call_instance(instance_config(w, DEFAULT_SEED, index))
            if failure:
                sys.exit(f"{name} instance {index}: {failure}")
            digests[name].append(run._digest(data))
    with open(run.BENCH_DIR / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
