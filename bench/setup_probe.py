"""Set-up time of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py <workload>

Times importing the package's entry-point module, parsing the workload's
configs and building their fields, and prints one JSON line with the raw
seconds and the calibration scale from reference loops run just before and
just after.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import REF_NOMINAL_S, WORKLOADS, instance_config, reference_time  # noqa: E402

w = WORKLOADS[sys.argv[1]]
configs = [instance_config(w, 0, i) for i in range(len(w.variants))]
ref_before = reference_time()
start = time.perf_counter()
import ffdioph.runner  # noqa: E402,F401
from ffdioph.config import ExperimentConfig  # noqa: E402

for raw in configs:
    ExperimentConfig.from_dict(raw).fq()
elapsed = time.perf_counter() - start
ref_after = reference_time()
print(json.dumps({"raw_s": elapsed, "scale": 2 * REF_NOMINAL_S / (ref_before + ref_after)}))
