"""Self-test of the benchmark's determinism record.

    python3 perfbench/check_determinism.py [workload ...]

Runs each workload (default: all four) twice with the same seed under
``--trace 1 --seconds 1`` (one operation per pass) and asserts that both
runs give the same report digest and the same exact per-layer counts, that
the traced operation reproduced the untraced report, and that the result
line names exactly the ``per_layer`` metrics of BENCHMARK.json.  Exits 1 on
any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def traced_run(workload):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "results" / f"{workload}-seed{SEED}-trace1.json").read_text())
    return result, record


def main(names) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name in names or sorted(workloads.WORKLOADS):
        (res1, rec1), (res2, rec2) = traced_run(name), traced_run(name)
        det1, det2 = rec1["determinism"], rec2["determinism"]
        if not (res1["correct"] and res2["correct"]):
            problems.append(f"{name}: a run reported correct = false")
        if det1 != det2:
            problems.append(f"{name}: determinism records differ: {det1} != {det2}")
        if not det1["traced_reports_identical"]:
            problems.append(f"{name}: traced operation changed the report")
        if set(res1["metrics"]) != per_layer:
            problems.append(f"{name}: result metrics differ from BENCHMARK.json per_layer: "
                            f"{sorted(set(res1['metrics']) ^ per_layer)}")
        print(f"{name}: report sha256 {det1['report_sha256'][:16]}..., "
              f"{len(det1['op0_counts'])} counts, "
              f"{'identical' if det1 == det2 else 'DIFFERENT'}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
