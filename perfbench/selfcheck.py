"""Fast self-check of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It makes one run of each workload at ``--seconds 1``, untraced (still at
least 100 requests, so under two minutes in all) and traced, and checks
that each prints a last line with exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, and exactly the metrics that BENCHMARK.json
names, with their units.  Then it copies BENCHMARK.json and the benchmark
into a bare directory and checks that the benchmark refuses to run there.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            try:
                last = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no JSON last line; stderr: {proc.stderr[-500:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in last.get("metrics", {}).items()}
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(last)}")
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want)) or 'units'}")
            if not all(isinstance(m.get("value"), (int, float)) for m in last["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if proc.returncode != 0 or last.get("correct") is not True or last.get("failed"):
                problems.append(f"{where}: exit {proc.returncode}, {last.get('failed')} failed; "
                                f"stderr: {proc.stderr[-500:]}")
            print(f"{where}: {last.get('attempted')} requests, exit {proc.returncode}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    print(f"bare directory: exit {proc.returncode}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
