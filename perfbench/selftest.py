"""Self-test of the benchmark: a tiny run of every workload in both modes.

    python3 perfbench/selftest.py

Checks that each run passes its output checks and prints exactly the
metrics BENCHMARK.json names, each with its unit; that end-to-end values
are positive; that per-layer self times add up to no more than the traced
wall time; that the traced runs confirm each workload's bypass; and that
the benchmark fails without a result when the package sources are absent.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from run import WORKLOADS  # noqa: E402

BYPASS = {
    "trap_jitter": ("field.pressure_at_points.calls",),
    "trap_sensor_noise": ("field.pressure_at_points.calls",),
    "field_design": ("vision.render_frame.calls", "vision.extract_feature.calls"),
}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    require(done.returncode == 0, f"{where} exited {done.returncode}:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    require(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{where}: keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0, f"{where}: {result['failed']} failed")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")

    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    require([m["name"] for m in wanted] == list(got), f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        entry = got[m["name"]]
        require(entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']} != {m['unit']}")
        require(isinstance(entry["value"], (int, float)), f"{where}: {m['name']} is not a number")
        if not trace:
            require(entry["value"] > 0, f"{where}: {m['name']} is {entry['value']}")

    if trace:
        for key in BYPASS[workload]:
            require(got[key]["value"] == 0, f"{where}: {key} = {got[key]['value']}")
        record = json.loads(next(line for line in done.stdout.splitlines() if line.startswith("record "))[7:])
        doc = json.loads((ROOT / record["spans_file"]).read_text())
        _, self_time, _ = tracing.span_stats(doc["spans"], doc["passes"])
        traced_wall = sum(b - a for a, b in doc["passes"])
        require(sum(self_time.values()) <= traced_wall, f"{where}: self times exceed the traced wall")
    print(f"ok  {where}: attempted {result['attempted']}")


def check_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = run(bare, "--workload", "trap_jitter", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    require(done.returncode != 0, "run without sources exited 0")
    require('"correct"' not in done.stdout, "run without sources printed a result")
    print(f"ok  without sources: exit {done.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads differ from BENCHMARK.json")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
