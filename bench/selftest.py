"""Self-test of the benchmark, on tiny inputs.

    python3 bench/selftest.py

Checks that every workload, untraced and traced, prints exactly the metrics
BENCHMARK.json names, each with its unit; that per-layer counters repeat
between two traced runs of one seed; that the known-answer gate fails when a
mutation file is declared expected-proved; and that the benchmark exits
non-zero, printing no result, when the program's sources are absent.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def _metric_problems(result: dict, spec: list[dict], label: str) -> list[str]:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if set(got) != set(want):
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                        "not both named in BENCHMARK.json and printed")
    problems += [f"{label}: {name} unit {got[name]!r}, expected {unit!r}"
                 for name, unit in want.items() if name in got and got[name] != unit]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: not a correct run: {json.dumps(result)[:300]}")
    return problems


def _plant_wrong_answer(workload) -> None:
    inp = next(i for i in workload.inputs if i.family == "mutation")
    inp.judge = workloads.expect_judge(())


def _isolated_run_problems() -> list[str]:
    """Copy only BENCHMARK.json and bench/ into an empty directory and run."""
    where = run.OUT / "isolated"
    shutil.rmtree(where, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, where / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", where)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=where, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    if not run._load_program():
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        problems += _metric_problems(run.run(name, 1, 0, False, tiny=True),
                                     spec["end_to_end"], f"{name} untraced")
        first = run.run(name, 1, 0, True, tiny=True)
        problems += _metric_problems(first, spec["per_layer"], f"{name} traced")
        second = run.run(name, 1, 0, True, tiny=True)
        for metric, m in first["metrics"].items():
            if m["unit"] == "count" and m["value"] != second["metrics"][metric]["value"]:
                problems.append(f"{name}: {metric} differs between traced runs")

    planted = run.run("suite", 1, 0, False, tiny=True, adjust=_plant_wrong_answer)
    if planted["correct"] or planted["failed"] == 0:
        problems.append("gate accepted a mutation file declared expected-proved")
    problems += _isolated_run_problems()

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
