"""eqcheck benchmark: one closed-loop client drives eqcheck's public entry
points on a seeded workload and prints every metric by name and unit.

    python3 bench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md for why each was chosen):
  suite          corpus/*.eq and corpus/mutations/*.eq through the CLI
  scale          generated PLE, literal-length and arithmetic-chain files
  solver_trials  random entailment queries straight into eqcheck.logic

Each run builds its inputs from the seed, checks every input once against
its known answer (untimed), then repeats whole passes over the inputs for at
least --seconds of input time and at least 100 inputs, comparing each
output byte for byte with the checked one.  Timings are scaled to a
reference host speed measured alongside them (bench/speed.py).  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it times one
untraced pass, then traced passes, and prints the per-layer metrics and
writes the spans to bench/out/.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import speed
import workloads
from tracer import LIA_SPAN, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("suite", "scale", "solver_trials")
MIN_INPUTS = 100  # so that p90 has at least 10 samples beyond it
SETUP_RUNS = 7
PROBE_EVERY_S = 0.05  # input time between two speed probes

# Per-layer time metrics: metric name -> span name (self time per pass).
LAYER_TIMES = {
    "cli.run_self_s": "cli.run",
    "cli.render_s": "cli.render",
    "parser.parse_s": "parser.parse",
    "syntax.desugar_s": "syntax.desugar",
    "types.sorts_s": "types.sorts",
    "types.refinement_wf_s": "types.refinement_wf",
    "wf.totality_s": "wf.totality",
    "wf.termination_s": "wf.termination",
    "checker.module_self_s": "checker.module",
    "checker.vcgen_s": "checker.vcgen",
    "checker.discharge_s": "checker.discharge",
    "checker.unused_hint_s": "checker.unused_hint",
    "logic.entails_s": "logic.entails",
    "logic.saturate_s": "logic.saturate",
    "logic.lia_s": "logic.lia",
}
# Per-layer counters, per pass; they must repeat exactly between passes.
LAYER_COUNTS = (
    "logic.lia_calls", "logic.entails_calls", "logic.reflect", "logic.measure",
    "logic.merges", "logic.nodes", "logic.dropped_or", "logic.fuel_exhausted",
    "checker.obligations", "checker.discharges", "wf.clause_leaves_calls",
)

_SETUP_MODULE = """\
double : x:Int -> {v:Int | v == x + x}
double x = x + x
"""
_SETUP_CHILD = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
import eqcheck.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = eqcheck.cli.run(["check", sys.argv[1]])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import speed
print(code, elapsed, speed.probe())
"""


class _Raised:
    """Output recorded for an input whose call raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return False

    __hash__ = None


def _call(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - one failed input, keep going
        return _Raised(exc)


def build(name: str, seed: int, work: Path, tiny: bool = False):
    rng = random.Random(seed)
    if name == "suite":
        return workloads.suite(ROOT, rng, tiny)
    if name == "scale":
        return workloads.scale(work, rng, tiny)
    return workloads.solver_trials(rng, tiny)


def verify(workload) -> tuple[list, list[bool], list[str]]:
    """Run every input once, untimed, and judge it against its known answer."""
    outputs = [_call(inp.call) for inp in workload.inputs]
    ok = [not isinstance(o, _Raised) and inp.judge(o)
          for inp, o in zip(workload.inputs, outputs)]
    problems = [f"{inp.name}: wrong verdict" + (f" ({o.text})" if isinstance(o, _Raised) else "")
                for inp, o, good in zip(workload.inputs, outputs, ok) if not good]
    return outputs, ok, problems + workload.check_pass(outputs)


@dataclass
class Timed:
    latencies: list[float]  # seconds as measured, one per input run
    adjusted: list[float]   # the same, scaled to the reference speed
    failed: int
    passes: int


def _passes(workload, expected, ok, seconds: float, run, before_pass=None,
            min_inputs: int = MIN_INPUTS) -> Timed:
    """Whole passes until both `seconds` of input time and `min_inputs` are
    reached.  `run(input, index)` returns the input's output.  A speed probe
    runs after every PROBE_EVERY_S of input time; each latency is scaled by
    the mean of the probes on either side of it."""
    inputs = workload.inputs
    timed = Timed([], [], 0, 0)
    clock = time.perf_counter
    last_probe = speed.probe()
    segment: list[float] = []
    measured = 0.0
    while True:
        if before_pass is not None:
            before_pass(timed.passes)
        for i, inp in enumerate(inputs):
            t0 = clock()
            out = run(inp, i)
            dt = clock() - t0
            segment.append(dt)
            measured += dt
            if not ok[i] or out != expected[i]:
                timed.failed += 1
            if sum(segment) >= PROBE_EVERY_S or i == len(inputs) - 1:
                probe = speed.probe()
                factor = speed.REF_SECONDS / ((last_probe + probe) / 2)
                timed.latencies.extend(segment)
                timed.adjusted.extend(t * factor for t in segment)
                segment.clear()
                last_probe = probe
        timed.passes += 1
        if measured >= seconds and len(timed.latencies) >= min_inputs:
            return timed


def measure_setup(work: Path) -> float:
    """Median over SETUP_RUNS fresh interpreters of importing eqcheck.cli and
    checking a one-declaration module, each scaled by a speed probe taken in
    the same interpreter right after.  One earlier run fills the bytecode
    cache."""
    path = work / "setup.eq"
    path.write_text(_SETUP_MODULE, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), EQCHECK_COLOR="never")
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(path), str(BENCH)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "0":
            raise RuntimeError(f"set-up check failed: {proc.stdout}{proc.stderr}")
        if i:
            times.append(float(fields[1]) * speed.REF_SECONDS / float(fields[2]))
    return statistics.median(times)


def _quantile(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def end_to_end(workload, expected, ok, seconds: float, work: Path,
               min_inputs: int) -> dict:
    timed = _passes(workload, expected, ok, seconds, lambda inp, i: _call(inp.call),
                    min_inputs=min_inputs)
    setup_s = measure_setup(work)
    n, failed = len(timed.latencies), timed.failed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"inputs per pass {len(workload.inputs)}, passes {timed.passes}, "
          f"samples {n}, failed {failed}, error_rate {failed / n:.4f}")
    print(f"as measured: inputs_per_s {n / sum(timed.latencies):.4f}, "
          f"verdict_s.p50 {_quantile(timed.latencies, 0.5):.6f}, "
          f"verdict_s.p90 {_quantile(timed.latencies, 0.9):.6f}; "
          f"speed factor {sum(timed.adjusted) / sum(timed.latencies):.4f}")
    metrics = {
        "inputs_per_s": (n / sum(timed.adjusted), "1/s"),
        "verdict_s.p50": (_quantile(timed.adjusted, 0.5), "s"),
        "verdict_s.p90": (_quantile(timed.adjusted, 0.9), "s"),
        "correct_share": (1 - failed / n, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}


def per_layer(workload, expected, ok, seconds: float, min_inputs: int,
              trace_path: Path, header: dict) -> dict:
    base = _passes(workload, expected, ok, 0, lambda inp, i: _call(inp.call), min_inputs=0)
    untraced_per_pass = sum(base.adjusted) / base.passes

    tracer = Tracer()
    per_pass: list[Counter] = []

    def before_pass(p: int) -> None:
        if p:
            per_pass.append(Counter(tracer.counts))
        tracer.counts.clear()
        tracer.pass_no = p

    tracer.install()
    try:
        timed = _passes(workload, expected, ok, seconds,
                        lambda inp, i: _call(lambda: tracer.root(inp.call, i)),
                        before_pass, min_inputs)
    finally:
        tracer.uninstall()
    per_pass.append(Counter(tracer.counts))

    lia_id = tracer.names.index(LIA_SPAN)
    lia_calls = Counter(s[5] for s in tracer.spans if s[0] == lia_id)
    for p, counts in enumerate(per_pass):
        counts["logic.lia_calls"] = lia_calls[p]
    repeat = all(c == per_pass[0] for c in per_pass)
    counts = per_pass[0]

    # layer times are scaled by the run's overall speed factor
    passes = timed.passes
    factor = sum(timed.adjusted) / sum(timed.latencies)
    self_s = tracer.self_times()
    total_s = tracer.total_times()
    traced_per_pass = sum(timed.adjusted) / passes
    metrics = {m: (self_s.get(span, 0.0) * factor / passes, "s")
               for m, span in LAYER_TIMES.items()}
    metrics.update({m: (counts[m], "count") for m in LAYER_COUNTS})
    discharges = counts["checker.discharges"]
    metrics["checker.useful_discharge_ratio"] = (
        counts["checker.obligations"] / discharges if discharges else 0.0, "ratio")
    metrics["checker.unused_hint_total_s"] = (
        total_s.get("checker.unused_hint", 0.0) * factor / passes, "s")
    metrics["logic.lia_share"] = (self_s.get(LIA_SPAN, 0.0) / sum(timed.latencies), "ratio")
    metrics["trace.overhead"] = (traced_per_pass / untraced_per_pass, "ratio")

    print(f"untraced pass {untraced_per_pass:.4f} s, traced pass {traced_per_pass:.4f} s, "
          f"passes {passes}, samples {len(timed.latencies)}, counters repeat: {repeat}")
    _print_split(tracer, workload)
    OUT.mkdir(exist_ok=True)
    tracer.write(trace_path, {**header, "passes": passes,
                              "inputs": [inp.name for inp in workload.inputs]})
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    return {"correct": timed.failed == 0 and repeat, "attempted": len(timed.latencies),
            "failed": timed.failed, "metrics": metrics}


def _print_split(tracer, workload) -> None:
    """Self-time share of each span name, for the whole run and per input
    family."""
    families: dict[str, set[int]] = {}
    for i, inp in enumerate(workload.inputs):
        families.setdefault(inp.family, set()).add(i)
    rows = [("all", tracer.self_times())]
    if len(families) > 1:
        rows += [(f, tracer.self_times(ids)) for f, ids in sorted(families.items())]
    for label, self_s in rows:
        total = sum(self_s.values())
        top = sorted(self_s.items(), key=lambda kv: -kv[1])
        parts = ", ".join(f"{name} {t / total:.0%}" for name, t in top if t / total >= 0.01)
        print(f"split [{label}] {total:.3f} s: {parts}")


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        adjust=None) -> dict:
    """One benchmark run; returns the result object.  `tiny` shrinks the
    inputs and drops the sample minimum, for the self-test; `adjust` may edit
    the built workload (the self-test plants a wrong known answer with it)."""
    min_inputs = 1 if tiny else MIN_INPUTS
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = build(name, seed, work, tiny)
        if adjust is not None:
            adjust(workload)
        expected, ok, problems = verify(workload)
        for problem in problems:
            print(f"known-answer gate: {problem}")
        if trace:
            header = {"workload": name, "seed": seed}
            result = per_layer(workload, expected, ok, seconds, min_inputs,
                               OUT / f"trace-{name}-seed{seed}.jsonl.gz", header)
        else:
            result = end_to_end(workload, expected, ok, seconds, work, min_inputs)
        result["correct"] = result["correct"] and not problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    return result


def _load_program() -> bool:
    if not (SRC / "eqcheck" / "__init__.py").is_file():
        print(f"bench: no eqcheck sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["EQCHECK_COLOR"] = "never"
    import eqcheck
    if Path(eqcheck.__file__).resolve().parent != SRC / "eqcheck":
        print(f"bench: imported eqcheck from {eqcheck.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _load_program():
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
