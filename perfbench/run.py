"""Run one workload of the mcp_iso benchmark and print its metrics.

    python3 perfbench/run.py --workload certify-2c --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; mcp_iso is imported from ./src.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced phase and the tracing overhead.  --short runs a few operations of
every workload, untraced and traced, with every output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("certify-2c", "search-1c", "profile-sweep", "density-check")
SETUP_PROBES = 5


def _use_source_tree() -> None:
    if not (SRC / "mcp_iso" / "__init__.py").is_file():
        sys.exit(f"error: no mcp_iso package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def setup_probe(workload: str, seed: int) -> None:
    """One set-up in a fresh interpreter: import mcp_iso and build the inputs."""
    t0 = time.perf_counter()
    import mcp_iso  # noqa: F401
    import workloads

    workloads.build(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over SETUP_PROBES fresh processes, uncalibrated:
    a reference pass right after an import tracks the import's speed
    poorly (log-log slope 0.24 over 16 probes), and scaling by it widened
    the spread instead of narrowing it."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all
    order statistics.  A round holds operations of different cost, so the
    plain sample median jumps between neighbouring operations from run to
    run; this estimate of the same quantity moves far less."""
    from scipy.stats.mstats import hdquantiles

    if not values:
        return float("nan")
    return float(hdquantiles(values, prob=[0.5])[0])


class Phase:
    """Whole rounds of operations, timed one by one, with reference samples."""

    def __init__(self, tracer=None):
        import calibrate

        self.calibrator = calibrate.Calibrator()
        self.tracer = tracer
        self.records: list[dict] = []  # one per operation attempted
        self.first_outputs: list = []
        self.mismatches: list[str] = []

    def run(self, cases, seconds: float, run_case) -> None:
        """Rounds of all cases until `seconds` have passed, at least one."""
        self.calibrator.sample()
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            for k, case in enumerate(cases):
                if self.tracer is not None:
                    self.tracer.current_op = len(self.records)
                error = None
                t0 = time.perf_counter()
                try:
                    output = run_case(case)
                except Exception as exc:  # a failed operation is counted, not fatal
                    output, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                self.records.append({"t0": t0, "t1": t1, "error": error, "label": case.label})
                if rounds == 0:
                    self.first_outputs.append(output)
                elif output != self.first_outputs[k]:
                    self.mismatches.append(f"{case.label}: round {rounds} differs from round 0")
                self.calibrator.maybe_sample()
            rounds += 1
        self.calibrator.sample()
        self.rounds = rounds

    def timings(self, calibrated: bool = True) -> tuple[list[float], float]:
        """Durations of the successful operations, and the total of all."""
        ok, total = [], 0.0
        for r in self.records:
            d = r["t1"] - r["t0"]
            if calibrated:
                d *= self.calibrator.scale(r["t0"], r["t1"])
            total += d
            if r["error"] is None:
                ok.append(d)
        return ok, total

    def failed(self) -> int:
        return sum(r["error"] is not None for r in self.records)

    def p50(self) -> float:
        return median(self.timings()[0])


def end_to_end(phase: Phase, setup_s: float, peak_rss_mib: float) -> tuple[dict, dict]:
    """The four end-to-end metrics, with operation times calibrated and raw."""
    out = {}
    for calibrated in (True, False):
        ok, total = phase.timings(calibrated)
        out[calibrated] = {
            "ops_per_s": {"value": len(ok) / total, "unit": "1/s"},
            "op_p50_s": {"value": median(ok), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    return out[True], out[False]


def check_outputs(workload: str, cases, phase: Phase) -> list[str]:
    import oracles

    done = [(c, out) for c, out in zip(cases, phase.first_outputs) if out is not None]
    return phase.mismatches + oracles.CHECKS[workload]([c for c, _ in done], [o for _, o in done])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, short: bool = False) -> dict:
    import resource

    import spans
    import workloads

    setup_s = measure_setup(workload, seed) if not short else float("nan")
    from mcp_iso import search

    cases = workloads.build(workload, seed)
    if short:
        cases = _short_subset(cases)
    capture = workloads.OutcomeCapture(search.brute_force_profile)
    search.brute_force_profile = capture

    def run_case(case):
        return workloads.run_case(case, capture)

    untraced = Phase()
    untraced.run(cases, 0.0 if short else (seconds / 3.0 if trace else seconds), run_case)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_outputs(workload, cases, untraced)
    failed, attempted = untraced.failed(), len(untraced.records)
    e2e, raw = end_to_end(untraced, setup_s, peak_rss_mib)
    summary = {
        "workload": workload, "seed": seed, "rounds": untraced.rounds,
        "ops_per_round": len(cases), "raw": {k: v["value"] for k, v in raw.items()},
        "reference_s": statistics.median(untraced.calibrator.refs),
        "errors": sorted({r["error"] for r in untraced.records if r["error"]}),
    }
    metrics = e2e
    if trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
        traced_cases = [workloads.retrace(c, lambda h: spans.traced_density(tracer, h)) for c in cases]
        traced = Phase(tracer)
        traced.run(traced_cases, 0.0 if short else 2.0 * seconds / 3.0, run_case)
        tracer.current_op = -1
        metrics, unequal = layer_metrics(tracer, len(traced.records), len(cases))
        problems += unequal
        if traced.first_outputs != untraced.first_outputs:
            problems.append("traced outputs differ from untraced outputs")
        problems += traced.mismatches
        failed, attempted = traced.failed(), len(traced.records)
        overhead = traced.p50() - untraced.p50()
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": overhead / untraced.p50(), "unit": "1"}
        OUT.mkdir(exist_ok=True)
        tracer.save(str(OUT / f"trace-{workload}-seed{seed}.npz"))
        summary["traced_rounds"] = traced.rounds
        summary["spans"] = len(tracer.start)
    summary["problems"] = problems[:20]
    return {
        "summary": summary,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def layer_metrics(tracer, n_ops: int, round_len: int) -> tuple[dict, list[str]]:
    """Per-operation layer metrics: times averaged over every traced
    operation, counts over the first round, which every later round must
    repeat exactly."""
    import spans

    metrics, problems = {}, []
    for name, values in tracer.per_op(n_ops).items():
        unit = spans.LAYER_METRICS[name][2]
        if unit == "s":
            value = float(values.mean())
        else:
            rounds = values.reshape(-1, round_len)
            value = float(rounds[0].mean())
            if unit == "count" and not (rounds == rounds[0]).all():
                problems.append(f"{name}: counts differ between traced rounds")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def _short_subset(cases):
    """A few cases of a round, keeping the designed volume and N = 30."""
    keep = [c for c in cases if getattr(c, "designed", False) or "N30" in c.label]
    rest = [c for c in cases if all(c is not k for k in keep)]
    return keep + rest[: max(1, 3 - len(keep))]


def _print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="a few operations of every workload, all checks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_source_tree()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.short and args.workload is None:
        # One fresh process per workload, as in a real run.
        codes = [
            subprocess.run([sys.executable, __file__, "--short", "--workload", w,
                            "--seed", str(args.seed)], timeout=600).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    if args.short:
        out = run_workload(args.workload, args.seed, 0.0, trace=True, short=True)
        res = out["result"]
        status = "PASS" if res["correct"] else "FAIL"
        print(f"[{status}] {args.workload}: {res['attempted']} ops, {res['failed']} failed "
              f"{out['summary']['problems']}")
        return 0 if res["correct"] else 1
    if args.workload is None:
        parser.error("--workload is required")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["summary"]))
    if args.trace:
        _print_table(out["result"]["metrics"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
