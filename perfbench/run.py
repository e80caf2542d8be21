"""margin-gate benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is imported from
``src/``. NAME is ``quickstart``, ``screen-batch`` or ``crossover-rich``
(see README.md next to this file). With ``--trace 0`` the run is untimed
set-up, then a closed loop of timed ops for S seconds, then set-up timed
again in fresh processes; the last stdout line is a JSON object with the
end-to-end metrics. With ``--trace 1`` every other pair of ops is traced
and the metrics are the per-layer ones. ``all`` runs the three workloads
untraced, one after another, and prints a table. A full record of each
run, with the SHA-256 of every report, goes to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_PROBES = 5
# op_tail_s is the highest of these percentiles with >= TAIL_BEYOND samples above it
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 60.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "throughput_ops_s": "ops/s",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) by nearest rank on the ladder."""
    xs = sorted(times)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, xs[rank - 1], n - rank
    raise AssertionError("unreachable")


def probe_setup(args) -> float:
    """Seconds from spawning a fresh workload process to its first timed op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return ready - start


def cpu_seconds() -> float:
    """CPU time of this process plus that of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure(args, work: Path) -> dict:
    from spans import COUNT_METRICS, Tracer, median_layers, op_layers
    from workloads import WORKLOADS, digest

    wl = WORKLOADS[args.workload](args.seed, work)
    wl.setup()
    tracer = Tracer() if args.trace else None

    # per op: wall time, and CPU time of this process plus waited-for children
    wall: dict[str, list[float]] = {"untraced": [], "traced": []}
    cpu: dict[str, list[float]] = {"untraced": [], "traced": []}
    attempted = 0
    failures: list[dict] = []
    codes: Counter = Counter()
    verdicts: Counter = Counter()
    reports: list[list] = []
    inputs: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        inp = wl.prepare(i)
        # with tracing, ops 0,1 are traced, 2,3 not, and so on
        traced = tracer is not None and (i // 2) % 2 == 0
        root = -1
        if traced and wl.in_process:
            tracer.install()
        if traced:
            root = tracer.begin_op(i)
        attempted += 1
        out = None
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            out = wl.run(inp, i if traced else None)
        except Exception as exc:  # any raise is a failed op; keep measuring
            failures.append({"op": i, "error": repr(exc),
                             "traceback": traceback.format_exc(limit=4)})
        end = time.perf_counter()
        cpu_end = cpu_seconds()
        if traced:
            tracer.end_op(root, start, end)
            if wl.in_process:
                tracer.uninstall()
        if out is not None:
            for path in out.child_traces:
                tracer.merge(json.loads(path.read_text()), i, root)
            try:
                verdict = wl.check(inp, out)
            except Exception as exc:  # a wrong output is a failed op
                failures.append({"op": i, "error": repr(exc)})
            else:
                kind = "traced" if traced else "untraced"
                wall[kind].append(end - start)
                cpu[kind].append(cpu_end - cpu_start)
                codes[str(out.code)] += 1
                verdicts[verdict] += 1
                reports.append([i, digest(out.report_json)])
                inputs.append({"op": i, **out.notes})
        wl.cleanup(inp)
        i += 1

    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    # in-process ops are timed in CPU time, which leaves out the bursts a
    # shared host withholds the CPU; CLI children run more than one thread,
    # so quickstart keeps wall time (see README.md)
    clock = cpu if wl.in_process else wall
    times = clock["untraced"]
    record = {
        "run": run_record(args, attempted),
        "verdicts": {"exit_codes": dict(sorted(codes.items())),
                     "overall_verdict": dict(sorted(verdicts.items())),
                     "report_sha256": reports},
        "inputs": inputs,
        "op_wall_s": wall,
        "op_cpu_s": cpu,
        "failures": failures,
        "attempted": attempted,
        "failed": len(failures),
    }
    if tracer is None:
        pct, tail_s, beyond = tail(times) if times else (0.0, 0.0, 0)
        record["run"].update({"op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
                              "timed_ops": len(times),
                              "op_clock": "cpu" if wl.in_process else "wall"})
        setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
        record["run"]["setup_probes_s"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times) if times else 0.0,
            "op_tail_s": tail_s,
            "throughput_ops_s": len(times) / sum(times) if times else 0.0,
            "success_rate": (attempted - len(failures)) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        record["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in values.items()}
        record["run"]["error_rate"] = len(failures) / attempted
    else:
        rows = op_layers(tracer)
        layers = median_layers(rows)
        traced_p50 = statistics.median(clock["traced"]) if clock["traced"] else 0.0
        layers["trace.overhead_frac"] = (
            traced_p50 / statistics.median(times) - 1.0 if times and traced_p50 else 0.0
        )
        record["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                             for k, v in layers.items()}
        record["op_counts"] = {
            str(op): {k: row[k] for k in COUNT_METRICS}
            for op, row in sorted(rows.items())
        }
        record["claims"] = claims(args.workload, rows, layers)
        record["run"]["traced_ops"] = len(clock["traced"])
        record["run"]["untraced_ops"] = len(times)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(tracer.to_obj()))
    return record


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def claims(workload: str, rows: dict[int, dict[str, float]], m: dict) -> dict:
    """What the workload is claimed to stress, as read off the traced ops."""
    ops = list(rows.values())
    if not ops:
        return {}
    if workload == "quickstart":
        return {"text_layers_over_half": m["trace.text_layers_frac"] > 0.5,
                "margins_under_5pct": m["trace.margins_frac"] < 0.05}
    if workload == "screen-batch":
        return {"no_parse_response": all(r["freqresp.parse_response_calls"] == 0 for r in ops),
                "no_svg_render": all(r["report.svg_renders"] == 0 for r in ops)}
    return {
        "mean_gain_crossovers_ge_10":
            statistics.mean(r["margins.gain_crossovers"] for r in ops) >= 10,
        "mean_phase_crossovers_ge_1":
            statistics.mean(r["margins.phase_crossovers"] for r in ops) >= 1,
        "decompose_calls_eq_crossovers": all(
            r["margins.decompose_calls"]
            == r["margins.gain_crossovers"] + r["margins.phase_crossovers"]
            for r in ops
        ),
    }


def run_record(args, attempted: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "closed_loop_clients": 1,
    }


def run_all(args) -> int:
    """Run every workload untraced, one at a time, and print a table."""
    from workloads import WORKLOADS

    print(f"{'workload':<15} {'metric':<17} {'value':>14}  unit")
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows = dict(result["metrics"])
        rows["error_rate"] = {"value": result["failed"] / result["attempted"],
                              "unit": "fraction"}
        for metric, m in rows.items():
            print(f"{name:<15} {metric:<17} {m['value']:>14.6g}  {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "margingate" / "__init__.py").is_file():
        print(f"error: no margingate package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.setup_probe:
            wl = WORKLOADS[args.workload](args.seed, work)
            wl.setup()
            wl.prepare(0)
            print("ready", flush=True)
            return 0
        record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))

    v = record["verdicts"]
    print("run " + json.dumps(record["run"]))
    print("verdicts " + json.dumps({"exit_codes": v["exit_codes"],
                                    "overall_verdict": v["overall_verdict"],
                                    "reports": len(v["report_sha256"])}))
    if "claims" in record:
        print("claims " + json.dumps(record["claims"]))
    for f in record["failures"][:5]:
        print(f"failed op {f['op']}: {f['error']}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
