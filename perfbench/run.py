"""floqmet benchmark driver.

One run (the contract form; prints the metrics, last line is JSON):
    python3 perfbench/run.py --workload scan-tpt --seed 1 --seconds 20 --trace 0
Every workload, each run in a fresh process, with a summary table:
    python3 perfbench/run.py --all --seeds 1-10 --seconds 20 --results perfbench/results/A
Two result sets side by side, with a verdict per workload and metric:
    python3 perfbench/run.py --compare perfbench/results/A perfbench/results/B

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports its per-layer metrics from a run whose first half is untraced and
whose second half records spans.  Every run writes a result file with the
environment record to the results directory.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from environment import environment_record, pin_threads  # noqa: E402

pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import stats  # noqa: E402
from refclock import ReferenceClock  # noqa: E402

DEFAULT_RESULTS = HERE / "results"
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_floqmet():
    """Import floqmet from this checkout's src/, never from elsewhere."""
    if not (SRC / "floqmet" / "__init__.py").is_file():
        sys.exit(f"error: no floqmet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import floqmet
    if Path(floqmet.__file__).resolve().parent != (SRC / "floqmet").resolve():
        sys.exit(f"error: imported floqmet from {floqmet.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int, results: Path) -> None:
    """Child process body: time import, first model and first session/spectrum."""
    start = time.perf_counter()
    import_floqmet()
    import workloads
    workloads.WORKLOADS[name](seed, results).setup()
    print(repr(time.perf_counter() - start))


def measure_setup(name: str, seed: int, results: Path, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--results", str(results)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload, clock, seconds: float, first_index: int, tracer=None) -> dict:
    """Closed loop, one client: run ops back to back for `seconds`.

    The reference clock is sampled before the first op and after every op;
    an op's reference time is the mean of the samples on either side of it.
    """
    durations, failures, warned = [], [], Counter()
    index = first_index
    start = time.perf_counter()
    samples = [clock.sample(0.0)]
    while not durations or time.perf_counter() - start < seconds:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.op = index
            t0 = time.perf_counter()
            try:
                output = workload.op(index)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = None
        samples.append(clock.sample(durations[-1]))
        if error is None:
            error = workload.verify(index, output)
        if error is not None:
            failures.append({"op": index, "error": error})
        warned.update(str(w.message) for w in caught)
        index += 1
    reference = [(a + b) / 2 for a, b in zip(samples, samples[1:])]
    return {"durations": durations, "reference": reference,
            "elapsed": time.perf_counter() - start,
            "failures": failures, "warnings": sum(warned.values()),
            "warning_messages": dict(warned.most_common(5)), "next_index": index}


def run_checks(workload) -> list[dict]:
    try:
        return [{"check": name, "failure": failure} for name, failure in workload.checks()]
    except Exception as exc:  # a check that raises is a failed check
        return [{"check": "oracle checks", "failure": f"{type(exc).__name__}: {exc}"}]


def run_once(args, spec: dict) -> int:
    import_floqmet()
    import workloads

    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, results)
    setup_samples = ([] if args.trace else
                     measure_setup(args.workload, args.seed, results, workload.setup_repeats))
    workload.prepare()
    clock = ReferenceClock()

    legs = {}
    if args.trace:
        import tracing
        legs["untraced"] = measure(workload, clock, args.seconds / 2, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            legs["traced"] = measure(workload, clock, args.seconds / 2,
                                     legs["untraced"]["next_index"], tracer)
        finally:
            tracer.uninstall()
    else:
        legs["untraced"] = measure(workload, clock, args.seconds, 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = run_checks(workload)

    ops = sum(len(leg["durations"]) for leg in legs.values())
    failed_ops = sum(len(leg["failures"]) for leg in legs.values())
    failed_checks = sum(1 for c in checks if c["failure"])
    attempted, failed = ops + len(checks), failed_ops + failed_checks
    main = legs["untraced"]
    relative = [d / r for d, r in zip(main["durations"], main["reference"])]
    raw = {  # as the wall clock reads them; not bounded, see refclock.py
        "ops_per_s": len(main["durations"]) / main["elapsed"],
        "op_p50_s": statistics.median(main["durations"]),
        "op_tail_s": stats.tail(main["durations"]),
        "reference_p50_s": statistics.median(main["reference"]),
    }
    values = {
        "op_p50_ref": statistics.median(relative),
        "ops_per_kref": 1000.0 * len(relative) / sum(relative),
        "peak_rss_mb": peak_rss_mb,
    }
    if setup_samples:
        values["setup_s"] = statistics.median(setup_samples)
    if args.trace:
        traced = legs["traced"]
        values.update(tracer.layer_metrics(traced["durations"]))
        values["metrology.warnings_per_op"] = (
            sum(leg["warnings"] for leg in legs.values()) / ops)
        values["trace.untraced_ops_per_s"] = raw["ops_per_s"]
        values["trace.traced_ops_per_s"] = len(traced["durations"]) / traced["elapsed"]
        values["trace.ops_per_s_ratio"] = (values["trace.traced_ops_per_s"]
                                           / values["trace.untraced_ops_per_s"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.inputs(),
        "environment": environment_record(ROOT),
        "setup_samples_s": setup_samples, "raw": raw,
        "failed_frac": failed / attempted, "checks": checks,
        "legs": legs, "result": result,
    }
    if args.trace:
        record["spans"] = {"fields": ["name", "op", "parent", "start", "end"],
                           "spans": tracer.spans}
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  ops {ops}  checks {len(checks)}"
          f"  result file {out}")
    for m in wanted:
        print(f"  {m['name']:<30} {values[m['name']]!r} {m['unit']}")
    if not args.trace:
        tail = raw["op_tail_s"]
        print(f"  {'ops_per_s (wall clock)':<30} {raw['ops_per_s']!r} 1/s")
        print(f"  {'op_p50_s (wall clock)':<30} {raw['op_p50_s']!r} s")
        print(f"  {'op_tail_s (wall clock)':<30} {tail['value']!r} s (p{tail['percentile']:.4g}"
              f" of {tail['samples']} ops, {tail['beyond']} beyond it)")
        print(f"  {'reference_p50_s':<30} {raw['reference_p50_s']!r} s")
    print(f"  {'failed_frac':<30} {failed / attempted!r} ({failed}/{attempted})")
    for leg in legs.values():
        for failure in leg["failures"][:3]:
            print(f"  failed op {failure['op']}: {failure['error']}")
    for check in checks:
        if check["failure"]:
            print(f"  failed check {check['check']}: {check['failure']}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload, and comparison of result sets
# ---------------------------------------------------------------------------

def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load_results(directory: Path, trace: int) -> dict:
    found = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        found[(record["workload"], record["seed"])] = record
    return found


def fmt(x: float) -> str:
    return f"{x:.4g}"


def summarize(spec: dict, directory: Path, trace: int) -> None:
    found = load_results(directory, trace)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    for w in spec["workloads"]:
        records = [r for (name, _), r in sorted(found.items()) if name == w["name"]]
        if not records:
            continue
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        print(f"\n{w['name']}  ({len(records)} runs; median [q1, q3], spread = (q3-q1)/median)")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in records]
            q1, q2, q3 = stats.quartiles(values)
            limit = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:<30} {fmt(q2):>10} [{fmt(q1)}, {fmt(q3)}] {m['unit']:<6}"
                  f" spread {stats.spread(values):.3f}{limit}")
        print(f"  {'failed_frac':<30} {failed / attempted:.4g} ({failed}/{attempted})")
        if not trace:
            for name, unit in (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
                               ("reference_p50_s", "s")):
                values = [r["raw"][name] for r in records]
                if name == "op_tail_s":
                    values = [v["value"] for v in values]
                q1, q2, q3 = stats.quartiles(values)
                print(f"  {name + ' (wall clock)':<30} {fmt(q2):>10} [{fmt(q1)}, {fmt(q3)}]"
                      f" {unit:<6} spread {stats.spread(values):.3f}  unbounded")


def run_all(args, spec: dict) -> int:
    results = Path(args.results)
    status = 0
    for seed in parse_seeds(args.seeds):
        for w in spec["workloads"]:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--results", str(results)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            tail = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"seed {seed} {w['name']}: exit {proc.returncode} in "
                  f"{time.perf_counter() - t0:.1f} s  {tail[0][:120]}", flush=True)
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                status = 1
    summarize(spec, results, args.trace)
    return status


def compare(spec: dict, dir_a: Path, dir_b: Path) -> int:
    a, b = load_results(dir_a, 0), load_results(dir_b, 0)
    print(f"A = {dir_a}\nB = {dir_b}\nmedian [q1, q3] per side; wins = pairs (same seed)"
          " where B is better")
    for w in spec["workloads"]:
        seeds_a = sorted(s for name, s in a if name == w["name"])
        seeds_b = sorted(s for name, s in b if name == w["name"])
        if not seeds_a or not seeds_b:
            continue
        common = sorted(set(seeds_a) & set(seeds_b))
        print(f"\n{w['name']}  (A {len(seeds_a)} runs, B {len(seeds_b)} runs,"
              f" {len(common)} pairs)")
        for m in spec["end_to_end"]:
            def value(side, seed):
                return side[(w["name"], seed)]["result"]["metrics"][m["name"]]["value"]
            va = [value(a, s) for s in seeds_a]
            vb = [value(b, s) for s in seeds_b]
            pairs = [(value(a, s), value(b, s)) for s in common]
            v = stats.verdict(va, vb, pairs, m["better"], m["bound"])
            print(f"  {m['name']:<12} A {fmt(v['a'][1])} [{fmt(v['a'][0])}, {fmt(v['a'][2])}]"
                  f"  B {fmt(v['b'][1])} [{fmt(v['b'][0])}, {fmt(v['b'][2])}] {m['unit']}"
                  f"  spread {v['spread_a']:.3f}/{v['spread_b']:.3f}"
                  f"  B worse by {v['worse_share']:+.3f} (bound {m['bound']})"
                  f"  wins {v['wins']}/{v['pairs']}  -> {v['verdict']}")
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="run every workload per seed")
    mode.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                      help="compare two result sets")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", default="1-10", help="for --all: 'a-b' or 'a,b,c'")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(DEFAULT_RESULTS),
                        help="directory for result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, Path(args.compare[0]), Path(args.compare[1]))
    if args.all:
        return run_all(args, spec)
    if args.workload is None:
        parser.error("--workload is required for a single run")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.results))
        return 0
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
