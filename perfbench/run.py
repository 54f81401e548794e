"""Benchmark of the invsys pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload curve --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every end-to-end timing is reported at reference speed: wall time scaled
by speed probes taken during it (see speed.py), because the CPU speed of a
shared machine drifts.  A run times IMPORT_REPS imports of invsys in fresh
interpreters and sets the workload up SETUP_REPS times from its seed;
setup_s is the sum of the two medians.  It then repeats rounds (every
operation of every instance once) while another round of the last round's
length still fits in --seconds.  --trace 0 reports the end-to-end metrics.
--trace 1 makes each round a pair, an untraced reference round and a traced
round, and reports the per-layer metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every metric
by name with its unit.  A full record with provenance goes to perfbench/out/.
See perfbench/README.md.
"""

import sys

# Every run compiles the program from source: equal import cost on every run,
# and no bytecode files left in the tree.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
IMPORT_REPS = 9
WORKLOAD_NAMES = ("curve", "ci-d2", "rees-fp")
SRC_MODULES = ("__init__", "cli", "duality", "errors", "field", "groebner", "io",
               "limitsys", "linalg", "rees", "ring")


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    from spans import COUNTED, FUNCTIONS, METHODS

    traced = [f"{m}.{f}" for m, f in FUNCTIONS] + [name for *_, name in METHODS]
    out = []
    for name in traced:
        out += [(f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    out += [(f"{name}.calls", "count", "lower") for *_, name in COUNTED]
    out += [
        ("groebner.buchberger.basis_len", "count", "lower"),
        ("groebner.ArtinianQuotient.std_monomials", "count", "lower"),
        ("groebner.ArtinianQuotient.unbounded", "count", "lower"),
        ("groebner.ArtinianQuotient.useful_ratio", "ratio", "higher"),
        ("duality.perp_ideal.dim", "count", "lower"),
        ("limitsys.dual_tower.stages", "count", "lower"),
        ("limitsys.verify_lis.checks", "count", "lower"),
        ("limitsys.reconstruct.stage", "stage", "lower"),
        ("io.lis_bytes", "bytes", "lower"),
        ("other.s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("failed_frac", "ratio", "lower"),
    ]
    out += [(f"src_loc.{m}", "lines", "lower") for m in SRC_MODULES + ("total",)]
    return out


END_TO_END = (("setup_s", "s"), ("instance_s", "s"), ("op_geomean_s", "s"), ("peak_rss_mb", "MB"))


def import_program():
    """Import invsys from this checkout's src/, and from nowhere else."""
    if not (SRC / "invsys" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'invsys'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import invsys.cli  # noqa: F401

    if Path(sys.modules["invsys"].__file__).resolve().parent != (SRC / "invsys").resolve():
        raise SystemExit("error: invsys was imported from outside this checkout")


def import_seconds(clock):
    """Reference-speed seconds to import invsys.cli, each in a fresh interpreter."""
    code = ("import sys, time; sys.dont_write_bytecode = True; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import invsys.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPS):
        done, error, wall, _, ref = clock.time(
            subprocess.run, [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True)
        if error or done.returncode != 0:
            raise SystemExit(f"error: importing invsys failed: {error or done.stderr}")
        samples.append(float(done.stdout) * ref / wall)
    return samples


def run_round(instance_ops, clock, tracer=None):
    """Every operation once: [(instance, kind, seconds, cpu seconds, error or
    None, reference-speed seconds)]."""
    records = []
    for i, ops in enumerate(instance_ops):
        for op in ops:
            args = op.prepare()
            if tracer is None:
                result, exc, seconds, cpu, ref_seconds = clock.time(op.call, args)
            else:
                result, exc, seconds, cpu, ref_seconds = clock.time(
                    tracer.call, "op." + op.kind, op.call, args)
            error = "".join(traceback.format_exception(exc)) if exc else None
            if error is None:
                try:
                    error = op.check(result)
                except Exception:
                    error = traceback.format_exc()
            if error:
                print(f"FAILED {op.kind} on instance {i}: {error}", file=sys.stderr)
            records.append((i, op.kind, seconds, cpu, error, ref_seconds))
    return records


def paired_round(instance_ops, clock, tracer):
    """An untraced reference round, then a traced round with its self times
    and counts.  Adjacent rounds see the same machine speed, so their
    difference estimates the tracing overhead."""
    reference = run_round(instance_ops, clock)
    first = len(tracer.spans)
    before = tracer.counts.copy()
    tracer.install()
    try:
        records = run_round(instance_ops, clock, tracer)
    finally:
        tracer.uninstall()
    counts = tracer.counts.copy()
    counts.subtract(before)
    return reference, records, tracer.self_times(first), counts


def timed_rounds(one_round, seconds, start):
    """Rounds while another round of the last one's length fits in seconds,
    and the peak RSS in MB after the first round.  Later rounds can raise
    the peak through allocator fragmentation alone, so the first round's
    peak keeps peak_rss_mb independent of how many rounds fit."""
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        if len(rounds) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if now - start + (now - t0) > seconds:
            return rounds, peak_mb


def op_seconds(records):
    """Reference-speed seconds of a round's operations."""
    return sum(r[5] for r in records)


def end_to_end(rounds, kinds, setup_s, peak_mb):
    by_kind = {k: [] for k in kinds}
    per_instance = []
    for records in rounds:
        sums = {}
        for i, kind, *_, seconds in records:
            by_kind[kind].append(seconds)
            sums[i] = sums.get(i, 0.0) + seconds
        per_instance.extend(sums.values())
    medians = {k: statistics.median(v) for k, v in by_kind.items()}
    metrics = {
        "setup_s": setup_s,
        "instance_s": statistics.median(per_instance),
        "op_geomean_s": math.exp(statistics.fmean(math.log(v) for v in medians.values())),
        "peak_rss_mb": peak_mb,
    }
    detail = {f"{k}_s": (medians[k], len(by_kind[k])) for k in kinds}
    if "limit" in kinds:
        detail["pipeline_s"] = (metrics["instance_s"], len(per_instance))
    return metrics, detail


def per_layer(rounds, loc, failed_frac):
    """Medians over traced rounds of each round's self times and counts."""
    names = [name for name, _, _ in per_layer_names()]
    samples = {name: [] for name in names}
    for reference, records, self_times, counts in rounds:
        row = {n: self_times.get(n[:-2], 0.0) if n.endswith(".s") else counts.get(n, 0) for n in names}
        row["other.s"] = sum(v for k, v in self_times.items() if k.startswith("op."))
        calls = counts.get("groebner.ArtinianQuotient.calls", 0)
        unbounded = counts.get("groebner.ArtinianQuotient.unbounded", 0)
        row["groebner.ArtinianQuotient.useful_ratio"] = (calls - unbounded) / calls if calls else 0.0
        calls = counts.get("limitsys.reconstruct.calls", 0)
        row["limitsys.reconstruct.stage"] = (
            counts.get("limitsys.reconstruct.stage", 0) / calls if calls else 0.0)
        row["trace.overhead_s"] = op_seconds(records) - op_seconds(reference)
        for name in names:
            samples[name].append(row[name])
    out = {name: statistics.median(v) for name, v in samples.items()}
    out.update({f"src_loc.{m}": n for m, n in loc.items()})
    out["failed_frac"] = failed_frac
    return out


def source_loc():
    """Non-blank source lines per invsys module, and their total."""
    counts = {
        p.stem: sum(1 for line in p.read_text().splitlines() if line.strip())
        for p in (SRC / "invsys").glob("*.py")
    }
    loc = {m: counts.get(m, 0) for m in SRC_MODULES}
    loc["total"] = sum(counts.values())
    return loc


def provenance(args, texts, loc):
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for p in sorted((SRC / "invsys").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": texts,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
    }


def run_workload(args):
    import_program()
    import workloads

    setup, kinds = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    goldens = workloads.load_goldens()
    # The traced run takes no probes inside operations, so that self times
    # hold no probe time.
    clock = speed.Clock(sampling=not args.trace)
    try:
        return measure(args, clock, setup, kinds, workdir, goldens)
    finally:
        clock.stop()


def measure(args, clock, setup, kinds, workdir, goldens):
    import spans

    setup_samples = []
    for _ in range(SETUP_REPS):
        made, error, _, _, ref = clock.time(setup, random.Random(args.seed), workdir, goldens)
        if error:
            raise error
        texts, instance_ops = made
        setup_samples.append(ref)
    import_samples = import_seconds(clock)
    setup_s = statistics.median(import_samples) + statistics.median(setup_samples)
    loc = source_loc()

    start = time.perf_counter()
    if args.trace:
        tracer = spans.Tracer()
        rounds, _ = timed_rounds(lambda: paired_round(instance_ops, clock, tracer), args.seconds, start)
        records = [r for rnd in rounds for r in rnd[0] + rnd[1]]
        failed = sum(1 for r in records if r[4])
        metrics = per_layer(rounds, loc, failed / len(records))
        units = {name: unit for name, unit, _ in per_layer_names()}
    else:
        rounds, peak_mb = timed_rounds(lambda: run_round(instance_ops, clock), args.seconds, start)
        records = [r for rnd in rounds for r in rnd]
        failed = sum(1 for r in records if r[4])
        metrics, detail = end_to_end(rounds, kinds, setup_s, peak_mb)
        units = dict(END_TO_END)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} round(s), {len(records)} operations, {failed} failed")
    record = {"provenance": provenance(args, texts, loc), "failed_frac": failed / len(records),
              "import_samples_s": import_samples, "setup_samples_s": setup_samples,
              "probe_ref_s": speed.PROBE_REF_S, "probe_samples_s": [s for _, s in clock.samples],
              "metrics": metrics,
              "operations": [list(r) for r in records]}
    if args.trace:
        layers = {k: v for k, v in metrics.items() if k.endswith(".s") and k != "other.s"}
        top = max(layers, key=layers.get)
        print(f"largest self time: {top[:-2]} {layers[top]:.3f} s per round")
        record["top_layer"] = top[:-2]
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, parent, t0, t1 in tracer.spans:
                fh.write(json.dumps([name, parent, t0 - start, t1 - start]) + "\n")
    else:
        for name, (value, n) in detail.items():
            print(f"  {name:<24} {value:12.4f} s      median of {n}")
        print(f"  {'failed_frac':<24} {failed / len(records):12.4f} ratio")
        record["per_operation"] = detail
    for name, value in metrics.items():
        print(f"  {name:<48} {value:14.6g} {units[name]}")
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with code {done.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
