#!/usr/bin/env python3
"""gridqa benchmark: generate and validate throughput on the paper presets.

Run it from the repository root:

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 40 --trace 0

One run imports gridqa from src/ and, for --seconds seconds, repeats one
short rep: `cli.generate(config, workers)` for a fixed n_samples, then
`cli.validate_dataset` on every split, twice, then the correctness gate. With
--trace 0 it reports the end-to-end metrics. Timings come from the slow
rep, the 90th percentile of the rep costs, because the load of the machine
switches every rep between a fast and a slow state and the slow state is
the one every run sees; setup_s is the median of fresh
`gridqa generate --n-samples 0` processes started at even intervals
through the run. With --trace 1 each
rep also runs a traced generate and validate at one worker (see
tracing.py) and it reports the per-layer metrics.

Everything is written under .perfbench_out/ in the working directory.
Every workload writes to the same out_dir string, because config_digest,
and so every record, depends on it.

The last line of stdout is a JSON object with the keys correct,
attempted, failed and metrics; the lines above it give every metric by
name and unit, the output sha256 and the run context.
Exit codes: 0 the gate passed, 1 the gate failed, 2 the run could not
start (no gridqa sources next to the benchmark, or too few cores).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ".perfbench_out/dataset"
SETUP_DIR = ".perfbench_out/setup"
SETUP_RUNS = 12
VALIDATE_PASSES = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    preset: str
    workers: int
    n_samples: int


WORKLOADS = {
    "paper-default": Workload("default", 1, 150),
    "properties": Workload("properties", 1, 300),
    "paper-default-w2": Workload("default", 2, 150),
}

END_TO_END_UNITS = {
    "gen_samples_per_s": "samples/s",
    "validate_records_per_s": "records/s",
    "cpu_ms_per_sample": "ms",
    "bytes_per_record": "B",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "scenegen.build_scene.ms_per_sample": "ms",
    "scenegen.build_scene.calls_per_sample": "calls/sample",
    "scenegen.capacity_errors": "count",
    "scenegen.default_names.ms_per_sample": "ms",
    "dynamics.step_world.ms_per_sample": "ms",
    "dynamics.step_world.steps_per_sample": "steps/sample",
    "dynamics.sample_task.ms_per_sample": "ms",
    "dynamics.run_episode.self_ms_per_sample": "ms",
    "worldcore.take_snapshot.ms_per_call": "ms",
    "worldcore.take_snapshot.calls_per_sample": "calls/sample",
    "querygen.sample_query.self_ms_per_sample": "ms",
    "querygen.oracle_checks_per_sample": "checks/sample",
    "querygen.accept_ratio": "fraction",
    "querygen.unanswerable_scenes": "count",
    "querygen.render_text.ms_per_sample": "ms",
    "querygen.parse_form.ms_per_record": "ms",
    "oracle.execute.ms_per_call": "ms",
    "oracle.execute.calls_per_sample": "calls/sample",
    "oracle.rejections.unanswerable_per_sample": "rejects/sample",
    "oracle.rejections.ambiguous_tie_per_sample": "rejects/sample",
    "serialize.render_text_context.ms_per_sample": "ms",
    "serialize.render_relational_context.ms_per_sample": "ms",
    "serialize.to_record.ms_per_sample": "ms",
    "serialize.read_samples.ms_per_record": "ms",
    "serialize.read_relational_context.ms_per_record": "ms",
    "cli.generate_sample.ms_p50": "ms",
    "cli.generate_sample.ms_p99": "ms",
    "cli.generate_sample.count": "count",
    "cli.generate.parent_ms_per_sample": "ms",
    "cli.parent_cpu_share": "fraction",
    "cli.parent_idle_share": "fraction",
    "trace_overhead": "fraction",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here."""


class Gate:
    """Collects correctness failures and the attempted/failed record counts."""

    def __init__(self):
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def import_cli():
    """Import gridqa.cli from the src/ tree beside the benchmark, and only from there."""
    if not (SRC / "gridqa" / "__init__.py").is_file():
        raise SetupError(f"no gridqa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridqa.cli

    if SRC.resolve() not in Path(gridqa.cli.__file__).resolve().parents:
        raise SetupError(f"gridqa was imported from {gridqa.cli.__file__}, not from {SRC}")
    return gridqa.cli


def make_config(workload: Workload, seed: int, n_samples: int):
    from gridqa.config import GenConfig

    base = GenConfig.properties_mode() if workload.preset == "properties" else GenConfig()
    return dataclasses.replace(base, n_samples=n_samples, seed=seed, out_dir=OUT_DIR)


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_generate(cli, config, workers: int) -> dict:
    """Time one generate call: wall seconds and parent/children CPU seconds."""
    parent0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    cli.generate(config, workers)
    wall = perf_counter() - start
    parent = _cpu(resource.RUSAGE_SELF) - parent0
    children = _cpu(resource.RUSAGE_CHILDREN) - children0
    return {"wall_s": wall, "parent_cpu_s": parent, "child_cpu_s": children}


def run_validate(cli, config) -> tuple[list[str], float]:
    """validate_dataset over every split: (problems, seconds)."""
    start = perf_counter()
    problems = [
        problem
        for split in cli.SPLITS
        for problem in cli.validate_dataset(Path(config.out_dir) / f"{split}.jsonl")
    ]
    return problems, perf_counter() - start


def read_splits(cli, config) -> dict[str, bytes]:
    return {split: (Path(config.out_dir) / f"{split}.jsonl").read_bytes() for split in cli.SPLITS}


def sha256_of(splits: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for data in splits.values():
        digest.update(data)
    return digest.hexdigest()


def check_output(config, splits: dict[str, bytes], problems: list[str], gate: Gate) -> None:
    """Gate one generate+validate pass against stats.json and n_samples.

    A record fails when its index is missing or duplicated or when
    validate_dataset flags it.
    """
    stats = json.loads((Path(config.out_dir) / "stats.json").read_text(encoding="utf-8"))
    ids = []
    for split, data in splits.items():
        lines = data.splitlines()
        gate.expect(
            len(lines) == stats["by_split"][split],
            f"{split}: {len(lines)} records, stats.json says {stats['by_split'][split]}",
        )
        ids.extend(json.loads(line)["sample_id"] for line in lines)
    n = config.n_samples
    gate.expect(len(ids) == n, f"{len(ids)} records written, n_samples is {n}")
    gate.expect(stats["n_samples"] == n, f"stats n_samples {stats['n_samples']}, expected {n}")
    missing = set(range(n)) - set(ids)
    extra = len(ids) - (n - len(missing))
    flagged = {problem.split(":", 1)[0] for problem in problems}
    gate.expect(not missing, f"missing sample indices {sorted(missing)[:10]}")
    gate.expect(extra == 0, f"{extra} duplicate or out-of-range records")
    gate.expect(not problems, f"validate_dataset: {problems[:3]}")
    gate.attempted += n
    gate.failed += len(missing) + extra + len(flagged)


def time_setup(workload: Workload, seed: int) -> float:
    """Wall time of a fresh `gridqa generate --n-samples 0` with the workload's flags."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [
        sys.executable, "-c", "import sys; from gridqa.cli import main; sys.exit(main())",
        "generate", "--preset", workload.preset, "--n-samples", "0",
        "--workers", str(workload.workers), "--seed", str(seed), "--out", SETUP_DIR,
    ]
    start = perf_counter()
    subprocess.run(command, env=env, check=True, capture_output=True, timeout=60)
    return perf_counter() - start


def peak_rss_mb() -> float:
    """Larger of the peak RSS of this process and of its largest child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def slow_rep(costs: list[float]) -> float:
    """90th percentile of per-rep costs (seconds or ms; lower is better)."""
    if len(costs) < 2:
        return costs[0]
    return statistics.quantiles(costs, n=10, method="inclusive")[-1]


def run_plain(cli, workload: Workload, config, seconds: float, gate: Gate) -> tuple[dict, str]:
    """End-to-end run: generate+validate reps for `seconds`, with the setup_s
    samples spread evenly over the same time."""
    setup = []
    reference = None
    if workload.workers > 1:
        # the serial output every parallel rep must reproduce byte for byte
        run_generate(cli, config, 1)
        reference = sha256_of(read_splits(cli, config))

    reps = []
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        if len(setup) < SETUP_RUNS and perf_counter() - start >= len(setup) * seconds / SETUP_RUNS:
            setup.append(time_setup(workload, config.seed))
        gen = run_generate(cli, config, workload.workers)
        # one pass over a rep's dataset takes about 0.15 s; timing several
        # together smooths the machine's sub-second swings
        passes = [run_validate(cli, config) for _ in range(VALIDATE_PASSES)]
        problems = [problem for found, _ in passes for problem in found]
        validate_s = sum(elapsed for _, elapsed in passes) / VALIDATE_PASSES
        splits = read_splits(cli, config)
        check_output(config, splits, problems, gate)
        sha = sha256_of(splits)
        reference = reference or sha
        gate.expect(sha == reference, f"rep {len(reps)}: output sha256 {sha} != {reference}")
        reps.append({**gen, "validate_s": validate_s, "bytes": sum(map(len, splits.values()))})

    n = config.n_samples
    gen_rates = [n / r["wall_s"] for r in reps]
    validate_rates = [n / r["validate_s"] for r in reps]
    cpu_ms = [1000.0 * (r["parent_cpu_s"] + r["child_cpu_s"]) / n for r in reps]
    metrics = {
        # slow rep: the machine's load changes how fast every rep runs
        "gen_samples_per_s": n / slow_rep([r["wall_s"] for r in reps]),
        "validate_records_per_s": n / slow_rep([r["validate_s"] for r in reps]),
        "cpu_ms_per_sample": slow_rep(cpu_ms),
        "bytes_per_record": reps[0]["bytes"] / n,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }
    shares = [_shares(r) for r in reps]
    print(f"reps {len(reps)}  setup runs {len(setup)}")
    print(f"median gen_samples_per_s {statistics.median(gen_rates):.6g}  "
          f"validate_records_per_s {statistics.median(validate_rates):.6g}  "
          f"cpu_ms_per_sample {statistics.median(cpu_ms):.6g}")
    print(f"cli.parent_cpu_share {statistics.median(s[0] for s in shares):.4f} fraction")
    print(f"cli.parent_idle_share {statistics.median(s[1] for s in shares):.4f} fraction")
    return metrics, reference


def _shares(gen: dict) -> tuple[float, float]:
    """(parent share of all CPU time, share of wall time the parent was off CPU)."""
    total = gen["parent_cpu_s"] + gen["child_cpu_s"]
    return gen["parent_cpu_s"] / total, 1.0 - gen["parent_cpu_s"] / gen["wall_s"]


def run_traced(cli, workload: Workload, config, seconds: float, gate: Gate) -> tuple[dict, str]:
    """Per-layer run: each rep times an untraced generate at one worker (and at
    the workload's workers, for the parent shares), then a traced generate and
    validate at one worker. Counters must repeat exactly across reps."""
    n = config.n_samples
    reps, sample_ms, plain_s, traced_s = [], [], [], []
    reference = first_counters = None
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        plain = run_generate(cli, config, 1)
        sha = sha256_of(read_splits(cli, config))
        reference = reference or sha
        gate.expect(sha == reference, f"rep {len(reps)}: untraced output differs from rep 0")
        if workload.workers > 1:
            parallel = run_generate(cli, config, workload.workers)
            gate.expect(sha256_of(read_splits(cli, config)) == reference,
                        "parallel output differs from serial")
        else:
            parallel = plain

        with tracing.Tracer() as tracer:
            traced = run_generate(cli, config, 1)
        generated = tracing.summarize(tracer.spans)
        with tracing.Tracer() as tracer:
            problems, _ = run_validate(cli, config)
        validated = tracing.summarize(tracer.spans)
        splits = read_splits(cli, config)
        check_output(config, splits, problems, gate)
        gate.expect(sha256_of(splits) == reference, "traced output differs from untraced output")

        counts = {"generate": tracing.counters(generated), "validate": tracing.counters(validated)}
        first_counters = first_counters or counts
        gate.expect(counts == first_counters, f"rep {len(reps)}: counters differ from rep 0")

        parent_cpu_share, parent_idle_share = _shares(parallel)
        reps.append({
            **tracing.generate_metrics(generated, n, traced["wall_s"]),
            **tracing.validate_metrics(validated, n),
            "cli.parent_cpu_share": parent_cpu_share,
            "cli.parent_idle_share": parent_idle_share,
        })
        sample_ms.extend(1000.0 * d for d in generated["cli.generate_sample"]["durations"])
        plain_s.append(plain["wall_s"])
        traced_s.append(traced["wall_s"])

    # timings from the slow rep, as in run_plain; counts and shares are medians
    metrics = {
        name: (slow_rep if PER_LAYER_UNITS[name] == "ms" else statistics.median)(
            [r[name] for r in reps]
        )
        for name in reps[0]
    }
    metrics["cli.generate_sample.ms_p50"] = tracing.percentile(sample_ms, 50)
    metrics["cli.generate_sample.ms_p99"] = tracing.percentile(sample_ms, 99)
    metrics["cli.generate_sample.count"] = len(sample_ms)
    # paired within each rep, so both sides see the same machine state
    metrics["trace_overhead"] = statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1.0
    print(f"reps {len(reps)}")
    print("counters " + json.dumps(first_counters, sort_keys=True))
    return {name: metrics[name] for name in PER_LAYER_UNITS}, reference


def run_context(seed: int) -> dict:
    """Commit, source hash, Python version, usable cores, seed and source line counts."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    sources = {path.name: path.read_bytes() for path in sorted((SRC / "gridqa").glob("*.py"))}
    lines = {name: len(data.splitlines()) for name, data in sources.items()}
    return {
        "commit": commit,
        "src_sha256": hashlib.sha256(b"".join(sources.values())).hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n-samples", type=int, help="records per rep (default: the workload's own)"
    )
    args = parser.parse_args(argv)
    if args.n_samples is not None and args.n_samples < 1:
        parser.error("--n-samples must be at least 1")
    workload = WORKLOADS[args.workload]

    try:
        if workload.workers > len(os.sched_getaffinity(0)):
            raise SetupError(f"{args.workload} needs {workload.workers} cores")
        cli = import_cli()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    context = run_context(args.seed)
    config = make_config(workload, args.seed, args.n_samples or workload.n_samples)
    gate = Gate()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"workers {workload.workers}  n_samples {config.n_samples}")
    print("context " + json.dumps(context, sort_keys=True))
    if args.trace:
        metrics, sha = run_traced(cli, workload, config, args.seconds, gate)
        units = PER_LAYER_UNITS
    else:
        metrics, sha = run_plain(cli, workload, config, args.seconds, gate)
        units = END_TO_END_UNITS
    print(f"output_sha256 {sha}")
    print(f"failed_share {gate.failed / gate.attempted:.6g} fraction")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for error in gate.errors:
        print(f"gate: {error}", file=sys.stderr)

    print(json.dumps({
        "correct": not gate.errors,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not gate.errors else 1


if __name__ == "__main__":
    sys.exit(main())
