"""Batch driver: generate datasets, score predictions, inspect records.

Subcommands:

    generate  read a config, emit train/valid/test JSONL files and a
              stats report
    score     exact-match error of a predictions file against a
              reference dataset
    inspect   human-readable dump of one record
    validate  integrity checks over an emitted dataset

Exit codes: 0 success, 1 config or validation error (or prediction ids that
differ from the references), 2 generation capacity exhausted, 3 I/O failure
(or a `generate --workers N` child process that ended without reporting).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import struct
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

from .config import ConfigError, GenConfig, apply_overrides, load_config
from .dynamics import run_episode
from .querygen import UnanswerableSceneError, parse_form, sample_query
from .scenegen import SceneCapacityError, ScenePools
from .serialize import (
    FORMAT_VERSION,
    METADATA_KEYS,
    DatasetIOError,
    Sample,
    context_ids,
    read_jsonl,
    read_relational_context,
    read_samples,
    record_line,
    render_relational_context,
    render_text_context,
)

SPLITS = ("train", "valid", "test")


class GenerationCapacityError(RuntimeError):
    """A sample could not be generated within the scene retry budget."""


class AlignmentError(ValueError):
    """Prediction and reference files disagree on sample ids."""


def _derive_seed(seed: int, index: int, extra: int, purpose: bytes) -> int:
    digest = hashlib.blake2b(
        struct.pack("<qqq", seed, index, extra),
        digest_size=8,
        person=purpose.ljust(16, b"\0"),
    ).digest()
    return int.from_bytes(digest, "little")


def split_of(config: GenConfig, index: int) -> str:
    """Deterministic split assignment by hashed sample index."""
    u = _derive_seed(config.seed, index, 0, b"split") / 2.0**64
    if u < config.split_train:
        return "train"
    if u < config.split_train + config.split_valid:
        return "valid"
    return "test"


def generate_sample(
    config: GenConfig, index: int, config_digest: str, pools: ScenePools
) -> tuple[str, str, int, str]:
    """Run the full pipeline for one sample index; returns (query class,
    return type, scene attempt, JSONL line).

    Every random draw derives from (config.seed, index, scene attempt),
    so any index regenerates independently of the rest of the run.
    The caller validates config and supplies config_digest
    (config.digest()) and pools (ScenePools.from_config(config)),
    computed once at the start of its run, so all the run's records
    carry one digest and draw from one set of pools.
    """
    for attempt in range(config.scene_retries):
        sample_seed = _derive_seed(config.seed, index, attempt, b"scene")
        rng = random.Random(sample_seed)
        try:
            action_log, snapshots = run_episode(config, rng, pools)
        except SceneCapacityError:
            continue
        try:
            form, query_text, answer = sample_query(snapshots, config, rng, action_log)
        except UnanswerableSceneError:
            continue
        metadata = (config.seed, index, sample_seed, attempt, config_digest, action_log)
        sample = Sample(
            sample_id=index,
            query_class=form.query_class,
            context_text=render_text_context(snapshots, rng),
            context_relational=render_relational_context(snapshots),
            query_text=query_text,
            query_logical_form=form.to_dict(),
            answer_text=answer.text,
            answer_memids=list(answer.relevant_memids),
            generation_metadata=dict(zip(METADATA_KEYS, metadata, strict=True)),
            format_version=FORMAT_VERSION,
        )
        return form.query_class, form.return_type, attempt, record_line(sample.to_record())
    raise GenerationCapacityError(
        f"sample {index}: no answerable scene in {config.scene_retries} retries"
    )


def _worker_cpu_sets(workers: int) -> list[set[int]] | None:
    """Disjoint sets of this process's CPUs, one per range writer, or None
    where the platform cannot bind a process or there are fewer CPUs than workers."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if workers > len(cpus):
        return None
    return [set(cpus[i::workers]) for i in range(workers)]


def _counts() -> dict:
    """The counted fields of the stats report, all zero."""
    by = {"by_split": Counter(), "by_class": Counter(), "by_return_type": Counter()}
    return {"n_samples": 0, "scene_regenerations": 0, **by}


def _write_range(config, lo, hi, paths, run_inputs, counts, conn=None) -> None:
    """Generate indices lo..hi-1 in order, writing each record's line to
    paths[its split] and counting it in counts. With conn, a connection to the
    parent, a message waiting there is read before each index: on None the
    range ends; on any other, it keeps the lower half of the indices left and
    sends back its new hi, the first index it gave up."""
    with ExitStack() as stack:
        try:
            handles = {
                split: stack.enter_context(path.open("w", encoding="utf-8"))
                for split, path in paths.items()
            }
        except OSError as exc:
            raise DatasetIOError(f"cannot open output files in {config.out_dir}: {exc}") from exc
        index = lo
        while index < hi:
            if conn is not None and conn.poll():
                if conn.recv() is None:
                    break
                hi = index + (hi - index + 1) // 2
                conn.send(hi)
            query_class, return_type, attempt, line = generate_sample(config, index, **run_inputs)
            split = split_of(config, index)
            handles[split].write(line)
            counts["n_samples"] += 1
            counts["by_split"][split] += 1
            counts["by_class"][query_class] += 1
            counts["by_return_type"][return_type] += 1
            counts["scene_regenerations"] += attempt
            index += 1


def _range_writer(config, lo, hi, paths, run_inputs, conn, cpus) -> None:
    """Child process of _write_ranges: writes its range, handing the parent the
    upper half of what is left each time it asks, until the range is done or
    the parent sends a stop; then sends back the counts of what it wrote, or
    its error."""
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    report = _counts()
    try:
        _write_range(config, lo, hi, paths, run_inputs, report, conn)
    except Exception as exc:
        report = exc
    conn.send(report)


def _write_ranges(config, workers, paths, run_inputs, stats) -> None:
    """_write_range over `workers` contiguous ranges of the indices. The parent
    writes range 0 into paths, the whole run where there is one writer; each
    other range goes to part files, written by a child process forked whatever
    the interpreter's default start method, so it inherits the checked config
    and pools as they are. On Linux each writer is bound to its own CPUs, the
    parent until it returns.

    Then, child by child in range order, the parent takes the upper half of
    the indices the child has left, into parts of its own, until it has none
    to give, and reads the child's report. So the error raised is the lowest
    index's, as in a serial run: range 0's at once, then a child's own, then
    one in a part taken from it. A child that ended without reporting raises
    ChildProcessError. The parent appends every part to paths in index order;
    on the way out it stops every range still running and joins every child."""
    bounds = [config.n_samples * k // workers for k in range(workers + 1)]
    cpus = _worker_cpu_sets(workers) or [None] * workers
    affinity = None if cpus[0] is None else os.sched_getaffinity(0)
    children = []
    try:
        for k in range(1, workers):
            # imported only by a run that forks; get_context raises where fork does not exist
            import multiprocessing
            fork = multiprocessing.get_context("fork")
            parts = [{split: path.with_suffix(f".{k}.tmp") for split, path in paths.items()}]
            conn, child_conn = fork.Pipe()
            args = (config, bounds[k], bounds[k + 1], parts[0], run_inputs, child_conn, cpus[k])
            child = fork.Process(target=_range_writer, args=args)
            child.start()
            child_conn.close()
            children.append((child, conn, parts))
        if affinity is not None:
            os.sched_setaffinity(0, cpus[0])
        _write_range(config, 0, bounds[1], paths, run_inputs, stats)
        for k, (child, conn, parts) in enumerate(children, 1):
            end, asking, held = bounds[k + 1], True, None
            while True:
                if asking:
                    try:
                        conn.send(True)  # a request for the upper half of what is left
                    except OSError:  # the child has exited; its report is waiting
                        asking = False
                try:
                    message = conn.recv()
                # a reset: the child died with a request unread in its end of the pipe
                except (EOFError, ConnectionResetError):
                    child.join()
                    raise ChildProcessError(
                        f"worker {k} (samples {bounds[k]}..{bounds[k + 1] - 1}) ended with "
                        f"exit code {child.exitcode} without reporting"
                    ) from None
                if type(message) is not int:
                    break
                asking = message < end  # the child gave up message..end-1
                if asking:
                    # each part taken lies below the ones before it, so parts stay in index order
                    part = {
                        split: path.with_suffix(f".{k}.{len(parts)}.tmp")
                        for split, path in paths.items()
                    }
                    parts.insert(1, part)
                    try:
                        _write_range(config, message, end, part, run_inputs, stats)
                    except Exception as exc:  # held: the child's own indices are lower
                        asking, held = False, exc
                    end = message
            if isinstance(message, Exception):
                raise message
            if held is not None:
                raise held
            for key, value in message.items():
                stats[key] += value
        for split, path in paths.items():
            with path.open("ab") as out:
                for _, _, parts in children:
                    for part in parts:
                        with part[split].open("rb") as data:
                            shutil.copyfileobj(data, out)
    finally:
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
        for child, conn, parts in children:
            try:
                conn.send(None)  # a stop, for a range still running
            except OSError:  # the child has already exited
                pass
            child.join()
            conn.close()
            for part in parts:
                for path in part.values():
                    path.unlink(missing_ok=True)


def generate(config: GenConfig, workers: int = 1) -> dict:
    """Generate config.n_samples records across splits; returns the stats report.

    The indices split into one contiguous range per writer, one writer when
    workers is 1: the parent writes the first range, one forked child each of
    the others (workers > 1 is refused where fork does not exist), each on its
    own CPUs, and the parent then takes the upper half of what a child has
    left, in range order (see _write_ranges). The output is the one-writer
    output byte for byte, and a failed run raises the error that run would.
    Besides the split files, out_dir gets stats.json and config.cfg (the
    effective config, loadable by `validate --config`; config.validate()
    refuses up front a config whose values would not read back from it). All
    of them are written to temporary files in out_dir and renamed into place
    after the last record, so a failed run leaves none of them.
    """
    config.validate()
    # bound by the CPUs _worker_cpu_sets splits, those this process may run on, where known
    getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ConfigError(f"workers: must be between 1 and the CPU count {cpus}, got {workers}")
    if workers > 1:
        import multiprocessing  # a serial run starts without it
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(f"workers: must be 1 on a platform without fork, got {workers}")
    out_dir = Path(config.out_dir)
    names = [f"{split}.jsonl" for split in SPLITS] + ["stats.json", "config.cfg"]
    temps = {name: out_dir / f".{name}.tmp" for name in names}
    split_temps = {split: temps[f"{split}.jsonl"] for split in SPLITS}
    stats = {**_counts(), "config_digest": config.digest(), "seed": config.seed}
    run_inputs = {"config_digest": stats["config_digest"], "pools": ScenePools.from_config(config)}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DatasetIOError(f"cannot create output directory {out_dir}: {exc}") from exc
    workers = max(1, min(workers, config.n_samples))  # no range is empty unless the run is
    try:
        _write_ranges(config, workers, split_temps, run_inputs, stats)
        # every split is listed, an empty one with 0
        stats["by_split"] = {split: stats["by_split"][split] for split in SPLITS}
        try:
            temps["stats.json"].write_text(
                json.dumps(stats, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            temps["config.cfg"].write_text(config.canonical_text() + "\n", encoding="utf-8")
            for name, path in temps.items():
                os.replace(path, out_dir / name)
        except OSError as exc:
            raise DatasetIOError(f"cannot write outputs in {out_dir}: {exc}") from exc
    finally:
        for path in temps.values():
            path.unlink(missing_ok=True)
    return stats


# --- scoring -----------------------------------------------------------------


def _scored(record: dict) -> tuple[int, str]:
    """(sample_id, whitespace-normalized answer_text); a TypeError, which
    read_jsonl reports with the file and line, if they are not an int and a string."""
    sample_id, answer = record["sample_id"], record["answer_text"]
    if type(sample_id) is not int or not isinstance(answer, str):
        raise TypeError(f"sample_id {sample_id!r} and answer_text {answer!r} must be int and str")
    return sample_id, " ".join(answer.split())


def score(predictions_path: str | Path, references_path: str | Path) -> dict:
    """Exact-match error of predictions against reference answers.

    Predictions are JSONL records with sample_id and answer_text.
    Token sequences are compared after whitespace normalization; the
    report includes a per-class breakdown. Raises AlignmentError when a
    file repeats a sample_id or the two files hold different ids.
    """
    references = list(read_jsonl(
        references_path, lambda record: (*_scored(record), Sample.from_record(record).query_class)
    ))
    scored = list(read_jsonl(predictions_path, _scored))
    for path, rows in ((references_path, references), (predictions_path, scored)):
        repeated = sorted(i for i, n in Counter(row[0] for row in rows).items() if n > 1)
        if repeated:
            raise AlignmentError(f"{path}: repeated sample ids {repeated[:10]}")
    predictions = dict(scored)

    ref_ids = {sample_id for sample_id, _, _ in references}
    missing = sorted(ref_ids - set(predictions))
    extra = sorted(set(predictions) - ref_ids)
    if missing or extra:
        raise AlignmentError(
            f"sample id mismatch: missing from predictions {missing[:10]}, "
            f"unknown ids {extra[:10]}"
        )

    per_class: dict[str, dict] = {}
    wrong_total = 0
    for sample_id, answer, query_class in references:
        wrong = int(predictions[sample_id] != answer)
        wrong_total += wrong
        bucket = per_class.setdefault(query_class, {"n": 0, "wrong": 0})
        bucket["n"] += 1
        bucket["wrong"] += wrong
    n = len(references)
    report = {
        "n": n,
        "exact_match_error": (wrong_total / n) if n else 0.0,
        "by_class": {
            cls: {"n": b["n"], "exact_match_error": b["wrong"] / b["n"]}
            for cls, b in sorted(per_class.items())
        },
    }
    return report


# --- inspection and validation --------------------------------------------------


def _find_sample(path: str | Path, sample_id: int) -> Sample:
    """The first record with sample_id, read up to it and no further."""
    for sample in read_samples(path):
        if sample.sample_id == sample_id:
            return sample
    raise KeyError(f"sample id {sample_id} not found in {path}")


def format_dump(sample: Sample) -> str:
    meta = sample.generation_metadata
    parts = [
        f"sample {sample.sample_id} (class {sample.query_class})",
        f"query: {sample.query_text}",
        "logical form:",
        json.dumps(sample.query_logical_form, sort_keys=True, indent=2),
        f"answer: {sample.answer_text}",
        f"relevant memids: {', '.join(sample.answer_memids)}",
        (
            f"regeneration: seed={meta['seed']} index={meta['sample_index']} "
            f"sample_seed={meta['sample_seed']} config_digest={meta['config_digest']}"
        ),
        "context (text):",
        sample.context_text,
    ]
    return "\n".join(parts)


def validate_dataset(path: str | Path, config: GenConfig | None = None) -> list[str]:
    """Integrity checks for every record; returns a list of problems.

    Each record is checked as it is read, so only one parsed record is
    alive at a time. With a config, checked before any record is read
    (ConfigError), each record must also equal its regeneration.
    """
    if config is not None:
        config.validate()
        config_digest = config.digest()
        pools = ScenePools.from_config(config)
    problems = []
    for sample in read_samples(path):
        label = f"sample {sample.sample_id}"
        if sample.format_version != FORMAT_VERSION:
            problems.append(f"{label}: unknown format_version {sample.format_version}")
        try:
            reparsed = parse_form(sample.query_text)
            if not isinstance(sample.query_logical_form, dict):
                problems.append(f"{label}: query_logical_form is not an object")
            elif reparsed.to_dict() != sample.query_logical_form:
                problems.append(f"{label}: query text does not match logical form")
        except Exception as exc:
            problems.append(f"{label}: query text failed to parse: {exc}")
        if not isinstance(sample.answer_text, str):
            problems.append(f"{label}: answer_text is not a string: {sample.answer_text!r}")
        elif not sample.answer_text:
            problems.append(f"{label}: empty answer text")
        try:
            ids = context_ids(read_relational_context(sample.context_relational))
        except Exception as exc:
            problems.append(f"{label}: relational context unreadable: {type(exc).__name__}: {exc}")
            ids = None
        memids = sample.answer_memids
        if not isinstance(memids, list) or not all(isinstance(m, str) for m in memids):
            problems.append(f"{label}: answer_memids is not a list of strings: {memids!r}")
        elif ids is not None and not ids.issuperset(memids):
            dangling = sorted(set(memids) - ids)
            problems.append(f"{label}: answer memids missing from context: {dangling}")
        meta = sample.generation_metadata
        if not isinstance(meta, dict) or not meta.keys() >= set(METADATA_KEYS):
            keys = ", ".join(METADATA_KEYS)
            problems.append(f"{label}: generation_metadata is not an object with keys {keys}")
        if config is not None:
            index = sample.sample_id
            # _derive_seed packs the index as a signed 64-bit integer
            if type(index) is not int or not 0 <= index < 2**63:
                problems.append(f"{label}: sample_id is not a sample index, cannot regenerate")
                continue
            *_, line = generate_sample(config, index, config_digest, pools)
            if json.loads(line) != sample.to_record():
                problems.append(f"{label}: does not match regeneration from config")
    return problems


# --- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to the config exit code
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridqa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset from a config")
    base = gen.add_mutually_exclusive_group()  # without either, the default preset
    base.add_argument("--config", help="flat key=value config file")
    base.add_argument("--preset", choices=["default", "properties"])
    gen.add_argument("--out", help="output directory (overrides out_dir)")
    gen.add_argument("--n-samples", type=int, help="overrides n_samples")
    gen.add_argument("--seed", type=int, help="overrides seed")
    gen.add_argument("--workers", type=int, default=1)
    gen.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )

    sc = sub.add_parser("score", help="exact-match error for predictions")
    sc.add_argument("--predictions", required=True)
    sc.add_argument("--references", required=True)

    ins = sub.add_parser("inspect", help="dump one record")
    ins.add_argument("--dataset", required=True)
    ins.add_argument("--sample-id", type=int, required=True)

    val = sub.add_parser("validate", help="integrity-check a dataset file")
    val.add_argument("--dataset", required=True)
    val.add_argument("--config", help="also verify records against regeneration")
    return parser


def _config_from_args(args) -> GenConfig:
    if args.config:
        config = load_config(args.config)
    elif args.preset == "properties":
        config = GenConfig.properties_mode()
    else:
        config = GenConfig()
    pairs = list(args.overrides)
    if args.out is not None:
        pairs.append(f"out_dir={args.out}")
    if args.n_samples is not None:
        pairs.append(f"n_samples={args.n_samples}")
    if args.seed is not None:
        pairs.append(f"seed={args.seed}")
    return apply_overrides(config, pairs)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            config = _config_from_args(args)
            stats = generate(config, workers=args.workers)
            print(json.dumps(stats, sort_keys=True, indent=2))
            return 0
        if args.command == "score":
            report = score(args.predictions, args.references)
            print(json.dumps(report, sort_keys=True, indent=2))
            return 0
        if args.command == "inspect":
            try:
                sample = _find_sample(args.dataset, args.sample_id)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 1
            try:
                print(format_dump(sample))
            except (KeyError, TypeError) as exc:
                raise DatasetIOError(
                    f"{args.dataset}, sample {args.sample_id}: not a valid record: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            return 0
        # argparse requires a command, so this one is validate
        config = load_config(args.config) if args.config else None
        problems = validate_dataset(args.dataset, config)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        print("ok")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except AlignmentError as exc:
        print(f"alignment error: {exc}", file=sys.stderr)
        return 1
    except GenerationCapacityError as exc:
        print(f"generation capacity error: {exc}", file=sys.stderr)
        return 2
    except (DatasetIOError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
