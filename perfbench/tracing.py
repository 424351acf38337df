"""Spans around gridqa's module functions, recorded from outside the package.

A Tracer replaces each target attribute with a wrapper that records one
span per call: name, parent span, start, end, the exception type if the
call raised, and a work count (world steps for step_world). Leaving the
`with` block puts every original back. The wrappers only read the clock,
so they change no random draw and no output byte.

The targets are the names callers actually look up at call time:
cli binds run_episode, sample_query, the context renderers, parse_form
and the readers at import; run_episode imports build_scene and
take_snapshot inside the function; sample_query and generate_sample
call oracle.execute through the module.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from time import perf_counter


def targets():
    """(span name, owner, attribute, work extractor) for every traced function."""
    from gridqa import cli, dynamics, oracle, querygen, scenegen, worldcore
    from gridqa.serialize import Sample

    def steps(world, n_steps, *args, **kwargs):
        return n_steps

    return (
        ("cli.generate_sample", cli, "generate_sample", None),
        ("dynamics.run_episode", cli, "run_episode", None),
        ("scenegen.build_scene", scenegen, "build_scene", None),
        ("scenegen.default_names", scenegen, "default_names", None),
        ("dynamics.sample_task", dynamics, "sample_task", None),
        ("dynamics.step_world", dynamics, "step_world", steps),
        ("worldcore.take_snapshot", worldcore, "take_snapshot", None),
        ("querygen.sample_query", cli, "sample_query", None),
        ("querygen.render_text", querygen, "render_text", None),
        ("oracle.execute", oracle, "execute", None),
        ("serialize.render_text_context", cli, "render_text_context", None),
        ("serialize.render_relational_context", cli, "render_relational_context", None),
        ("serialize.to_record", Sample, "to_record", None),
        ("querygen.parse_form", cli, "parse_form", None),
        ("serialize.read_samples", cli, "read_samples", None),
        ("serialize.read_relational_context", cli, "read_relational_context", None),
    )


class Tracer:
    """Context manager that wraps the targets and collects spans in memory.

    Each span is [name, parent index or -1, start, end, exception type
    name or None, work]. One Tracer serves one `with` block.
    """

    def __init__(self, target_list=None):
        self.targets = targets() if target_list is None else target_list
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr, _ in self.targets]
        for (name, _, _, work), (owner, attr, original) in zip(self.targets, originals):
            setattr(owner, attr, self._wrap(name, original, work))
        self._saved = originals
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None,
                    work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced


def _empty_entry() -> dict:
    return {
        "calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0,
        "errors": Counter(), "callers": Counter(), "durations": [],
    }


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive and self seconds, work, errors, callers.

    Self time is a span's duration minus the durations of its direct
    children; calls are nested and single-threaded, so children never
    overlap.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(_empty_entry)
    for i, (name, parent, start, end, exc, work) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child[i]
        entry["work"] += work
        entry["durations"].append(end - start)
        if exc is not None:
            entry["errors"][exc] += 1
        entry["callers"][spans[parent][0] if parent >= 0 else "-"] += 1
    return out


def counters(summary: dict) -> dict:
    """The deterministic part of a summary: calls, work, errors and callers."""
    return {
        name: {
            "calls": e["calls"],
            "work": e["work"],
            "errors": dict(sorted(e["errors"].items())),
            "callers": dict(sorted(e["callers"].items())),
        }
        for name, e in sorted(summary.items())
    }


def _entry(summary: dict, name: str) -> dict:
    return summary.get(name) or _empty_entry()


def generate_metrics(gen: dict, n_samples: int, generate_s: float) -> dict:
    """Per-layer numbers from the spans of one traced generate call."""
    e = functools.partial(_entry, gen)

    def ms(name, key="total_s"):
        return 1000.0 * e(name)[key] / n_samples

    def ms_per_call(entry):
        return 1000.0 * entry["total_s"] / entry["calls"] if entry["calls"] else 0.0

    execute = e("oracle.execute")
    checks = execute["callers"]["querygen.sample_query"]
    query = e("querygen.sample_query")
    accepted = query["calls"] - sum(query["errors"].values())
    snapshots = e("worldcore.take_snapshot")
    return {
        "scenegen.build_scene.ms_per_sample": ms("scenegen.build_scene"),
        "scenegen.build_scene.calls_per_sample": e("scenegen.build_scene")["calls"] / n_samples,
        "scenegen.capacity_errors": e("scenegen.build_scene")["errors"]["SceneCapacityError"],
        "scenegen.default_names.ms_per_sample": ms("scenegen.default_names"),
        "dynamics.step_world.ms_per_sample": ms("dynamics.step_world"),
        "dynamics.step_world.steps_per_sample": e("dynamics.step_world")["work"] / n_samples,
        "dynamics.sample_task.ms_per_sample": ms("dynamics.sample_task"),
        "dynamics.run_episode.self_ms_per_sample": ms("dynamics.run_episode", "self_s"),
        "worldcore.take_snapshot.ms_per_call": ms_per_call(snapshots),
        "worldcore.take_snapshot.calls_per_sample": snapshots["calls"] / n_samples,
        "querygen.sample_query.self_ms_per_sample": ms("querygen.sample_query", "self_s"),
        "querygen.oracle_checks_per_sample": checks / n_samples,
        "querygen.accept_ratio": accepted / checks if checks else 0.0,
        "querygen.unanswerable_scenes": query["errors"]["UnanswerableSceneError"],
        "querygen.render_text.ms_per_sample": ms("querygen.render_text"),
        "oracle.execute.ms_per_call": ms_per_call(execute),
        "oracle.execute.calls_per_sample": execute["calls"] / n_samples,
        "oracle.rejections.unanswerable_per_sample": (
            execute["errors"]["UnanswerableQueryError"] / n_samples
        ),
        "oracle.rejections.ambiguous_tie_per_sample": (
            execute["errors"]["AmbiguousTieError"] / n_samples
        ),
        "serialize.render_text_context.ms_per_sample": ms("serialize.render_text_context"),
        "serialize.render_relational_context.ms_per_sample": ms(
            "serialize.render_relational_context"
        ),
        "serialize.to_record.ms_per_sample": ms("serialize.to_record"),
        "cli.generate.parent_ms_per_sample": (
            1000.0 * (generate_s - e("cli.generate_sample")["total_s"]) / n_samples
        ),
    }


def validate_metrics(val: dict, n_records: int) -> dict:
    """Per-layer numbers from the spans of validate_dataset over every split."""
    return {
        name + ".ms_per_record": 1000.0 * _entry(val, name)["total_s"] / n_records
        for name in (
            "querygen.parse_form",
            "serialize.read_samples",
            "serialize.read_relational_context",
        )
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]
