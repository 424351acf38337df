"""Ground-truth query execution over snapshot histories.

Filter clauses evaluate on the most recent snapshot; temporal clauses
compare the first and last snapshots or read the action log. Negation
is the complement within the reference objects of the evaluation
snapshot, "and" intersects, "or" unions. Multi-item answers are sorted
alphabetically so every query has exactly one correct token sequence.

The speaker ("my", "me", "i") is the player; "your"/"you" is the agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .querygen import VALUE_KINDS, Clause, QueryForm
from .worldcore import (
    AGENT,
    PLAYER,
    PROPERTY_PREDICATES,
    Entity,
    RefObject,
    Snapshot,
    Vec3,
    horizontal_direction,
    memid_hex,
    object_position,
    round_half_away,
)


class UnanswerableQueryError(RuntimeError):
    """The form has no non-empty answer against these snapshots."""


class AmbiguousTieError(RuntimeError):
    """Top two argmax scores are closer than the tie margin."""


@dataclass(frozen=True)
class Answer:
    text: str
    relevant_memids: tuple[str, ...]  # hex R_ids and T_ids, sorted


def distance_to_point(obj: RefObject, point: Vec3) -> float:
    return math.dist(object_position(obj), point)


def resolve_ref(ref: dict, snapshot: Snapshot) -> Entity:
    """Resolve a name/type/me/you reference to a unique entity."""
    by = ref["by"]
    if by == "me":
        kind = PLAYER
    elif by == "you":
        kind = AGENT
    else:
        kind = None
    if kind is not None:
        for e in snapshot.entities():
            if e.kind == kind:
                return e
        raise UnanswerableQueryError(f"no {kind} in snapshot")
    word = ref["word"]
    if by == "name":
        matches = [e for e in snapshot.entities() if e.name == word]
    elif by == "type":
        matches = [e for e in snapshot.entities() if e.type_word == word]
    else:
        raise ValueError(f"unknown ref form {ref!r}")
    if len(matches) != 1:
        raise UnanswerableQueryError(
            f"reference {ref!r} matches {len(matches)} entities"
        )
    return matches[0]


def _frame_owner(frame: str, snapshot: Snapshot) -> Entity:
    return resolve_ref({"by": "me" if frame == "my" else "you"}, snapshot)


def _argmax(scores: dict[int, float], tie_margin: float | None) -> int:
    if not scores:
        raise UnanswerableQueryError("empty argmax domain")
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], memid_hex(kv[0])))
    if tie_margin is not None and len(ranked) >= 2:
        if ranked[0][1] - ranked[1][1] < tie_margin:
            raise AmbiguousTieError("argmax winner within tie margin of runner-up")
    return ranked[0][0]


def _movement_deltas(snapshots: list[Snapshot]) -> dict[int, Vec3]:
    """Displacement of each animate object present at both endpoints."""
    first, last = snapshots[0], snapshots[-1]
    deltas: dict[int, Vec3] = {}
    for entity in last.entities():
        if not first.has_memid(entity.memid):
            continue
        start = first.lookup(entity.memid)
        p0, p1 = object_position(start), entity.pose.position
        deltas[entity.memid] = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
    return deltas


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# --- per-class clause evaluation ---------------------------------------------


def property_eval(clause: Clause, snapshot: Snapshot) -> tuple[set[int], set[int]]:
    """Match set and directly matched triple ids for a property clause."""
    args = clause.args
    if clause.kind == "name":
        triples = [
            t
            for t in snapshot.triples
            if t.predicate == "has_name" and t.object_text == args["name"]
        ]
        return {t.subject_memid for t in triples}, {t.t_id for t in triples}
    if clause.kind == "tag":
        triples = [
            t
            for t in snapshot.triples
            if t.predicate in PROPERTY_PREDICATES and t.object_text == args["tag"]
        ]
        return {t.subject_memid for t in triples}, {t.t_id for t in triples}
    if clause.kind == "absolute_cardinal":
        index = "xyz".index(args["axis"])
        threshold = args["threshold"]
        matched = set()
        for obj in snapshot.reference_objects:
            value = object_position(obj)[index]
            if (value < threshold) if args["comparator"] == "less" else (value > threshold):
                matched.add(obj.memid)
        return matched, set()
    raise ValueError(f"not a property clause: {clause.kind}")


def geometric_eval(
    clause: Clause, snapshot: Snapshot, tie_margin: float | None = None
):
    """Evaluate a geometric clause on one snapshot.

    Filter kinds return a memid set; closest_object and max_direction
    return a singleton memid set; distance_between returns a float and
    distance_from_position a location.
    """
    args = clause.args
    if clause.kind == "absolute_distance":
        point = tuple(args["point"])
        threshold = args["threshold"]
        matched = set()
        for obj in snapshot.reference_objects:
            d = distance_to_point(obj, point)
            if (d < threshold) if args["comparator"] == "less" else (d > threshold):
                matched.add(obj.memid)
        return matched
    if clause.kind == "direction":
        owner = _frame_owner(args["frame"], snapshot)
        direction = horizontal_direction(owner.pose, args["side"])
        origin = owner.pose.position
        matched = set()
        for obj in snapshot.reference_objects:
            p = object_position(obj)
            offset = (p[0] - origin[0], p[1] - origin[1], p[2] - origin[2])
            if _dot(offset, direction) > 0.0:
                matched.add(obj.memid)
        return matched
    if clause.kind == "closest_object":
        anchor = resolve_ref(args["anchor"], snapshot)
        scores = {
            obj.memid: -math.dist(object_position(obj), anchor.pose.position)
            for obj in snapshot.reference_objects
            if obj.memid != anchor.memid
        }
        return {_argmax(scores, tie_margin)}
    if clause.kind == "max_direction":
        owner = _frame_owner(args["frame"], snapshot)
        direction = horizontal_direction(owner.pose, args["side"])
        origin = owner.pose.position
        scores = {}
        for obj in snapshot.reference_objects:
            if obj.memid == owner.memid:
                continue
            p = object_position(obj)
            scores[obj.memid] = _dot((p[0] - origin[0], p[1] - origin[1], p[2] - origin[2]), direction)
        return {_argmax(scores, tie_margin)}
    if clause.kind == "distance_between":
        a = resolve_ref(args["a"], snapshot)
        b = resolve_ref(args["b"], snapshot)
        return math.dist(a.pose.position, b.pose.position)
    if clause.kind == "distance_from_position":
        owner = _frame_owner(args["frame"], snapshot)
        direction = horizontal_direction(owner.pose, args["side"])
        steps = args["steps"]
        p = owner.pose.position
        return (
            p[0] + steps * direction[0],
            p[1] + steps * direction[1],
            p[2] + steps * direction[2],
        )
    raise ValueError(f"not a geometric clause: {clause.kind}")


def temporal_eval(
    clause: Clause,
    snapshots: list[Snapshot],
    action_log=(),
    tie_margin: float | None = None,
):
    """Evaluate a temporal clause over the snapshot history.

    Movement kinds compare first and last snapshots over animate
    objects present at both; blocks never move, so they are excluded
    from movement argmax domains.
    """
    args = clause.args
    last = snapshots[-1]
    if clause.kind == "farthest_moved":
        deltas = _movement_deltas(snapshots)
        scores = {m: math.hypot(*d) for m, d in deltas.items()}
        return {_argmax(scores, tie_margin)}
    if clause.kind == "temporal_cardinal":
        index = "xyz".index(args["axis"])
        deltas = _movement_deltas(snapshots)
        scores = {m: d[index] for m, d in deltas.items()}
        return {_argmax(scores, tie_margin)}
    if clause.kind == "temporal_relative":
        owner = _frame_owner(args["frame"], last)
        direction = horizontal_direction(owner.pose, args["side"])
        deltas = _movement_deltas(snapshots)
        scores = {m: _dot(d, direction) for m, d in deltas.items() if m != owner.memid}
        return {_argmax(scores, tie_margin)}
    if clause.kind == "location_at_time":
        snapshot = snapshots[0] if args["time"] == "beginning" else last
        return resolve_ref(args["ref"], snapshot).pose.position
    if clause.kind == "action":
        if action_log:
            return action_log[-1].action_name
        return "nothing"
    if clause.kind == "object_tracking":
        obj = resolve_ref(args["ref"], last)
        speaker = _frame_owner("my", last)
        target = tuple(args["target"])
        p, s = obj.pose.position, speaker.pose.position
        return (target[0] + p[0] - s[0], target[1] + p[1] - s[1], target[2] + p[2] - s[2])
    raise ValueError(f"not a temporal clause: {clause.kind}")


def clause_match_set(
    clause: Clause,
    snapshots: list[Snapshot],
    action_log=(),
    tie_margin: float | None = None,
) -> tuple[set[int], set[int]]:
    """Positive match set for a set-valued clause, plus matched triple ids."""
    if clause.query_class == "property":
        return property_eval(clause, snapshots[-1])
    if clause.query_class == "geometric":
        return geometric_eval(clause, snapshots[-1], tie_margin), set()
    return temporal_eval(clause, snapshots, action_log, tie_margin), set()


# --- answer assembly ----------------------------------------------------------


def _fmt_location(p: Vec3) -> str:
    return f"({round_half_away(p[0])}, {round_half_away(p[1])}, {round_half_away(p[2])})"


def format_answer(value, return_type: str) -> str:
    """Render an answer value as its canonical token sequence."""
    if return_type in ("name", "tag"):
        return ", ".join(sorted(value))
    if return_type == "location":
        if isinstance(value, (list, set)):
            return ", ".join(sorted(_fmt_location(p) for p in value))
        return _fmt_location(value)
    if return_type == "distance":
        quantized = Decimal(repr(float(value))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
        return str(quantized)
    if return_type == "count":
        return str(int(value))
    if return_type == "action_name":
        return str(value)
    raise ValueError(f"unknown return type {return_type!r}")


def _value_answer(form: QueryForm, snapshots: list[Snapshot], action_log) -> Answer:
    clause = form.clauses[0]
    last = snapshots[-1]
    value = temporal_eval(clause, snapshots, action_log) if clause.query_class == "temporal" \
        else geometric_eval(clause, last)
    if clause.kind == "location_at_time":
        snapshot = snapshots[0] if clause.args["time"] == "beginning" else last
        operands = [resolve_ref(clause.args["ref"], snapshot).memid]
    elif clause.kind == "object_tracking":
        operands = [
            resolve_ref(clause.args["ref"], last).memid,
            _frame_owner("my", last).memid,
        ]
    elif clause.kind == "distance_between":
        operands = [
            resolve_ref(clause.args["a"], last).memid,
            resolve_ref(clause.args["b"], last).memid,
        ]
    elif clause.kind == "distance_from_position":
        operands = [_frame_owner(clause.args["frame"], last).memid]
    else:  # action
        operands = [_frame_owner("your", last).memid]
    text = format_answer(value, form.return_type)
    return Answer(text, tuple(sorted(memid_hex(m) for m in operands)))


def execute(
    form: QueryForm,
    snapshots: list[Snapshot],
    action_log=(),
    tie_margin: float | None = None,
) -> Answer:
    """Execute a query form, returning answer text and relevant memids.

    Raises UnanswerableQueryError when a non-count query has an empty
    answer (the sampler prevents such forms from being emitted), and
    AmbiguousTieError when tie_margin is set and an argmax is too close
    to call.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    first = form.clauses[0]
    if first.kind in VALUE_KINDS:
        return _value_answer(form, snapshots, action_log)

    last = snapshots[-1]
    result: set[int] | None = None
    matched_triples: set[int] = set()
    for clause in form.clauses:
        memids, t_ids = clause_match_set(clause, snapshots, action_log, tie_margin)
        if clause.negated:
            memids = last.memids() - memids
            t_ids = set()
        matched_triples |= t_ids
        if result is None:
            result = memids
        elif form.op == "and":
            result &= memids
        else:
            result |= memids
    assert result is not None

    objects = [last.lookup(m) for m in result]
    if form.return_type == "name":
        named = [o for o in objects if isinstance(o, Entity)]
        if not named:
            raise UnanswerableQueryError("no named object in answer set")
        value = {o.name for o in named}
        answer_objs = {o.memid for o in named}
    elif form.return_type == "tag":
        if not objects:
            raise UnanswerableQueryError("empty answer set")
        value = {
            t.object_text
            for t in last.triples
            if t.subject_memid in result and t.predicate in PROPERTY_PREDICATES
        }
        answer_objs = set(result)
    elif form.return_type == "location":
        if not objects:
            raise UnanswerableQueryError("empty answer set")
        value = [object_position(o) for o in objects]
        answer_objs = set(result)
    elif form.return_type == "count":
        value = len(result)
        answer_objs = set(result)
    else:
        raise ValueError(f"return type {form.return_type!r} invalid for filter queries")

    text = format_answer(value, form.return_type)
    relevant = {memid_hex(m) for m in answer_objs}
    subjects = {t.t_id: t.subject_memid for t in last.triples}
    relevant |= {
        memid_hex(t)
        for t in matched_triples
        if subjects.get(t) in answer_objs
    }
    return Answer(text, tuple(sorted(relevant)))
