"""Ground-truth query execution over snapshot histories.

Each clause kind has one evaluator, eval_<kind>, named by its
querygen.KINDS entry. A filter kind's evaluator returns the positive
match set and the directly matched triple ids; a value kind's returns
the value and the memids of the objects it is computed from. Filters
read the last snapshot; movement kinds compare the first and last
snapshots over animate objects present at both (blocks never move).
Negation is the complement within the reference objects of the last
snapshot, "and" intersects, "or" unions. Multi-item answers are sorted
alphabetically so every query has exactly one correct token sequence.

The speaker ("my", "me", "i") is the player; "your"/"you" is the agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import TYPE_CHECKING

from .worldcore import (
    AGENT,
    PLAYER,
    PROPERTY_PREDICATES,
    Entity,
    RefObject,
    Snapshot,
    Vec3,
    horizontal_direction,
    object_position,
    round_half_away,
)

if TYPE_CHECKING:
    from .querygen import Clause, QueryForm


class UnanswerableQueryError(RuntimeError):
    """The form has no non-empty answer against these snapshots."""


class AmbiguousTieError(RuntimeError):
    """Top two argmax scores are closer than TIE_MARGIN."""


# an argmax winner must lead its runner-up by at least this much
TIE_MARGIN = 1e-6


@dataclass(frozen=True)
class Answer:
    text: str
    relevant_memids: tuple[str, ...]  # R_ids and T_ids, sorted


def distance_to_point(obj: RefObject, point: Vec3) -> float:
    return math.dist(object_position(obj), point)


def resolve_ref(ref: dict, snapshot: Snapshot) -> Entity:
    """Resolve a name/type/me/you reference to a unique entity."""
    by = ref["by"]
    if by in ("me", "you"):
        kind = PLAYER if by == "me" else AGENT
        for e in snapshot.entities():
            if e.kind == kind:
                return e
        raise UnanswerableQueryError(f"no {kind} in snapshot")
    attr = "name" if by == "name" else "type_word"
    matches = [e for e in snapshot.entities() if getattr(e, attr) == ref["word"]]
    if len(matches) != 1:
        raise UnanswerableQueryError(f"reference {ref!r} matches {len(matches)} entities")
    return matches[0]


def _frame_owner(frame: str, snapshot: Snapshot) -> Entity:
    return resolve_ref({"by": "me" if frame == "my" else "you"}, snapshot)


def _argmax(scores: dict[str, float]) -> str:
    if not scores:
        raise UnanswerableQueryError("empty argmax domain")
    ranked = sorted(scores.items(), key=lambda kv: -kv[1])
    if len(ranked) >= 2 and ranked[0][1] - ranked[1][1] < TIE_MARGIN:
        raise AmbiguousTieError("argmax winner within tie margin of runner-up")
    return ranked[0][0]


def movement_deltas(snapshots: list[Snapshot]) -> dict[str, Vec3]:
    """Displacement of each animate object present at both endpoints."""
    first, last = snapshots[0], snapshots[-1]
    deltas: dict[str, Vec3] = {}
    for entity in last.entities():
        if not first.has_memid(entity.memid):
            continue
        start = first.lookup(entity.memid)
        p0, p1 = object_position(start), entity.pose.position
        deltas[entity.memid] = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
    return deltas


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# --- clause evaluation: every evaluator takes (args, snapshots, action_log)


def _triples_matching(snapshot: Snapshot, predicates, word: str) -> tuple[set[str], set[str]]:
    triples = [t for t in snapshot.triples if t.predicate in predicates and t.object_text == word]
    return {t.subject_memid for t in triples}, {t.t_id for t in triples}


def _threshold_filter(snapshot: Snapshot, value, args: dict) -> tuple[set[str], set[str]]:
    threshold, less = args["threshold"], args["comparator"] == "less"
    matched = {
        obj.memid
        for obj in snapshot.reference_objects
        if (value(obj) < threshold if less else value(obj) > threshold)
    }
    return matched, set()


def _side_scores(args: dict, snapshot: Snapshot) -> tuple[Entity, dict[str, float]]:
    """The frame owner, and each reference object's offset from it along the side."""
    owner = _frame_owner(args["frame"], snapshot)
    direction = horizontal_direction(owner.pose, args["side"])
    origin = owner.pose.position
    scores = {}
    for obj in snapshot.reference_objects:
        p = object_position(obj)
        scores[obj.memid] = _dot((p[0] - origin[0], p[1] - origin[1], p[2] - origin[2]), direction)
    return owner, scores


def eval_name(args, snapshots, action_log):
    return _triples_matching(snapshots[-1], ("has_name",), args["name"])


def eval_tag(args, snapshots, action_log):
    return _triples_matching(snapshots[-1], PROPERTY_PREDICATES, args["tag"])


def eval_absolute_cardinal(args, snapshots, action_log):
    index = "xyz".index(args["axis"])
    return _threshold_filter(snapshots[-1], lambda obj: object_position(obj)[index], args)


def eval_absolute_distance(args, snapshots, action_log):
    point = tuple(args["point"])
    return _threshold_filter(snapshots[-1], lambda obj: distance_to_point(obj, point), args)


def eval_direction(args, snapshots, action_log):
    _, scores = _side_scores(args, snapshots[-1])
    return {m for m, score in scores.items() if score > 0.0}, set()


def eval_max_direction(args, snapshots, action_log):
    owner, scores = _side_scores(args, snapshots[-1])
    scores.pop(owner.memid, None)
    return {_argmax(scores)}, set()


def eval_closest_object(args, snapshots, action_log):
    snapshot = snapshots[-1]
    anchor = resolve_ref(args["anchor"], snapshot)
    scores = {
        obj.memid: -math.dist(object_position(obj), anchor.pose.position)
        for obj in snapshot.reference_objects
        if obj.memid != anchor.memid
    }
    return {_argmax(scores)}, set()


def eval_farthest_moved(args, snapshots, action_log):
    scores = {m: math.hypot(*d) for m, d in movement_deltas(snapshots).items()}
    return {_argmax(scores)}, set()


def eval_temporal_cardinal(args, snapshots, action_log):
    index = "xyz".index(args["axis"])
    scores = {m: d[index] for m, d in movement_deltas(snapshots).items()}
    return {_argmax(scores)}, set()


def eval_temporal_relative(args, snapshots, action_log):
    owner = _frame_owner(args["frame"], snapshots[-1])
    direction = horizontal_direction(owner.pose, args["side"])
    deltas = movement_deltas(snapshots)
    scores = {m: _dot(d, direction) for m, d in deltas.items() if m != owner.memid}
    return {_argmax(scores)}, set()


def eval_location_at_time(args, snapshots, action_log):
    snapshot = snapshots[0] if args["time"] == "beginning" else snapshots[-1]
    entity = resolve_ref(args["ref"], snapshot)
    return entity.pose.position, (entity.memid,)


def eval_action(args, snapshots, action_log):
    value = action_log[-1]["action"] if action_log else "nothing"
    return value, (_frame_owner("your", snapshots[-1]).memid,)


def eval_object_tracking(args, snapshots, action_log):
    last = snapshots[-1]
    obj = resolve_ref(args["ref"], last)
    speaker = _frame_owner("my", last)
    target = args["target"]
    p, s = obj.pose.position, speaker.pose.position
    moved = (target[0] + p[0] - s[0], target[1] + p[1] - s[1], target[2] + p[2] - s[2])
    return moved, (obj.memid, speaker.memid)


def eval_distance_between(args, snapshots, action_log):
    a = resolve_ref(args["a"], snapshots[-1])
    b = resolve_ref(args["b"], snapshots[-1])
    return math.dist(a.pose.position, b.pose.position), (a.memid, b.memid)


def eval_distance_from_position(args, snapshots, action_log):
    owner = _frame_owner(args["frame"], snapshots[-1])
    direction = horizontal_direction(owner.pose, args["side"])
    steps = args["steps"]
    p = owner.pose.position
    moved = (p[0] + steps * direction[0], p[1] + steps * direction[1], p[2] + steps * direction[2])
    return moved, (owner.memid,)


def clause_match_set(clause: Clause, snapshots: list[Snapshot], action_log=()):
    """Evaluate one clause, ignoring its negation, with its kind's evaluator."""
    return clause.spec.evaluate(clause.args, snapshots, action_log)


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
    return str(value)  # action_name


def execute(form: QueryForm, snapshots: list[Snapshot], action_log=()) -> Answer:
    """Execute a query form, returning answer text and relevant memids.

    Raises UnanswerableQueryError when a non-count query has an empty
    answer (the sampler prevents such forms from being emitted), and
    AmbiguousTieError when an argmax winner leads its runner-up by less
    than TIE_MARGIN.
    """
    first = form.clauses[0]
    if first.spec.returns:
        value, operands = clause_match_set(first, snapshots, action_log)
        text = format_answer(value, form.return_type)
        return Answer(text, tuple(sorted(operands)))

    last = snapshots[-1]
    result: set[str] | None = None
    matched_triples: set[str] = set()
    for clause in form.clauses:
        memids, t_ids = clause_match_set(clause, snapshots, action_log)
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

    objects = [last.lookup(m) for m in result]
    answer_objs = set(result)
    if form.return_type == "name":
        named = [o for o in objects if isinstance(o, Entity)]
        if not named:
            raise UnanswerableQueryError("no named object in answer set")
        value = {o.name for o in named}
        answer_objs = {o.memid for o in named}
    elif form.return_type == "count":
        value = len(result)
    elif not objects:
        raise UnanswerableQueryError("empty answer set")
    elif form.return_type == "tag":
        value = {
            t.object_text
            for t in last.triples
            if t.subject_memid in result and t.predicate in PROPERTY_PREDICATES
        }
    else:  # location
        value = [object_position(o) for o in objects]

    text = format_answer(value, form.return_type)
    subjects = {t.t_id: t.subject_memid for t in last.triples}
    relevant = answer_objs | {t for t in matched_triples if subjects.get(t) in answer_objs}
    return Answer(text, tuple(sorted(relevant)))
