"""Independent brute-force query evaluator for cross-checking the package.

Deliberately written as plain exhaustive scans over the logical-form
dict and the snapshots, with its own vector math (cross products rather
than closed-form direction vectors) and its own answer formatting. It
must stay decoupled from gridqa.oracle internals.
"""

import math
from decimal import ROUND_HALF_UP, Decimal

from gridqa.worldcore import Entity

UP = (0.0, 1.0, 0.0)
PROPERTY_PREDS = ("has_tag", "has_colour", "has_type")


def pos(obj):
    if isinstance(obj, Entity):
        return (obj.pose.x, obj.pose.y, obj.pose.z)
    xs = [v[0] for v in obj.voxels]
    ys = [v[1] for v in obj.voxels]
    zs = [v[2] for v in obj.voxels]
    return (sum(xs) / len(xs), sum(ys) / len(ys), sum(zs) / len(zs))


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def side_vector(pose, side):
    """left/right/front/back unit vector via look x up, re-derived."""
    yaw, pitch = math.radians(pose.yaw), math.radians(pose.pitch)
    look = (
        -math.sin(yaw) * math.cos(pitch),
        -math.sin(pitch),
        math.cos(yaw) * math.cos(pitch),
    )
    right = cross(look, UP)
    right = (right[0], 0.0, right[2])
    front = (look[0], 0.0, look[2])
    chosen = {
        "right": right,
        "left": tuple(-c for c in right),
        "front": front,
        "back": tuple(-c for c in front),
    }[side]
    n = math.sqrt(dot(chosen, chosen))
    return tuple(c / n for c in chosen)


def find_owner(frame_or_pronoun, snapshot):
    want = "player" if frame_or_pronoun in ("my", "me") else "agent"
    for obj in snapshot.reference_objects:
        if isinstance(obj, Entity) and obj.kind == want:
            return obj
    raise AssertionError("frame owner missing")


def deref(ref, snapshot):
    if ref["by"] in ("me", "you"):
        return find_owner("my" if ref["by"] == "me" else "your", snapshot)
    hits = []
    for obj in snapshot.reference_objects:
        if not isinstance(obj, Entity):
            continue
        if ref["by"] == "name" and obj.name == ref["word"]:
            hits.append(obj)
        if ref["by"] == "type" and obj.type_word == ref["word"]:
            hits.append(obj)
    assert len(hits) == 1, f"ref {ref} resolved to {len(hits)} objects"
    return hits[0]


def words_of(memid, snapshot, predicates):
    return {
        t.object_text
        for t in snapshot.triples
        if t.subject_memid == memid and t.predicate in predicates
    }


def movement(snapshots):
    first, last = snapshots[0], snapshots[-1]
    first_positions = {
        o.memid: pos(o) for o in first.reference_objects if isinstance(o, Entity)
    }
    out = {}
    for obj in last.reference_objects:
        if isinstance(obj, Entity) and obj.memid in first_positions:
            p0, p1 = first_positions[obj.memid], pos(obj)
            out[obj.memid] = tuple(b - a for a, b in zip(p0, p1))
    return out


def best(scores):
    top = max(scores.values())
    winners = sorted(m for m, s in scores.items() if s == top)
    # equal-score ties break on the smaller id
    return min(winners)


def clause_members(clause, snapshots):
    """Memids matched by one positive clause, by exhaustive scan."""
    kind, args = clause["kind"], clause["args"]
    last = snapshots[-1]
    objs = list(last.reference_objects)
    if kind == "name":
        return {o.memid for o in objs if args["name"] in words_of(o.memid, last, ("has_name",))}
    if kind == "tag":
        return {o.memid for o in objs if args["tag"] in words_of(o.memid, last, PROPERTY_PREDS)}
    if kind == "absolute_cardinal":
        i = {"x": 0, "y": 1, "z": 2}[args["axis"]]
        out = set()
        for o in objs:
            v = pos(o)[i]
            ok = v < args["threshold"] if args["comparator"] == "less" else v > args["threshold"]
            if ok:
                out.add(o.memid)
        return out
    if kind == "absolute_distance":
        point = tuple(args["point"])
        out = set()
        for o in objs:
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(pos(o), point)))
            ok = d < args["threshold"] if args["comparator"] == "less" else d > args["threshold"]
            if ok:
                out.add(o.memid)
        return out
    if kind == "direction":
        owner = find_owner(args["frame"], last)
        vec = side_vector(owner.pose, args["side"])
        origin = pos(owner)
        return {
            o.memid
            for o in objs
            if dot(tuple(a - b for a, b in zip(pos(o), origin)), vec) > 0
        }
    if kind == "closest_object":
        anchor = deref(args["anchor"], last)
        scores = {
            o.memid: -math.sqrt(sum((a - b) ** 2 for a, b in zip(pos(o), pos(anchor))))
            for o in objs
            if o.memid != anchor.memid
        }
        return {best(scores)}
    if kind == "max_direction":
        owner = find_owner(args["frame"], last)
        vec = side_vector(owner.pose, args["side"])
        origin = pos(owner)
        scores = {
            o.memid: dot(tuple(a - b for a, b in zip(pos(o), origin)), vec)
            for o in objs
            if o.memid != owner.memid
        }
        return {best(scores)}
    if kind == "farthest_moved":
        scores = {m: math.sqrt(dot(d, d)) for m, d in movement(snapshots).items()}
        return {best(scores)}
    if kind == "temporal_cardinal":
        i = {"x": 0, "y": 1, "z": 2}[args["axis"]]
        scores = {m: d[i] for m, d in movement(snapshots).items()}
        return {best(scores)}
    if kind == "temporal_relative":
        owner = find_owner(args["frame"], last)
        vec = side_vector(owner.pose, args["side"])
        scores = {
            m: dot(d, vec) for m, d in movement(snapshots).items() if m != owner.memid
        }
        return {best(scores)}
    raise AssertionError(f"not a set clause: {kind}")


def round_away(v):
    return int(math.floor(v + 0.5)) if v >= 0 else -int(math.floor(-v + 0.5))


def fmt_loc(p):
    return "(" + ", ".join(str(round_away(c)) for c in p) + ")"


def fmt_dist(d):
    return str(Decimal(repr(float(d))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def value_query(form, snapshots, action_log):
    clause = form["root"]
    kind, args = clause["kind"], clause["args"]
    last = snapshots[-1]
    if kind == "action":
        return action_log[-1]["action"] if action_log else "nothing"
    if kind == "location_at_time":
        snap = snapshots[0] if args["time"] == "beginning" else last
        return fmt_loc(pos(deref(args["ref"], snap)))
    if kind == "object_tracking":
        obj = deref(args["ref"], last)
        speaker = find_owner("my", last)
        moved = tuple(t + a - b for t, a, b in zip(args["target"], pos(obj), pos(speaker)))
        return fmt_loc(moved)
    if kind == "distance_between":
        a = pos(deref(args["a"], last))
        b = pos(deref(args["b"], last))
        return fmt_dist(math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b))))
    if kind == "distance_from_position":
        owner = find_owner(args["frame"], last)
        vec = side_vector(owner.pose, args["side"])
        p = pos(owner)
        return fmt_loc(tuple(c + args["steps"] * v for c, v in zip(p, vec)))
    raise AssertionError(f"not a value clause: {kind}")


def execute(form_dict, snapshots, action_log=()):
    """Answer text for a logical form, computed the slow way."""
    root = form_dict["root"]
    return_type = form_dict["return_type"]
    if "op" not in root and root["kind"] in (
        "location_at_time",
        "action",
        "object_tracking",
        "distance_between",
        "distance_from_position",
    ):
        return value_query(form_dict, snapshots, action_log)

    last = snapshots[-1]
    everything = {o.memid for o in last.reference_objects}
    clauses = root["children"] if "op" in root else [root]
    sets = []
    for clause in clauses:
        members = clause_members(clause, snapshots)
        if clause["negated"]:
            members = everything - members
        sets.append(members)
    if len(sets) == 1:
        result = sets[0]
    elif root["op"] == "and":
        result = sets[0] & sets[1]
    else:
        result = sets[0] | sets[1]

    if return_type == "count":
        return str(len(result))
    objects = [o for o in last.reference_objects if o.memid in result]
    if return_type == "name":
        names = sorted(o.name for o in objects if isinstance(o, Entity))
        assert names, "empty name answer"
        return ", ".join(names)
    if return_type == "tag":
        words = set()
        for o in objects:
            words |= words_of(o.memid, last, PROPERTY_PREDS)
        assert words, "empty tag answer"
        return ", ".join(sorted(words))
    if return_type == "location":
        assert objects, "empty location answer"
        return ", ".join(sorted(fmt_loc(pos(o)) for o in objects))
    raise AssertionError(f"unknown return type {return_type}")
