"""Query forms: sampling, template rendering, and parsing.

A query is one clause, or two combinable clauses joined by "and"/"or",
plus a return type. Clause kinds fall into three classes:

    property   name, tag, absolute_cardinal
    temporal   temporal_cardinal, temporal_relative, farthest_moved,
               location_at_time, action, object_tracking
    geometric  absolute_distance, direction, closest_object,
               max_direction, distance_between, distance_from_position

Standalone kinds (farthest_moved, location_at_time, action,
object_tracking, closest_object, max_direction, distance_between,
distance_from_position) never combine with a sibling clause and never
negate. Query text is a deterministic rendering of the form; the
grammar is documented in FORMAT.md and parse_form is its exact inverse.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

from .worldcore import PROPERTY_PREDICATES, Snapshot, object_position

if TYPE_CHECKING:
    from .config import GenConfig

PROPERTY_KINDS = ("name", "tag", "absolute_cardinal")
TEMPORAL_KINDS = (
    "temporal_cardinal",
    "temporal_relative",
    "farthest_moved",
    "location_at_time",
    "action",
    "object_tracking",
)
GEOMETRIC_KINDS = (
    "absolute_distance",
    "direction",
    "closest_object",
    "max_direction",
    "distance_between",
    "distance_from_position",
)

CLASS_OF = {k: "property" for k in PROPERTY_KINDS}
CLASS_OF.update({k: "temporal" for k in TEMPORAL_KINDS})
CLASS_OF.update({k: "geometric" for k in GEOMETRIC_KINDS})

ALL_KINDS = PROPERTY_KINDS + TEMPORAL_KINDS + GEOMETRIC_KINDS

COMBINABLE_KINDS = frozenset(
    {
        "name",
        "tag",
        "absolute_cardinal",
        "temporal_cardinal",
        "temporal_relative",
        "absolute_distance",
        "direction",
    }
)
STANDALONE_KINDS = frozenset(ALL_KINDS) - COMBINABLE_KINDS

# clause kinds that select a single object by maximizing a score
ARGMAX_KINDS = frozenset(
    {"temporal_cardinal", "temporal_relative", "farthest_moved", "closest_object", "max_direction"}
)
# clause kinds that directly denote a value instead of filtering objects
VALUE_KINDS = frozenset(
    {"location_at_time", "action", "object_tracking", "distance_between", "distance_from_position"}
)

FORCED_RETURN = {
    "location_at_time": "location",
    "object_tracking": "location",
    "distance_from_position": "location",
    "distance_between": "distance",
    "action": "action_name",
}

RETURN_TYPES = ("name", "tag", "location", "distance", "count", "action_name")

AXES = ("x", "y", "z")
SIDES = ("left", "right", "front", "back")
FRAMES = ("my", "your")
COMPARATORS = ("less", "greater")
TIMES = ("beginning", "now")

TIE_MARGIN = 1e-6


class QueryFormError(ValueError):
    """A clause tree violates the combination or return-type rules."""


class QueryParseError(ValueError):
    """Text is not in the query grammar. Carries the failure position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnanswerableSceneError(RuntimeError):
    """No answerable query found within the rejection budget."""


@dataclass(frozen=True)
class Clause:
    kind: str
    negated: bool = False
    args: dict = field(default_factory=dict)

    @property
    def query_class(self) -> str:
        return CLASS_OF[self.kind]

    def to_dict(self) -> dict:
        return {
            "class": self.query_class,
            "kind": self.kind,
            "negated": self.negated,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Clause":
        return cls(kind=data["kind"], negated=data["negated"], args=dict(data["args"]))


@dataclass(frozen=True)
class QueryForm:
    """Clause tree plus return type. clauses has one or two entries."""

    clauses: tuple[Clause, ...]
    return_type: str
    op: str | None = None  # "and" | "or" when two clauses

    def __post_init__(self):
        validate_form(self)

    @property
    def query_class(self) -> str:
        return self.clauses[0].query_class

    def to_dict(self) -> dict:
        if len(self.clauses) == 1:
            root = self.clauses[0].to_dict()
        else:
            root = {"op": self.op, "children": [c.to_dict() for c in self.clauses]}
        return {"return_type": self.return_type, "root": root}

    @classmethod
    def from_dict(cls, data: dict) -> "QueryForm":
        root = data["root"]
        if "op" in root:
            clauses = tuple(Clause.from_dict(c) for c in root["children"])
            return cls(clauses=clauses, return_type=data["return_type"], op=root["op"])
        return cls(clauses=(Clause.from_dict(root),), return_type=data["return_type"])


def validate_form(form: QueryForm) -> None:
    if not 1 <= len(form.clauses) <= 2:
        raise QueryFormError("a query has one or two clauses")
    for clause in form.clauses:
        if clause.kind not in ALL_KINDS:
            raise QueryFormError(f"unknown clause kind {clause.kind!r}")
        if clause.kind in STANDALONE_KINDS and clause.negated:
            raise QueryFormError(f"standalone clause {clause.kind} cannot be negated")
    if len(form.clauses) == 2:
        if form.op not in ("and", "or"):
            raise QueryFormError("two-clause queries need op 'and' or 'or'")
        for clause in form.clauses:
            if clause.kind not in COMBINABLE_KINDS:
                raise QueryFormError(f"clause {clause.kind} cannot be combined")
    elif form.op is not None:
        raise QueryFormError("single-clause queries carry no op")
    allowed = allowed_return_types(form.clauses, form.op)
    if form.return_type not in allowed:
        raise QueryFormError(
            f"return type {form.return_type!r} not allowed for "
            f"{[c.kind for c in form.clauses]} (allowed: {allowed})"
        )


def _is_singleton(clause: Clause) -> bool:
    # positive argmax clauses and positive name clauses select at most one object
    return not clause.negated and (clause.kind in ARGMAX_KINDS or clause.kind == "name")


def allowed_return_types(clauses: tuple[Clause, ...], op: str | None) -> tuple[str, ...]:
    """Return types compatible with a clause combination.

    Rules: value clauses force their own return; a lone positive argmax
    clause answers with the object's name or a property; count is
    barred whenever the query can only ever have one output; and an
    "and" over a name clause cannot ask for the name back.
    """
    first = clauses[0]
    if first.kind in VALUE_KINDS:
        return (FORCED_RETURN[first.kind],)
    if len(clauses) == 1 and first.kind in ARGMAX_KINDS and not first.negated:
        return ("name", "tag")
    allowed = {"name", "tag", "location", "count"}
    conjunctive = op != "or"
    if conjunctive and any(_is_singleton(c) for c in clauses):
        allowed.discard("count")
    if conjunctive and any(c.kind == "name" and not c.negated for c in clauses):
        allowed.discard("name")
    return tuple(rt for rt in RETURN_TYPES if rt in allowed)


# --- grammar -----------------------------------------------------------------
#
# One template per clause kind (two for location_at_time, one per time).
# "{arg:slot}" writes a clause argument by its slot type; "{neg:A|B}"
# reads A when the clause is negated and B when it is not. Value kinds
# are whole queries; the others are fragments that follow a head and
# join with " and " / " or ". render_text and parse_form both read the
# compiled table, and FORMAT.md lists it verbatim.

HEADS = {
    ("name", False): "what are the names of the objects",
    ("name", True): "what is the name of the object",
    ("tag", False): "what are the properties of the objects",
    ("tag", True): "what are the properties of the object",
    ("location", False): "what are the locations of the objects",
    ("count", False): "what is the count of the objects",
}

# (kind, args fixed by the entry, template)
TEMPLATES = (
    ("name", {}, "that {neg:do not have|have} the name {name:word}"),
    ("tag", {}, "that {neg:do not have|has} the property {tag:word}"),
    ("absolute_cardinal", {},
     "where the {axis:axis} coordinate is {neg:not |}{comparator:cmp} than {threshold:num}"),
    ("absolute_distance", {},
     "where the distance to {point:point} is {neg:not |}{comparator:cmp} than {threshold:num}"),
    ("direction", {}, "{neg:not to|to} {frame:frame} {side:side}"),
    ("temporal_cardinal", {}, "that {neg:did not increase|increased} {axis:axis} the most"),
    ("temporal_relative", {},
     "that {neg:did not move|moved} to {frame:frame} {side:side} the most"),
    ("farthest_moved", {}, "that moved the farthest"),
    ("closest_object", {}, "that is closest to {anchor:ref}"),
    ("max_direction", {}, "that is the most to {frame:frame} {side:side}"),
    ("action", {}, "what did you do?"),
    ("location_at_time", {"time": "beginning"},
     "what was the location of {ref:ref} at the beginning?"),
    ("location_at_time", {"time": "now"}, "what is the location of {ref:ref} now?"),
    ("object_tracking", {}, "where would {ref:ref} be if i moved to {target:cell}?"),
    ("distance_between", {}, "how far is {a:ref} from {b:ref}?"),
    ("distance_from_position", {},
     "what is the location {steps:int} steps to {frame:frame} {side:side}?"),
)


def _fmt_num(v: float) -> str:
    if float(v) == int(v):
        return str(int(v))
    return repr(round(float(v), 2))


def _fmt_ref(ref: dict) -> str:
    if ref["by"] == "type":
        return f"the {ref['word']}"
    return ref.get("word", ref["by"])


def _parse_ref(text: str) -> dict:
    if text in ("me", "you"):
        return {"by": text}
    if text.startswith("the "):
        return {"by": "type", "word": text[4:]}
    return {"by": "name", "word": text}


class _Slot(NamedTuple):
    regex: str
    render: Callable
    parse: Callable


def _neg_slot(negated: str, positive: str) -> _Slot:
    return _Slot(
        f"{re.escape(negated)}|{re.escape(positive)}",
        lambda neg: negated if neg else positive,
        negated.__eq__,
    )


def _ints(text: str) -> list[int]:
    return [int(v) for v in re.findall(r"\d+", text)]


_WORD = r"[a-z_]+"
_SLOTS = {
    "word": _Slot(_WORD, str, str),
    "num": _Slot(r"\d+(?:\.\d+)?", _fmt_num, float),
    "int": _Slot(r"\d+", str, int),
    "axis": _Slot("|".join(AXES), str, str),
    "cmp": _Slot("|".join(COMPARATORS), str, str),
    "frame": _Slot("|".join(FRAMES), str, str),
    "side": _Slot("|".join(SIDES), str, str),
    "ref": _Slot(rf"the {_WORD}|{_WORD}", _fmt_ref, _parse_ref),
    "point": _Slot(r"\(\d+, \d+, \d+\)", lambda p: "({}, {}, {})".format(*p), _ints),
    "cell": _Slot(r"\(\d+,\d+,\d+\)", lambda p: "({},{},{})".format(*p), _ints),
}

_SLOT_RE = re.compile(r"\{(\w+):([^}]*)\}")


class _Entry(NamedTuple):
    kind: str
    fixed: dict
    fmt: str  # the template with each slot reduced to "{name}"
    slots: dict[str, _Slot]
    regex: re.Pattern


def _compile(kind: str, fixed: dict, template: str) -> _Entry:
    pieces = _SLOT_RE.split(template)  # literal, name, spec, literal, ...
    slots = {}
    pattern = re.escape(pieces[0])
    for name, spec, literal in zip(pieces[1::3], pieces[2::3], pieces[3::3]):
        slots[name] = _neg_slot(*spec.split("|")) if name == "neg" else _SLOTS[spec]
        pattern += f"(?P<{name}>{slots[name].regex}){re.escape(literal)}"
    return _Entry(kind, fixed, _SLOT_RE.sub(r"{\1}", template), slots, re.compile(pattern))


_ENTRIES = tuple(_compile(*row) for row in TEMPLATES)
_BY_KIND = {kind: [e for e in _ENTRIES if e.kind == kind] for kind in ALL_KINDS}
_QUERY_ENTRIES = tuple(e for e in _ENTRIES if e.kind in VALUE_KINDS)
_FILTER_ENTRIES = tuple(e for e in _ENTRIES if e.kind not in VALUE_KINDS)
_HEAD_KEYS = {text: key for key, text in HEADS.items()}


def _render_clause(clause: Clause) -> str:
    values = {"neg": clause.negated, **clause.args}
    for entry in _BY_KIND[clause.kind]:
        if entry.fixed.items() <= values.items():
            return entry.fmt.format_map(
                {name: slot.render(values[name]) for name, slot in entry.slots.items()}
            )
    raise QueryFormError(f"no template for clause {clause.kind!r} with args {clause.args}")


def _match_clause(text: str, entries: tuple[_Entry, ...]) -> Clause | None:
    for entry in entries:
        m = entry.regex.fullmatch(text)
        if m:
            values = {name: slot.parse(m[name]) for name, slot in entry.slots.items()}
            negated = values.pop("neg", False)
            return Clause(entry.kind, negated, {**entry.fixed, **values})
    return None


def render_text(form: QueryForm) -> str:
    """Deterministic English rendering of a query form."""
    first = form.clauses[0]
    if first.kind in VALUE_KINDS:
        return _render_clause(first)
    singular = len(form.clauses) == 1 and first.kind in ARGMAX_KINDS and not first.negated
    joiner = f" {form.op} " if form.op else ""
    body = joiner.join(_render_clause(c) for c in form.clauses)
    return f"{HEADS[(form.return_type, singular)]} {body}?"


def _parse_fragment(text: str, offset: int) -> Clause:
    clause = _match_clause(text, _FILTER_ENTRIES)
    if clause is None:
        raise QueryParseError(f"unrecognized clause {text!r}", offset)
    return clause


def _read_form(text: str) -> QueryForm:
    head = next((h for h in _HEAD_KEYS if text.startswith(h + " ")), None)
    if head is None:
        clause = _match_clause(text, _QUERY_ENTRIES)
        if clause is None:
            raise QueryParseError("no query head found", 0)
        return QueryForm(clauses=(clause,), return_type=FORCED_RETURN[clause.kind])
    if not text.endswith("?"):
        raise QueryParseError("malformed query body", len(head))
    offset = len(head) + 1
    body = text[offset:-1]
    op = next((op for op in ("and", "or") if f" {op} " in body), None)
    if op is None:
        clauses = (_parse_fragment(body, offset),)
    else:
        left, right = body.split(f" {op} ", 1)
        right_offset = offset + len(left) + len(op) + 2
        clauses = (_parse_fragment(left, offset), _parse_fragment(right, right_offset))
    try:
        return QueryForm(clauses=clauses, return_type=_HEAD_KEYS[head][0], op=op)
    except QueryFormError as exc:
        raise QueryParseError(str(exc), offset) from exc


def parse_form(query_text: str) -> QueryForm:
    """Exact inverse of render_text. Raises QueryParseError on any other text."""
    form = _read_form(query_text)
    canonical = render_text(form)
    if canonical != query_text:
        position = next(
            (i for i, (a, b) in enumerate(zip(canonical, query_text)) if a != b),
            min(len(canonical), len(query_text)),
        )
        raise QueryParseError(f"text is not the rendering {canonical!r} of its form", position)
    return form


# --- sampling ----------------------------------------------------------------

_CLASS_KINDS = {
    "property": PROPERTY_KINDS,
    "temporal": TEMPORAL_KINDS,
    "geometric": GEOMETRIC_KINDS,
}


def _entity_names(snapshot: Snapshot) -> list[str]:
    return sorted(e.name for e in snapshot.entities())


def _unique_types(snapshot: Snapshot) -> list[str]:
    counts: dict[str, int] = {}
    for e in snapshot.entities():
        counts[e.type_word] = counts.get(e.type_word, 0) + 1
    return sorted(w for w, n in counts.items() if n == 1)


def _property_words(snapshot: Snapshot) -> list[str]:
    words = {
        t.object_text
        for t in snapshot.triples
        if t.predicate in PROPERTY_PREDICATES
    }
    return sorted(words)


def _ref_options(snapshot: Snapshot, exclude: set[str] = frozenset()) -> list[dict]:
    """Entities referable by unique name or by unique type word."""
    options = [{"by": "name", "word": n} for n in _entity_names(snapshot) if n not in exclude]
    return options + [{"by": "type", "word": w} for w in _unique_types(snapshot) if w not in exclude]


def _sample_entity_ref(snapshot: Snapshot, rng: random.Random, exclude: set[str] = frozenset()) -> dict:
    options = _ref_options(snapshot, exclude)
    if not options:
        raise UnanswerableSceneError("no referenceable entity in scene")
    return rng.choice(options)


def _sample_threshold(values: list[float], rng: random.Random) -> float | None:
    """Pick a cut strictly between two realized values, integers preferred."""
    distinct = sorted(set(values))
    if len(distinct) < 2:
        return None
    k = rng.randint(1, len(distinct) - 1)
    lo, hi = distinct[k - 1], distinct[k]
    ints = [v for v in range(int(lo) , int(hi) + 2) if lo + TIE_MARGIN < v < hi - TIE_MARGIN]
    if ints:
        return float(rng.choice(ints))
    mid = round((lo + hi) / 2.0, 2)
    if lo + TIE_MARGIN < mid < hi - TIE_MARGIN:
        return float(mid)
    return None


def _sample_clause(
    kind: str,
    snapshots: list[Snapshot],
    config: "GenConfig",
    rng: random.Random,
    allow_negation: bool,
) -> Clause | None:
    from . import oracle  # cycle: oracle executes forms defined here

    last = snapshots[-1]
    negated = (
        allow_negation
        and kind in COMBINABLE_KINDS
        and rng.random() < config.negation_prob
    )
    if kind == "name":
        names = _entity_names(last)
        return Clause("name", negated, {"name": rng.choice(names)})
    if kind == "tag":
        words = _property_words(last)
        if not words:
            return None
        return Clause("tag", negated, {"tag": rng.choice(words)})
    if kind == "absolute_cardinal":
        axis = rng.choice(AXES)
        values = [
            object_position(obj)[AXES.index(axis)] for obj in last.reference_objects
        ]
        threshold = _sample_threshold(values, rng)
        if threshold is None:
            return None
        return Clause(
            "absolute_cardinal",
            negated,
            {"axis": axis, "comparator": rng.choice(COMPARATORS), "threshold": threshold},
        )
    if kind == "absolute_distance":
        point = [rng.randrange(config.world_size) for _ in range(3)]
        values = [
            oracle.distance_to_point(obj, tuple(point)) for obj in last.reference_objects
        ]
        threshold = _sample_threshold(values, rng)
        if threshold is None:
            return None
        return Clause(
            "absolute_distance",
            negated,
            {"point": point, "comparator": rng.choice(COMPARATORS), "threshold": threshold},
        )
    if kind in ("direction", "temporal_relative", "max_direction"):
        return Clause(kind, negated, {"frame": rng.choice(FRAMES), "side": rng.choice(SIDES)})
    if kind == "temporal_cardinal":
        return Clause("temporal_cardinal", negated, {"axis": rng.choice(AXES)})
    if kind in ("farthest_moved", "action"):
        return Clause(kind)
    if kind == "location_at_time":
        time = rng.choice(TIMES)
        snapshot = snapshots[0] if time == "beginning" else last
        return Clause(
            "location_at_time", args={"ref": _sample_entity_ref(snapshot, rng), "time": time}
        )
    if kind == "object_tracking":
        speaker = next(e.name for e in last.entities() if e.kind == "player")
        ref = _sample_entity_ref(last, rng, exclude={speaker, "player"})
        target = [rng.randrange(config.world_size) for _ in range(3)]
        return Clause("object_tracking", args={"ref": ref, "target": target})
    if kind == "closest_object":
        anchor = rng.choice([{"by": "me"}, {"by": "you"}] + _ref_options(last))
        return Clause("closest_object", args={"anchor": anchor})
    if kind == "distance_between":
        a = _sample_entity_ref(last, rng)
        b = rng.choice([{"by": "me"}, {"by": "you"}] + _ref_options(last))
        if oracle.resolve_ref(a, last).memid == oracle.resolve_ref(b, last).memid:
            return None
        return Clause("distance_between", args={"a": a, "b": b})
    if kind == "distance_from_position":
        return Clause(
            "distance_from_position",
            args={
                "frame": rng.choice(FRAMES),
                "side": rng.choice(SIDES),
                "steps": rng.randint(1, 5),
            },
        )
    raise QueryFormError(f"unknown clause kind {kind!r}")


def sample_query(
    snapshots: list[Snapshot],
    config: "GenConfig",
    rng: random.Random,
    action_log=(),
) -> tuple[QueryForm, str]:
    """Sample an answerable query against the snapshot history.

    The query class is drawn from the config weights, then clause kinds,
    arguments, conjunction and return type are rejection-sampled until
    the executed answer is non-empty (count and action queries aside)
    and free of argmax ties. Raises UnanswerableSceneError when the
    attempt budget runs out; callers regenerate the scene.
    """
    from . import oracle

    if not snapshots:
        raise ValueError("need at least one snapshot")
    classes = [c for c, w in config.class_weights.items() if w > 0]
    weights = [config.class_weights[c] for c in classes]
    query_class = rng.choices(classes, weights=weights, k=1)[0]
    if query_class == "temporal" and len(snapshots) < 2:
        raise ValueError("temporal queries need at least two snapshots")

    kinds = _CLASS_KINDS[query_class]
    combinable = [k for k in kinds if k in COMBINABLE_KINDS]
    for _ in range(config.query_attempts):
        two = len(combinable) >= 1 and rng.random() < config.two_clause_prob
        if two:
            chosen = [rng.choice(combinable), rng.choice(combinable)]
            op = rng.choice(["and", "or"])
        else:
            chosen = [rng.choice(list(kinds))]
            op = None
        clauses = []
        for kind in chosen:
            clause = _sample_clause(kind, snapshots, config, rng, allow_negation=True)
            if clause is None:
                break
            clauses.append(clause)
        if len(clauses) != len(chosen):
            continue
        if len(clauses) == 2 and clauses[0] == clauses[1]:
            continue
        allowed = allowed_return_types(tuple(clauses), op)
        return_type = rng.choice(list(allowed))
        try:
            form = QueryForm(clauses=tuple(clauses), return_type=return_type, op=op)
        except QueryFormError:
            continue
        try:
            oracle.execute(form, snapshots, action_log, tie_margin=TIE_MARGIN)
        except (oracle.UnanswerableQueryError, oracle.AmbiguousTieError):
            continue
        return form, render_text(form)
    raise UnanswerableSceneError(
        f"no answerable {query_class} query in {config.query_attempts} attempts"
    )
