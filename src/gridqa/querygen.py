"""Query forms: sampling, template rendering, and parsing.

A query is one clause, or two combinable clauses joined by "and"/"or",
plus a return type. Each clause kind is one entry of KINDS: its query
class, its templates, the sampler that draws its arguments, the oracle
evaluator that answers it, and whether it combines, is an argmax or
forces a return type. Every other kind table here derives from KINDS.
Query text is a deterministic rendering of the form; the grammar is
documented in FORMAT.md and parse_form is its exact inverse.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import oracle
from .oracle import TIE_MARGIN
from .worldcore import PROPERTY_PREDICATES, Snapshot, object_position

if TYPE_CHECKING:
    from .config import GenConfig

RETURN_TYPES = ("name", "tag", "location", "distance", "count", "action_name")

AXES = ("x", "y", "z")
SIDES = ("left", "right", "front", "back")
FRAMES = ("my", "your")
COMPARATORS = ("less", "greater")
TIMES = ("beginning", "now")


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
    def spec(self) -> Kind:
        return KINDS[self.kind]

    @property
    def query_class(self) -> str:
        return self.spec.query_class

    def to_dict(self) -> dict:
        return {
            "class": self.query_class,
            "kind": self.kind,
            "negated": self.negated,
            "args": self.args,
        }


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


def validate_form(form: QueryForm) -> None:
    if not 1 <= len(form.clauses) <= 2:
        raise QueryFormError("a query has one or two clauses")
    for clause in form.clauses:
        if clause.kind not in KINDS:
            raise QueryFormError(f"unknown clause kind {clause.kind!r}")
        if not clause.spec.combinable and (clause.negated or len(form.clauses) == 2):
            raise QueryFormError(f"standalone clause {clause.kind} cannot be negated or combined")
    if len(form.clauses) == 2:
        if form.op not in ("and", "or"):
            raise QueryFormError("two-clause queries need op 'and' or 'or'")
    elif form.op is not None:
        raise QueryFormError("single-clause queries carry no op")
    allowed = allowed_return_types(form.clauses, form.op)
    if form.return_type not in allowed:
        raise QueryFormError(
            f"return type {form.return_type!r} not allowed for "
            f"{[c.kind for c in form.clauses]} (allowed: {allowed})"
        )


def _singular(clauses: tuple[Clause, ...]) -> bool:
    """Whether a query selects one object: one clause, an argmax kind, not negated."""
    return len(clauses) == 1 and clauses[0].spec.argmax and not clauses[0].negated


def allowed_return_types(clauses: tuple[Clause, ...], op: str | None) -> tuple[str, ...]:
    """Return types compatible with a clause combination.

    Rules: value clauses force their own return; a lone positive argmax
    clause answers with the object's name or a property; count is
    barred whenever the query can only ever have one output; and an
    "and" over a name clause cannot ask for the name back.
    """
    first = clauses[0]
    if first.spec.returns:
        return (first.spec.returns,)
    if _singular(clauses):
        return ("name", "tag")
    allowed = {"name", "tag", "location", "count"}
    if op != "or":
        # a positive argmax or name clause selects at most one object
        positive = [c for c in clauses if not c.negated]
        if any(c.spec.argmax or c.kind == "name" for c in positive):
            allowed.discard("count")
        if any(c.kind == "name" for c in positive):
            allowed.discard("name")
    return tuple(rt for rt in RETURN_TYPES if rt in allowed)


# --- grammar -----------------------------------------------------------------
#
# Each KINDS entry lists its templates (location_at_time has one per
# time). "{arg:slot}" writes a clause argument by its slot type;
# "{neg:A|B}" reads A when the clause is negated and B when it is not.
# Value kinds are whole queries; the others are fragments that follow a
# head and join with " and " / " or ". render_text and parse_form both
# read the compiled templates, and FORMAT.md lists them verbatim.

HEADS = {
    ("name", False): "what are the names of the objects",
    ("name", True): "what is the name of the object",
    ("tag", False): "what are the properties of the objects",
    ("tag", True): "what are the properties of the object",
    ("location", False): "what are the locations of the objects",
    ("count", False): "what is the count of the objects",
}


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


def is_query_word(text: str) -> bool:
    """Whether a word slot carries text there and back: [a-z_]+, and not a
    word that reads back as an op ("and", "or") or the speaker ("me", "you")."""
    return re.fullmatch(_WORD, text) is not None and text not in ("and", "or", "me", "you")


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
    if first.spec.returns:
        return _render_clause(first)
    joiner = f" {form.op} " if form.op else ""
    body = joiner.join(_render_clause(c) for c in form.clauses)
    return f"{HEADS[(form.return_type, _singular(form.clauses))]} {body}?"


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
        return QueryForm(clauses=(clause,), return_type=clause.spec.returns)
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


# --- the kind table ------------------------------------------------------------


def _entity_names(snapshot: Snapshot) -> list[str]:
    return sorted(e.name for e in snapshot.entities())


def _unique_types(snapshot: Snapshot) -> list[str]:
    counts = Counter(e.type_word for e in snapshot.entities())
    return sorted(w for w, n in counts.items() if n == 1)


def _property_words(snapshot: Snapshot) -> list[str]:
    return sorted({t.object_text for t in snapshot.triples if t.predicate in PROPERTY_PREDICATES})


def _ref_options(snapshot: Snapshot, exclude: set[str] = frozenset()) -> list[dict]:
    """Entities referable by unique name or by unique type word."""
    options = [{"by": "name", "word": n} for n in _entity_names(snapshot) if n not in exclude]
    types = [{"by": "type", "word": w} for w in _unique_types(snapshot) if w not in exclude]
    return options + types


def _sample_entity_ref(
    snapshot: Snapshot, rng: random.Random, exclude: set[str] = frozenset()
) -> dict:
    options = _ref_options(snapshot, exclude)
    if not options:
        raise UnanswerableSceneError("no referenceable entity in scene")
    return rng.choice(options)


def _sample_cut(args: dict, values: list[float], rng: random.Random) -> dict | None:
    """args plus a comparator and a threshold strictly between two
    realized values, integers preferred; None when there is no such cut."""
    distinct = sorted(set(values))
    if len(distinct) < 2:
        return None
    k = rng.randint(1, len(distinct) - 1)
    lo, hi = distinct[k - 1], distinct[k]
    ints = [v for v in range(int(lo), int(hi) + 2) if lo + TIE_MARGIN < v < hi - TIE_MARGIN]
    if ints:
        threshold = rng.choice(ints)
    else:
        threshold = round((lo + hi) / 2.0, 2)
        if not lo + TIE_MARGIN < threshold < hi - TIE_MARGIN:
            return None
    return {**args, "comparator": rng.choice(COMPARATORS), "threshold": float(threshold)}


# Each sampler takes (snapshots, config, rng) and returns the clause
# arguments, or None when this scene offers none; the sampler of a
# combinable kind runs after that clause's negation draw.


def _sample_name(snapshots, config, rng):
    return {"name": rng.choice(_entity_names(snapshots[-1]))}


def _sample_tag(snapshots, config, rng):
    words = _property_words(snapshots[-1])
    return {"tag": rng.choice(words)} if words else None


def _sample_absolute_cardinal(snapshots, config, rng):
    axis = rng.choice(AXES)
    index = AXES.index(axis)
    values = [object_position(obj)[index] for obj in snapshots[-1].reference_objects]
    return _sample_cut({"axis": axis}, values, rng)


def _sample_absolute_distance(snapshots, config, rng):
    point = [rng.randrange(config.world_size) for _ in range(3)]
    objects = snapshots[-1].reference_objects
    values = [oracle.distance_to_point(obj, tuple(point)) for obj in objects]
    return _sample_cut({"point": point}, values, rng)


def _sample_axis(snapshots, config, rng):
    # only an axis some entity's coordinate increased along can have a unique
    # argmax: along any other, every entity that stood still ties at 0
    deltas = oracle.movement_deltas(snapshots).values()
    increased = [axis for i, axis in enumerate(AXES) if any(d[i] > 0 for d in deltas)]
    return {"axis": rng.choice(increased)} if increased else None


def _sample_frame_side(snapshots, config, rng):
    return {"frame": rng.choice(FRAMES), "side": rng.choice(SIDES)}


def _sample_no_args(snapshots, config, rng):
    return {}


def _sample_location_at_time(snapshots, config, rng):
    time = rng.choice(TIMES)
    snapshot = snapshots[0] if time == "beginning" else snapshots[-1]
    return {"ref": _sample_entity_ref(snapshot, rng), "time": time}


def _sample_object_tracking(snapshots, config, rng):
    last = snapshots[-1]
    speaker = next(e.name for e in last.entities() if e.kind == "player")
    ref = _sample_entity_ref(last, rng, exclude={speaker, "player"})
    return {"ref": ref, "target": [rng.randrange(config.world_size) for _ in range(3)]}


def _sample_closest_object(snapshots, config, rng):
    return {"anchor": rng.choice([{"by": "me"}, {"by": "you"}] + _ref_options(snapshots[-1]))}


def _sample_distance_between(snapshots, config, rng):
    last = snapshots[-1]
    a = _sample_entity_ref(last, rng)
    b = rng.choice([{"by": "me"}, {"by": "you"}] + _ref_options(last))
    if oracle.resolve_ref(a, last).memid == oracle.resolve_ref(b, last).memid:
        return None
    return {"a": a, "b": b}


def _sample_distance_from_position(snapshots, config, rng):
    return {**_sample_frame_side(snapshots, config, rng), "steps": rng.randint(1, 5)}


class Kind(NamedTuple):
    """One clause kind: everything the sampler, the grammar and the oracle need."""

    query_class: str  # "property", "temporal" or "geometric"
    templates: tuple[tuple[dict, str], ...]  # (arguments the template fixes, template)
    sample: Callable  # draws the arguments, see above
    evaluate: Callable  # oracle.eval_<kind>
    combinable: bool = False  # joins a second clause and can be negated
    argmax: bool = False  # selects a single object by maximizing a score
    returns: str | None = None  # set for a value kind: the return type it forces


# The order within a class is the order sample_query draws kinds in.
KINDS = {
    "name": Kind(
        "property", (({}, "that {neg:do not have|have} the name {name:word}"),),
        _sample_name, oracle.eval_name, combinable=True),
    "tag": Kind(
        "property", (({}, "that {neg:do not have|has} the property {tag:word}"),),
        _sample_tag, oracle.eval_tag, combinable=True),
    "absolute_cardinal": Kind(
        "property",
        (({}, "where the {axis:axis} coordinate is {neg:not |}{comparator:cmp} than "
              "{threshold:num}"),),
        _sample_absolute_cardinal, oracle.eval_absolute_cardinal, combinable=True),
    "temporal_cardinal": Kind(
        "temporal", (({}, "that {neg:did not increase|increased} {axis:axis} the most"),),
        _sample_axis, oracle.eval_temporal_cardinal, combinable=True, argmax=True),
    "temporal_relative": Kind(
        "temporal", (({}, "that {neg:did not move|moved} to {frame:frame} {side:side} the most"),),
        _sample_frame_side, oracle.eval_temporal_relative, combinable=True, argmax=True),
    "farthest_moved": Kind(
        "temporal", (({}, "that moved the farthest"),),
        _sample_no_args, oracle.eval_farthest_moved, argmax=True),
    "location_at_time": Kind(
        "temporal",
        (({"time": "beginning"}, "what was the location of {ref:ref} at the beginning?"),
         ({"time": "now"}, "what is the location of {ref:ref} now?")),
        _sample_location_at_time, oracle.eval_location_at_time, returns="location"),
    "action": Kind(
        "temporal", (({}, "what did you do?"),),
        _sample_no_args, oracle.eval_action, returns="action_name"),
    "object_tracking": Kind(
        "temporal", (({}, "where would {ref:ref} be if i moved to {target:cell}?"),),
        _sample_object_tracking, oracle.eval_object_tracking, returns="location"),
    "absolute_distance": Kind(
        "geometric",
        (({}, "where the distance to {point:point} is {neg:not |}{comparator:cmp} than "
              "{threshold:num}"),),
        _sample_absolute_distance, oracle.eval_absolute_distance, combinable=True),
    "direction": Kind(
        "geometric", (({}, "{neg:not to|to} {frame:frame} {side:side}"),),
        _sample_frame_side, oracle.eval_direction, combinable=True),
    "closest_object": Kind(
        "geometric", (({}, "that is closest to {anchor:ref}"),),
        _sample_closest_object, oracle.eval_closest_object, argmax=True),
    "max_direction": Kind(
        "geometric", (({}, "that is the most to {frame:frame} {side:side}"),),
        _sample_frame_side, oracle.eval_max_direction, argmax=True),
    "distance_between": Kind(
        "geometric", (({}, "how far is {a:ref} from {b:ref}?"),),
        _sample_distance_between, oracle.eval_distance_between, returns="distance"),
    "distance_from_position": Kind(
        "geometric",
        (({}, "what is the location {steps:int} steps to {frame:frame} {side:side}?"),),
        _sample_distance_from_position, oracle.eval_distance_from_position, returns="location"),
}

# (kind, arguments the template fixes, template), in KINDS order
TEMPLATES = tuple((k, fixed, t) for k, spec in KINDS.items() for fixed, t in spec.templates)

_ENTRIES = tuple(_compile(*row) for row in TEMPLATES)
_BY_KIND = {kind: [e for e in _ENTRIES if e.kind == kind] for kind in KINDS}
_QUERY_ENTRIES = tuple(e for e in _ENTRIES if KINDS[e.kind].returns)
_FILTER_ENTRIES = tuple(e for e in _ENTRIES if not KINDS[e.kind].returns)
_HEAD_KEYS = {text: key for key, text in HEADS.items()}


# --- sampling ----------------------------------------------------------------


def sample_query(
    snapshots: list[Snapshot],
    config: "GenConfig",
    rng: random.Random,
    action_log=(),
) -> tuple[QueryForm, str, oracle.Answer]:
    """Sample an answerable query against the snapshot history.

    The query class is drawn from the config weights, then clause kinds,
    arguments, conjunction and return type are rejection-sampled until
    the executed answer is non-empty (count and action queries aside)
    and free of argmax ties. Returns the form, its text and that answer.
    Raises UnanswerableSceneError when the attempt budget runs out;
    callers regenerate the scene.
    """
    classes = [c for c, w in config.class_weights.items() if w > 0]
    weights = [config.class_weights[c] for c in classes]
    query_class = rng.choices(classes, weights=weights, k=1)[0]

    kinds = [k for k, spec in KINDS.items() if spec.query_class == query_class]
    combinable = [k for k in kinds if KINDS[k].combinable]
    for _ in range(config.query_attempts):
        if combinable and rng.random() < config.two_clause_prob:
            chosen = [rng.choice(combinable), rng.choice(combinable)]
            op = rng.choice(["and", "or"])
        else:
            chosen = [rng.choice(kinds)]
            op = None
        clauses = []
        for kind in chosen:
            spec = KINDS[kind]
            negated = spec.combinable and rng.random() < config.negation_prob
            args = spec.sample(snapshots, config, rng)
            if args is None:
                break
            clauses.append(Clause(kind, negated, args))
        if len(clauses) != len(chosen):
            continue
        if len(clauses) == 2 and clauses[0] == clauses[1]:
            continue
        allowed = allowed_return_types(tuple(clauses), op)
        return_type = rng.choice(list(allowed))
        # valid by construction: only combinable kinds negate or pair up
        form = QueryForm(clauses=tuple(clauses), return_type=return_type, op=op)
        try:
            answer = oracle.execute(form, snapshots, action_log)
        except (oracle.UnanswerableQueryError, oracle.AmbiguousTieError):
            continue
        return form, render_text(form), answer
    raise UnanswerableSceneError(
        f"no answerable {query_class} query in {config.query_attempts} attempts"
    )
