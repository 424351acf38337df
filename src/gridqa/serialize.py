"""Context serializations and dataset records.

Text context grammar (one section per snapshot, fact lines shuffled
within each section under the sample's RNG, sections in time order):

    section header  t=<i>:
    entity line     <name> is a <color> <type> at (x, y, z) facing yaw <d> pitch <d>
    block line      inst_seg <shape> colored <color> at (cx, cy, cz) with <n> blocks
    triple line     <name> has_tag <word>

Entity coordinates print with one decimal; block centroids round to
integers. Agent actions never appear in either context.

The relational context holds one reference-object node and one triple
node per snapshot occurrence, keyed by memids, which are written as they
are: 16 lowercase hex digits (worldcore.derive_memid). Block nodes carry
their voxel cells so the context reconstructs snapshots exactly.
render_relational_context returns it as JSON text, the bytes that
json.dumps(context, sort_keys=True, separators=(",", ":")) writes; the read
side (read_relational_context, then context_ids) takes the parsed dict.

Dataset files are newline-delimited JSON records, one sample per line,
with "format_version": 1: each line is
json.dumps(record, sort_keys=True, separators=(",", ":")) plus a newline
(ASCII, with non-ASCII escaped as \\uXXXX). The readers parse with
json.loads, so a line written with json.dumps's default ", " and ": "
separators reads the same. read_jsonl reads such a file one line at a time,
splitting at "\\n" only, so a caller that checks each record as it is read
(validate) holds one parsed record at a time, however long the file.
"""

from __future__ import annotations

import json
import random
import re
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from pathlib import Path

from .worldcore import (
    BlockObject,
    Entity,
    Pose,
    Snapshot,
    Triple,
    round_half_away,
)

FORMAT_VERSION = 1


class DatasetIOError(OSError):
    """I/O failure while reading or writing a dataset file."""


# --- text context -------------------------------------------------------------


def _entity_line(e: Entity) -> str:
    x, y, z, pitch, yaw = e.pose
    return (
        f"{e.name} is a {e.color} {e.type_word} at ({x:.1f}, {y:.1f}, {z:.1f}) "
        f"facing yaw {round(yaw)} pitch {round(pitch)}"
    )


def _block_line(b: BlockObject) -> str:
    cx, cy, cz = (round_half_away(c) for c in b.centroid)
    return f"inst_seg {b.shape} colored {b.color} at ({cx}, {cy}, {cz}) with {len(b.voxels)} blocks"


def section_lines(snapshot: Snapshot, block_lines: dict | None = None) -> list[str]:
    """Fact lines for one snapshot, in canonical (pre-shuffle) order.

    block_lines maps each block already seen to its line;
    render_text_context shares one across a record's snapshots, so each
    block line is built once per record. Without it every line is built
    fresh. A has_tag line is built at every snapshot: looking it up
    would cost as much as building it.
    """
    if block_lines is None:
        block_lines = {}
    lines = []
    names = {}
    for obj in snapshot.reference_objects:
        if isinstance(obj, Entity):
            lines.append(_entity_line(obj))
            names[obj.memid] = obj.name
        else:
            line = block_lines.get(obj)
            if line is None:
                line = block_lines[obj] = _block_line(obj)
            lines.append(line)
    for _, subject_memid, predicate, object_text in snapshot.triples:
        if predicate == "has_tag" and subject_memid in names:
            lines.append(f"{names[subject_memid]} has_tag {object_text}")
    return lines


def render_text_context(snapshots: list[Snapshot], rng: random.Random) -> str:
    """Flatten snapshots into the templated text dump.

    The snapshots share one block line cache (see section_lines). Each
    section's shuffle makes the draws of rng.shuffle: CPython's
    _randbelow(n) loop over rng.getrandbits(n.bit_length()), inlined.
    """
    getrandbits = rng.getrandbits
    block_lines: dict[BlockObject, str] = {}
    sections = []
    for snapshot in snapshots:
        lines = section_lines(snapshot, block_lines)
        for i in range(len(lines) - 1, 0, -1):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            lines[i], lines[j] = lines[j], lines[i]
        sections.append("\n".join([f"t={snapshot.time_index}:"] + lines))
    return "\n".join(sections)


# --- relational context ---------------------------------------------------------

# a memid as derive_memid writes it
_MEMID = re.compile("[0-9a-f]{16}").fullmatch


def _floats(values) -> str:
    # repr is the conversion json.dumps applies to a float, and to an int
    return ",".join(map(repr, values))


def _block_node(block: BlockObject) -> tuple[str, str]:
    """A block node's text before and after its time_index value."""
    voxels = ",".join(f"[{x},{y},{z}]" for x, y, z in sorted(block.voxels))
    return (
        f'{{"reference_object_hash":"{block.memid}",'
        f'"reference_objects_float":[{_floats(block.centroid)},0.0,0.0],'
        f'"reference_objects_words":["inst_seg",{_json_str(block.shape)},'
        f'{_json_str(block.color)}],"time_index":',
        f',"voxels":[{voxels}]}}',
    )


def _triple_tail(triple: Triple) -> str:
    """A triple node's text after its time_index value."""
    t_id, subject_memid, predicate, object_text = triple
    return (
        f',"triples_hash":["{t_id}","{subject_memid}"],'
        f'"triples_words":[{_json_str(predicate)},{_json_str(object_text)}]}}'
    )


def render_relational_context(snapshots: list[Snapshot]) -> str:
    """Graph encoding: reference-object nodes and triple nodes per snapshot,
    as the JSON text json.dumps(context, sort_keys=True, separators=(",", ":"))
    would write.

    Memids go in as they are, 16 lowercase hex digits that JSON needs no
    escape for. A block node's text around its time_index is built once per
    call, entity nodes once per snapshot, and triple tails once per run of
    snapshots with equal triples.
    """
    blocks: dict[BlockObject, tuple[str, str]] = {}
    triples, tails = None, []
    ref_nodes = []
    triple_runs = []
    for snapshot in snapshots:
        t = str(snapshot.time_index)
        for obj in snapshot.reference_objects:
            if isinstance(obj, Entity):
                ref_nodes.append(
                    f'{{"reference_object_hash":"{obj.memid}",'
                    # a Pose is the tuple (x, y, z, pitch, yaw)
                    f'"reference_objects_float":[{_floats(obj.pose)}],'
                    f'"reference_objects_words":[{_json_str(obj.name)},'
                    f'{_json_str(obj.type_word)},{_json_str(obj.color)}],"time_index":{t}}}'
                )
            else:
                head, tail = blocks.get(obj) or blocks.setdefault(obj, _block_node(obj))
                ref_nodes.append(head + t + tail)
        if snapshot.triples != triples:  # a snapshot mostly repeats the last one's triples
            triples = snapshot.triples
            tails = [_triple_tail(triple) for triple in triples]
        if tails:
            head = '{"time_index":' + t
            triple_runs.append(head + ("," + head).join(tails))
    return f'{{"reference_objects":[{",".join(ref_nodes)}],"triples":[{",".join(triple_runs)}]}}'


def read_relational_context(context: dict) -> list[Snapshot]:
    """Inverse of render_relational_context, given its parsed JSON;
    reconstructs the snapshots.

    A block node that repeats an earlier node's id, words and voxels
    reuses that node's BlockObject instead of rebuilding its voxel set.
    Raises ValueError for an id (a reference_object_hash or either
    triples_hash entry) that is not 16 lowercase hex digits, the only form
    derive_memid writes, and TypeError for one that is not a string.
    """
    by_time: dict[int, tuple[list, list]] = {}
    blocks: dict[str, tuple[list, list, BlockObject]] = {}
    ids = set()
    for node in context["reference_objects"]:
        objs, triples = by_time.setdefault(node["time_index"], ([], []))
        memid = node["reference_object_hash"]
        ids.add(memid)
        words = node["reference_objects_words"]
        if words[0] == "inst_seg":
            voxels = node["voxels"]
            seen = blocks.get(memid)
            if seen is not None and seen[0] == words and seen[1] == voxels:
                objs.append(seen[2])
                continue
            _, shape, color = words
            block = BlockObject(memid, shape, color, frozenset(tuple(v) for v in voxels))
            blocks[memid] = (words, voxels, block)
            objs.append(block)
        else:
            name, type_word, color = words
            x, y, z, pitch, yaw = node["reference_objects_float"]
            kind = type_word if type_word in ("agent", "player") else "npc"
            npc_type = type_word if kind == "npc" else None
            objs.append(Entity(memid, kind, name, color, Pose(x, y, z, pitch, yaw), npc_type))
    for node in context["triples"]:
        objs, triples = by_time.setdefault(node["time_index"], ([], []))
        t_id, subject_memid = node["triples_hash"]
        ids.add(t_id)
        ids.add(subject_memid)
        predicate, object_text = node["triples_words"]
        triples.append(Triple(t_id, subject_memid, predicate, object_text))
    # each distinct id is checked once; a non-str id raises TypeError here
    if not all(map(_MEMID, ids)):
        bad = min(memid for memid in ids if not _MEMID(memid))
        raise ValueError(f"id {bad!r} is not 16 lowercase hex digits")
    snapshots = []
    for time_index in sorted(by_time):
        objs, triples = by_time[time_index]
        objs.sort(key=attrgetter("memid"))
        triples.sort(key=attrgetter("t_id"))
        snapshots.append(Snapshot(time_index, tuple(objs), tuple(triples)))
    return snapshots


def context_ids(snapshots: list[Snapshot]) -> set[str]:
    """The R_ids and T_ids of snapshots: object memids and triple t_ids, no subject ids."""
    ids = {obj.memid for snapshot in snapshots for obj in snapshot.reference_objects}
    ids.update(triple.t_id for snapshot in snapshots for triple in snapshot.triples)
    return ids


# --- dataset records -------------------------------------------------------------

# the keys of a record's generation_metadata, in the order generate_sample gives their values
METADATA_KEYS = (
    "seed", "sample_index", "sample_seed", "scene_attempt", "config_digest", "action_log"
)


@dataclass
class Sample:
    """One dataset record, whose fields are the record's keys: both context
    forms, the query, the answer, and how to regenerate it (METADATA_KEYS)."""

    sample_id: int
    query_class: str
    context_text: str
    context_relational: dict | str  # parsed, or render_relational_context's text to write
    query_text: str
    query_logical_form: dict
    answer_text: str
    answer_memids: list[str]
    generation_metadata: dict
    format_version: int

    def to_record(self) -> dict:
        """Shallow field dict: nested values are shared with the sample, not copied."""
        return dict(vars(self))

    @classmethod
    def from_record(cls, record: dict) -> "Sample":
        return cls(**record)


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def record_line(record: dict) -> str:
    """One dataset line, json.dumps(record, sort_keys=True, separators=(",", ":"))
    plus a newline, for a record whose context_relational is
    render_relational_context's text.

    The text goes in as written, at the place of its key. The placeholder
    matches nowhere earlier in the line: the keys that sort before it hold
    strings, and a '"' inside a JSON string is escaped.
    """
    line = _encode({**record, "context_relational": 0})
    context = '"context_relational":' + record["context_relational"]
    return line.replace('"context_relational":0', context, 1) + "\n"


def read_jsonl(path: str | Path, build) -> Iterator:
    """Yield build(record) for each non-blank line of a JSONL file, in file
    order, reading and parsing one line at a time.

    Only b"\\n" ends a line: a "\\r" is JSON whitespace, and U+2028 and the
    other separators json.dumps(ensure_ascii=False) leaves raw in a string
    stay inside it. Raises DatasetIOError naming the file, and the line when
    it is not UTF-8 or JSON or build rejects the record. The file is closed
    when the generator finishes or is closed.
    """
    path = Path(path)
    try:
        file = path.open("rb")
    except OSError as exc:
        raise DatasetIOError(f"failed reading {path}: {exc}") from exc
    with file:
        for lineno, line in enumerate(file, start=1):
            try:
                text = line.decode("utf-8")
                if not text.strip():
                    continue
                item = build(json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetIOError(f"{path}, line {lineno}: not a valid record: {exc}") from exc
            yield item


def read_samples(path: str | Path) -> Iterator[Sample]:
    """The samples of a JSONL dataset file, parsed one line at a time (see read_jsonl)."""
    return read_jsonl(path, Sample.from_record)
