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
node per snapshot occurrence, keyed by 16-hex-digit ids. Block nodes
carry their voxel cells so the context reconstructs snapshots exactly.

Dataset files are newline-delimited JSON records (UTF-8, sorted keys),
one sample per line, with "format_version": 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .worldcore import (
    BlockObject,
    Entity,
    Pose,
    Snapshot,
    Triple,
    memid_hex,
    round_half_away,
)

FORMAT_VERSION = 1


class DatasetIOError(OSError):
    """I/O failure while reading or writing a dataset file."""


# --- text context -------------------------------------------------------------


def _entity_line(e: Entity) -> str:
    x, y, z = e.pose.position
    return (
        f"{e.name} is a {e.color} {e.type_word} at ({x:.1f}, {y:.1f}, {z:.1f}) "
        f"facing yaw {round(e.pose.yaw)} pitch {round(e.pose.pitch)}"
    )


def _block_line(b: BlockObject) -> str:
    cx, cy, cz = (round_half_away(c) for c in b.centroid)
    return f"inst_seg {b.shape} colored {b.color} at ({cx}, {cy}, {cz}) with {len(b.voxels)} blocks"


def section_lines(snapshot: Snapshot) -> list[str]:
    """Fact lines for one snapshot, in canonical (pre-shuffle) order."""
    lines = []
    names = {}
    for obj in snapshot.reference_objects:
        if isinstance(obj, Entity):
            lines.append(_entity_line(obj))
            names[obj.memid] = obj.name
        else:
            lines.append(_block_line(obj))
    for triple in snapshot.triples:
        if triple.predicate == "has_tag" and triple.subject_memid in names:
            lines.append(f"{names[triple.subject_memid]} {triple.predicate} {triple.object_text}")
    return lines


def render_text_context(snapshots: list[Snapshot], rng: random.Random) -> str:
    """Flatten snapshots into the templated text dump."""
    if not snapshots:
        raise ValueError("need at least one snapshot")
    sections = []
    for snapshot in snapshots:
        lines = section_lines(snapshot)
        rng.shuffle(lines)
        sections.append("\n".join([f"t={snapshot.time_index}:"] + lines))
    return "\n".join(sections)


# --- relational context ---------------------------------------------------------


class _Hexes(dict):
    """memid -> memid_hex(memid), formatted on first lookup."""

    def __missing__(self, memid: int) -> str:
        text = self[memid] = memid_hex(memid)
        return text


def render_relational_context(snapshots: list[Snapshot]) -> dict:
    """Graph encoding: reference-object nodes and triple nodes per snapshot.

    Each memid is formatted once per call, and each block's voxels are
    sorted once per call: the nodes of one block share a voxel list.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    # the first snapshot's ids in one pass; later snapshots add only new ones
    ids = [obj.memid for obj in snapshots[0].reference_objects]
    ids += [triple.t_id for triple in snapshots[0].triples]
    hexes = _Hexes(zip(ids, map(memid_hex, ids)))
    sorted_voxels: dict[frozenset, list] = {}
    ref_nodes = []
    triple_nodes = []
    for snapshot in snapshots:
        t = snapshot.time_index
        for obj in snapshot.reference_objects:
            if isinstance(obj, Entity):
                ref_nodes.append(
                    {
                        "reference_object_hash": hexes[obj.memid],
                        "reference_objects_words": [obj.name, obj.type_word, obj.color],
                        # a Pose is the tuple (x, y, z, pitch, yaw)
                        "reference_objects_float": list(obj.pose),
                        "time_index": t,
                    }
                )
            else:
                voxels = sorted_voxels.get(obj.voxels)
                if voxels is None:
                    voxels = sorted_voxels[obj.voxels] = list(map(list, sorted(obj.voxels)))
                cx, cy, cz = obj.centroid
                ref_nodes.append(
                    {
                        "reference_object_hash": hexes[obj.memid],
                        "reference_objects_words": ["inst_seg", obj.shape, obj.color],
                        "reference_objects_float": [cx, cy, cz, 0.0, 0.0],
                        "voxels": voxels,
                        "time_index": t,
                    }
                )
        triple_nodes += [
            {
                "triples_hash": [hexes[t_id], hexes[subject_memid]],
                "triples_words": [predicate, object_text],
                "time_index": t,
            }
            for t_id, subject_memid, predicate, object_text in snapshot.triples
        ]
    return {"reference_objects": ref_nodes, "triples": triple_nodes}


def read_relational_context(context: dict) -> list[Snapshot]:
    """Inverse of render_relational_context; reconstructs the snapshots."""
    by_time: dict[int, tuple[list, list]] = {}
    for node in context["reference_objects"]:
        objs, triples = by_time.setdefault(node["time_index"], ([], []))
        memid = int(node["reference_object_hash"], 16)
        words = node["reference_objects_words"]
        if words[0] == "inst_seg":
            _, shape, color = words
            voxels = frozenset(tuple(v) for v in node["voxels"])
            objs.append(BlockObject(memid, shape, color, voxels))
        else:
            name, type_word, color = words
            x, y, z, pitch, yaw = node["reference_objects_float"]
            kind = type_word if type_word in ("agent", "player") else "npc"
            npc_type = type_word if kind == "npc" else None
            objs.append(Entity(memid, kind, name, color, Pose(x, y, z, pitch, yaw), npc_type))
    for node in context["triples"]:
        objs, triples = by_time.setdefault(node["time_index"], ([], []))
        t_hex, subject_hex = node["triples_hash"]
        predicate, object_text = node["triples_words"]
        triples.append(Triple(int(t_hex, 16), int(subject_hex, 16), predicate, object_text))
    snapshots = []
    for time_index in sorted(by_time):
        objs, triples = by_time[time_index]
        objs.sort(key=attrgetter("memid"))
        triples.sort(key=attrgetter("t_id"))
        snapshots.append(Snapshot(time_index, tuple(objs), tuple(triples)))
    return snapshots


def relational_ids(context: dict) -> set[str]:
    """All R_ids and T_ids present in a relational context."""
    ids = {node["reference_object_hash"] for node in context["reference_objects"]}
    ids |= {node["triples_hash"][0] for node in context["triples"]}
    return ids


# --- dataset records -------------------------------------------------------------


@dataclass
class Sample:
    """One dataset record: both context forms, the query, and the answer."""

    sample_id: int
    query_class: str
    context_text: str
    context_relational: dict
    query_text: str
    query_logical_form: dict
    answer_text: str
    answer_memids: list[str]
    generation_metadata: dict
    format_version: int = FORMAT_VERSION

    def to_record(self) -> dict:
        """Shallow field dict: nested values are shared with the sample, not copied."""
        return dict(vars(self))

    @classmethod
    def from_record(cls, record: dict) -> "Sample":
        return cls(**record)


def encode_record(record: dict) -> str:
    """One dataset line: the record as sorted-key JSON plus a newline."""
    return json.dumps(record, sort_keys=True) + "\n"


def read_jsonl(path: str | Path, build) -> list:
    """build(record) for each non-blank line of a JSONL file, in file order.

    Raises DatasetIOError naming the file, and the line when it is not
    JSON or build rejects the record.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetIOError(f"failed reading {path}: {exc}") from exc
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            out.append(build(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise DatasetIOError(f"{path}, line {lineno}: not a valid record: {exc}") from exc
    return out


def read_samples(path: str | Path) -> list[Sample]:
    return read_jsonl(path, Sample.from_record)
