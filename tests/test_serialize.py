import dataclasses
import json
import random
import re
from functools import partial
from pathlib import Path

import pytest

from conftest import make_episode, minimal_world, pools_for, simple_world, snapshot_blocks
from gridqa import GenConfig
from gridqa.cli import generate_sample
from gridqa.serialize import (
    DatasetIOError,
    Sample,
    read_jsonl,
    read_relational_context,
    read_samples,
    relational_ids,
    render_relational_context,
    render_text_context,
    section_lines,
)
from gridqa.dynamics import TASK_KINDS, run_episode
from gridqa.worldcore import (
    AGENT,
    NPC,
    PLAYER,
    BlockObject,
    Entity,
    Pose,
    Snapshot,
    Triple,
    take_snapshot,
)


def compact(value) -> str:
    """The canonical dump a dataset line holds: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sample_lines(config, indices):
    """The JSONL lines generate_sample writes for the given indices."""
    pools = pools_for(config)
    return [generate_sample(config, i, config.digest(), pools)[-1] for i in indices]


def test_single_snapshot_single_section():
    snap = take_snapshot(minimal_world(), 0)
    text = render_text_context([snap], random.Random(0))
    assert text.count("t=0:") == 1
    assert text.startswith("t=0:")
    assert "t=1:" not in text


def test_text_context_deterministic_for_fixed_seed():
    _, snapshots = make_episode(6)
    a = render_text_context(snapshots, random.Random(99))
    b = render_text_context(snapshots, random.Random(99))
    assert a == b


def test_shuffle_changes_order_never_content():
    _, snapshots = make_episode(6)
    a = render_text_context(snapshots, random.Random(1))
    b = render_text_context(snapshots, random.Random(2))
    assert a != b  # overwhelmingly likely with dozens of lines
    for sec_a, sec_b in zip(a.split("t="), b.split("t=")):
        assert sorted(sec_a.splitlines()) == sorted(sec_b.splitlines())


def test_hole_scene_has_inst_seg_hole_line():
    world = minimal_world()
    world.add_block("hole", "black", frozenset({(3, 0, 3), (4, 0, 3)}))
    snap = take_snapshot(world, 0)
    text = render_text_context([snap], random.Random(0))
    assert re.search(r"^inst_seg hole colored black at \(\d+, 0, 3\) with 2 blocks$", text, re.M)


def test_entity_line_grammar():
    world = simple_world(
        [(PLAYER, "sara", "white", Pose(1.25, 0.0, 9.0, pitch=-10.0, yaw=213.0))]
    )
    snap = take_snapshot(world, 0)
    lines = section_lines(snap)
    assert "sara is a white player at (1.2, 0.0, 9.0) facing yaw 213 pitch -10" in lines
    assert "sara has_tag white" in lines
    assert "sara has_tag player" in lines


def test_section_counts_one_line_per_object_and_tag():
    _, snapshots = make_episode(4)
    for snap in snapshots:
        lines = section_lines(snap)
        n_entities = len(snap.entities())
        n_blocks = len(snapshot_blocks(snap))
        n_tags = sum(
            1
            for t in snap.triples
            if t.predicate == "has_tag" and snap.lookup(t.subject_memid).__class__ is Entity
        )
        assert len(lines) == n_entities + n_blocks + n_tags


def test_relational_node_counts():
    _, snapshots = make_episode(7)
    ctx = json.loads(render_relational_context(snapshots))
    expected_refs = sum(len(s.reference_objects) for s in snapshots)
    expected_triples = sum(len(s.triples) for s in snapshots)
    assert len(ctx["reference_objects"]) == expected_refs
    assert len(ctx["triples"]) == expected_triples


def test_relational_round_trip_exact():
    for seed in range(20):
        _, snapshots = make_episode(seed)
        restored = read_relational_context(json.loads(render_relational_context(snapshots)))
        assert restored == snapshots


def test_relational_reader_reuses_only_a_node_that_repeats_in_full():
    block = BlockObject("000000000000002a", "cube", "red", frozenset({(0, 0, 0), (1, 0, 0)}))
    triple = Triple("0000000000000010", "000000000000002a", "has_tag", "cube")
    # the second snapshot repeats the first; each later one keeps the ids and
    # changes one thing in the block and one in the triple
    blue = dataclasses.replace(block, color="blue")
    smaller = dataclasses.replace(blue, voxels=frozenset({(0, 0, 0)}))
    other_subject = triple._replace(subject_memid="000000000000002b")
    other_word = other_subject._replace(object_text="red")
    snapshots = [
        Snapshot(0, (block,), (triple,)),
        Snapshot(1, (block,), (triple,)),
        Snapshot(2, (blue,), (other_subject,)),
        Snapshot(3, (smaller,), (other_word,)),
    ]
    restored = read_relational_context(json.loads(render_relational_context(snapshots)))
    assert restored == snapshots
    assert restored[1].reference_objects[0] is restored[0].reference_objects[0]


def test_persistent_objects_share_rid_across_time():
    _, snapshots = make_episode(9)
    ctx = json.loads(render_relational_context(snapshots))
    by_rid = {}
    for node in ctx["reference_objects"]:
        by_rid.setdefault(node["reference_object_hash"], []).append(node["time_index"])
    persistent = [times for times in by_rid.values() if len(times) > 1]
    assert persistent and all(sorted(set(t)) == sorted(t) for t in persistent)
    for entity in snapshots[0].entities():
        assert sorted(by_rid[entity.memid]) == [s.time_index for s in snapshots]


def test_triple_nodes_link_to_existing_reference_objects():
    _, snapshots = make_episode(10)
    ctx = json.loads(render_relational_context(snapshots))
    rids_by_time = {}
    for node in ctx["reference_objects"]:
        rids_by_time.setdefault(node["time_index"], set()).add(node["reference_object_hash"])
    for node in ctx["triples"]:
        _, rid = node["triples_hash"]
        assert rid in rids_by_time[node["time_index"]]


def test_text_and_relational_agree_on_words_and_coordinates():
    _, snapshots = make_episode(11)
    rng = random.Random(0)
    text = render_text_context(snapshots, rng)
    ctx = json.loads(render_relational_context(snapshots))
    for node in ctx["reference_objects"]:
        words = node["reference_objects_words"]
        if words[0] == "inst_seg":
            _, shape, color = words
            assert f"inst_seg {shape} colored {color}" in text
        else:
            name, type_word, color = words
            assert f"{name} is a {color} {type_word}" in text
            x, y, z = node["reference_objects_float"][:3]
            assert f"{name} is a {color} {type_word} at ({x:.1f}, {y:.1f}, {z:.1f})" in text
    for node in ctx["triples"]:
        predicate, word = node["triples_words"]
        assert word in text


def test_write_and_read_samples_round_trip(tmp_path):
    lines = sample_lines(GenConfig(), range(8))
    path = tmp_path / "out.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    back = read_samples(path)
    assert [s.to_record() for s in back] == [json.loads(line) for line in lines]
    assert len(path.read_text().splitlines()) == 8


@pytest.mark.parametrize("preset", ["default", "properties"])
def test_shallow_record_encodes_like_asdict(preset):
    config = GenConfig.properties_mode() if preset == "properties" else GenConfig()
    for line in sample_lines(config, range(50)):
        record = json.loads(line)
        # the spliced line is byte for byte the sorted-key dump of its record
        assert compact(record) + "\n" == line
        sample = Sample.from_record(record)
        assert sample.to_record() == record
        assert compact(dataclasses.asdict(sample)) + "\n" == line


def test_write_zero_samples(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert list(read_samples(path)) == []


def test_read_failure_carries_path_context(tmp_path):
    target = tmp_path / "missing_dir" / "x.jsonl"
    with pytest.raises(DatasetIOError) as err:
        list(read_samples(target))
    assert "missing_dir" in str(err.value)


def test_read_jsonl_closes_its_file_when_the_caller_stops_or_raises(tmp_path, monkeypatch):
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps({"i": i}) + "\n" for i in range(5)), encoding="utf-8")
    opened = []
    real_open = Path.open

    def recording_open(self, *args, **kwargs):
        file = real_open(self, *args, **kwargs)
        opened.append(file)
        return file

    def build(record):
        if record["i"] == 2:
            raise KeyError("i")
        return record

    monkeypatch.setattr(Path, "open", recording_open)
    for _ in read_jsonl(path, dict):
        break
    assert len(opened) == 1 and opened[-1].closed
    with pytest.raises(RuntimeError):
        for _ in read_jsonl(path, dict):
            raise RuntimeError("caller failed")
    assert len(opened) == 2 and opened[-1].closed
    with pytest.raises(DatasetIOError, match="line 3"):
        list(read_jsonl(path, build))
    assert len(opened) == 3 and opened[-1].closed


def test_answer_memids_subset_of_relational_ids():
    for line in sample_lines(GenConfig(), range(10)):
        record = json.loads(line)
        assert set(record["answer_memids"]) <= relational_ids(record["context_relational"])


def test_action_names_never_in_context():
    for line in sample_lines(GenConfig(command_prob=1.0), range(10)):
        record = json.loads(line)
        log = record["generation_metadata"]["action_log"]
        assert log, "expected a command this episode"
        action = log[-1]["action"]
        assert f" {action} " not in f" {record['context_text']} ".replace("\n", " ")


# --- the relational render against a plain per-node copy ----------------------------


def plain_relational_context(snapshots):
    """The relational render written node by node: every centroid summed and
    every voxel set sorted at every snapshot."""
    ref_nodes, triple_nodes = [], []
    for snapshot in snapshots:
        t = snapshot.time_index
        for obj in snapshot.reference_objects:
            if isinstance(obj, Entity):
                ref_nodes.append(
                    {
                        "reference_object_hash": obj.memid,
                        "reference_objects_words": [obj.name, obj.type_word, obj.color],
                        "reference_objects_float": [
                            obj.pose.x, obj.pose.y, obj.pose.z, obj.pose.pitch, obj.pose.yaw,
                        ],
                        "time_index": t,
                    }
                )
            else:
                n = len(obj.voxels)
                ref_nodes.append(
                    {
                        "reference_object_hash": obj.memid,
                        "reference_objects_words": ["inst_seg", obj.shape, obj.color],
                        "reference_objects_float": [
                            sum(v[0] for v in obj.voxels) / n,
                            sum(v[1] for v in obj.voxels) / n,
                            sum(v[2] for v in obj.voxels) / n,
                            0.0,
                            0.0,
                        ],
                        "voxels": sorted(list(v) for v in obj.voxels),
                        "time_index": t,
                    }
                )
        for triple in snapshot.triples:
            triple_nodes.append(
                {
                    "triples_hash": [triple.t_id, triple.subject_memid],
                    "triples_words": [triple.predicate, triple.object_text],
                    "time_index": t,
                }
            )
    return {"reference_objects": ref_nodes, "triples": triple_nodes}


def episodes_of_every_task_kind(per_kind: int = 200):
    """(seed, snapshots) of the first per_kind episodes of each task kind,
    over three snapshots: build, dig and destroy change the set of blocks
    between snapshots."""
    config = GenConfig(command_prob=1.0, world_steps=12, n_snapshots=3)
    count = dict.fromkeys(TASK_KINDS, 0)
    seed = -1
    while min(count.values()) < per_kind:
        seed += 1
        action_log, snapshots = run_episode(config, random.Random(seed), pools_for(config))
        kind = action_log[0]["action"] if action_log else None
        if kind is None or count[kind] >= per_kind:
            continue
        count[kind] += 1
        if kind in ("build", "dig", "destroy"):
            assert len(snapshot_blocks(snapshots[0])) != len(snapshot_blocks(snapshots[-1]))
        yield seed, snapshots


def test_relational_render_matches_the_plain_render_for_every_task_kind():
    for seed, snapshots in episodes_of_every_task_kind():
        rendered, plain = render_relational_context(snapshots), plain_relational_context(snapshots)
        assert rendered == compact(plain), seed


def test_text_render_matches_the_plain_render_for_every_task_kind():
    # the plain render builds every line fresh and shuffles with
    # Random.shuffle; render_text_context reuses block lines and inlines
    # the shuffle, and must make the same draws
    for seed, snapshots in episodes_of_every_task_kind():
        rng, plain_rng = random.Random(seed), random.Random(seed)
        sections = []
        for snapshot in snapshots:
            lines = section_lines(snapshot)
            plain_rng.shuffle(lines)
            sections.append("\n".join([f"t={snapshot.time_index}:"] + lines))
        assert render_text_context(snapshots, rng) == "\n".join(sections), seed
        assert rng.getstate() == plain_rng.getstate(), seed


def test_relational_render_escapes_and_formats_numbers_like_json_dumps():
    # words no pool file may hold (non-ASCII, a quote, a backslash), an integer
    # pitch (Pose keeps an int pitch as an int) and negative zero coordinates
    name, color, tag = 'rémy "the" \\ one', "blü✓", 'bébé ✓ "q" \\'
    voxels = frozenset({(1, 0, 2), (0, 0, 2)})
    block = BlockObject("000000000000002a", 'cône "\\"', "grèy✓", voxels)
    entity = partial(Entity, "0000000000000003", NPC, name, color, npc_type="chèvre")
    triples = (Triple("0000000000000010", "0000000000000003", "has_tag", tag),)
    first = Snapshot(0, (entity(Pose(-0.0, 0.5, 1.0, pitch=30, yaw=12.25)), block), triples)
    second = Snapshot(4, (entity(Pose(2.0, -0.0, 1e-7)), block), triples)
    # a snapshot without triples between two with the same ones
    bare = Snapshot(2, (block,), ())
    for snapshots in ([first], [first, second], [bare, second], [first, bare, second]):
        text = render_relational_context(snapshots)
        assert text == compact(plain_relational_context(snapshots))
        assert text.isascii() and "\\u00e9" in text and "\\u2713" in text
        assert read_relational_context(json.loads(text)) == snapshots
