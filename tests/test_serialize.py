import dataclasses
import json
import random
import re

import pytest

from conftest import make_episode, minimal_world, simple_world
from gridqa import GenConfig
from gridqa.cli import generate_sample
from gridqa.serialize import (
    DatasetIOError,
    Sample,
    encode_record,
    read_relational_context,
    read_samples,
    relational_ids,
    render_relational_context,
    render_text_context,
    section_lines,
    write_samples,
)
from gridqa.dynamics import TASK_KINDS, run_episode
from gridqa.worldcore import AGENT, NPC, PLAYER, Entity, Pose, take_snapshot


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
        n_blocks = len(snap.blocks())
        n_tags = sum(
            1
            for t in snap.triples
            if t.predicate == "has_tag" and snap.lookup(t.subject_memid).__class__ is Entity
        )
        assert len(lines) == n_entities + n_blocks + n_tags


def test_relational_node_counts():
    _, snapshots = make_episode(7)
    ctx = render_relational_context(snapshots)
    expected_refs = sum(len(s.reference_objects) for s in snapshots)
    expected_triples = sum(len(s.triples) for s in snapshots)
    assert len(ctx["reference_objects"]) == expected_refs
    assert len(ctx["triples"]) == expected_triples


def test_relational_round_trip_exact():
    for seed in range(20):
        _, snapshots = make_episode(seed)
        ctx = render_relational_context(snapshots)
        # simulate the file boundary
        ctx = json.loads(json.dumps(ctx))
        restored = read_relational_context(ctx)
        assert restored == snapshots


def test_persistent_objects_share_rid_across_time():
    _, snapshots = make_episode(9)
    ctx = render_relational_context(snapshots)
    by_rid = {}
    for node in ctx["reference_objects"]:
        by_rid.setdefault(node["reference_object_hash"], []).append(node["time_index"])
    persistent = [times for times in by_rid.values() if len(times) > 1]
    assert persistent and all(sorted(set(t)) == sorted(t) for t in persistent)
    for entity in snapshots[0].entities():
        rid = format(entity.memid, "016x")
        assert sorted(by_rid[rid]) == [s.time_index for s in snapshots]


def test_triple_nodes_link_to_existing_reference_objects():
    _, snapshots = make_episode(10)
    ctx = render_relational_context(snapshots)
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
    ctx = render_relational_context(snapshots)
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
    config = GenConfig()
    samples = [generate_sample(config, i) for i in range(8)]
    path = tmp_path / "out.jsonl"
    assert write_samples(samples, path) == 8
    back = read_samples(path)
    assert [s.to_record() for s in back] == [s.to_record() for s in samples]
    assert len(path.read_text().splitlines()) == 8


@pytest.mark.parametrize("preset", ["default", "properties"])
def test_shallow_record_encodes_like_asdict(preset):
    config = GenConfig.properties_mode() if preset == "properties" else GenConfig()
    for index in range(20):
        sample = generate_sample(config, index)
        record = sample.to_record()
        assert json.dumps(record, sort_keys=True) == json.dumps(
            dataclasses.asdict(sample), sort_keys=True
        )
        assert Sample.from_record(record) == sample
        line = encode_record(record)
        assert line == json.dumps(record, sort_keys=True) + "\n"
        assert encode_record(Sample.from_record(json.loads(line)).to_record()) == line


def test_write_zero_samples(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_samples([], path) == 0
    assert path.read_text() == ""
    assert read_samples(path) == []


def test_write_failure_carries_path_context(tmp_path):
    target = tmp_path / "missing_dir" / "x.jsonl"
    with pytest.raises(DatasetIOError) as err:
        write_samples([], target)
    assert "missing_dir" in str(err.value)


def test_answer_memids_subset_of_relational_ids():
    config = GenConfig()
    for i in range(10):
        sample = generate_sample(config, i)
        assert set(sample.answer_memids) <= relational_ids(sample.context_relational)


def test_action_names_never_in_context():
    config = GenConfig(command_prob=1.0)
    for i in range(10):
        sample = generate_sample(config, i)
        log = sample.generation_metadata["action_log"]
        assert log, "expected a command this episode"
        action = log[-1]["action"]
        assert f" {action} " not in f" {sample.context_text} ".replace("\n", " ")


# --- the relational render against a plain per-node copy ----------------------------


def plain_relational_context(snapshots):
    """The relational render written node by node: every memid formatted, every
    centroid summed and every voxel set sorted at every snapshot."""
    ref_nodes, triple_nodes = [], []
    for snapshot in snapshots:
        t = snapshot.time_index
        for obj in snapshot.reference_objects:
            if isinstance(obj, Entity):
                ref_nodes.append(
                    {
                        "reference_object_hash": format(obj.memid, "016x"),
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
                        "reference_object_hash": format(obj.memid, "016x"),
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
                    "triples_hash": [
                        format(triple.t_id, "016x"), format(triple.subject_memid, "016x"),
                    ],
                    "triples_words": [triple.predicate, triple.object_text],
                    "time_index": t,
                }
            )
    return {"reference_objects": ref_nodes, "triples": triple_nodes}


def test_relational_render_matches_the_plain_render_for_every_task_kind():
    # three snapshots, and a task in every episode: build, dig and destroy
    # change the set of blocks between snapshots
    config = GenConfig(command_prob=1.0, world_steps=12, n_snapshots=3)
    per_kind = dict.fromkeys(TASK_KINDS, 0)
    seed = 0
    while min(per_kind.values()) < 200:
        world, snapshots = run_episode(config, random.Random(seed))
        seed += 1
        kind = world.action_log[0].action_name if world.action_log else None
        if kind is None or per_kind[kind] >= 200:
            continue
        per_kind[kind] += 1
        rendered, plain = render_relational_context(snapshots), plain_relational_context(snapshots)
        assert rendered == plain, seed - 1
        assert encode_record(rendered) == encode_record(plain)
        if kind in ("build", "dig", "destroy"):
            assert len(snapshots[0].blocks()) != len(snapshots[-1].blocks())
