import dataclasses
import json
import pickle
import random
from operator import attrgetter

import pytest

from conftest import make_episode, minimal_world, simple_world
from gridqa import GenConfig
from gridqa.dynamics import Task, step_world
from gridqa.serialize import read_relational_context, render_relational_context
from gridqa.worldcore import (
    AGENT,
    NPC,
    PLAYER,
    BlockObject,
    Entity,
    Pose,
    SnapshotOrderError,
    Triple,
    UnknownMemidError,
    derive_memid,
    horizontal_direction,
    look_vector,
    memid_hex,
    WorldState,
    snap_coord,
    take_snapshot,
)


def test_pose_normalizes_yaw_and_clamps_pitch():
    p = Pose(1.0, 2.0, 3.0, pitch=123.0, yaw=370.0)
    assert p.yaw == 10.0
    assert p.pitch == 90.0
    assert Pose(0, 0, 0, yaw=-90.0).yaw == 270.0
    assert Pose(0, 0, 0, pitch=-123.0).pitch == -90.0


def test_pose_is_immutable_picklable_and_keeps_its_repr():
    pose = Pose(1.0, 2.0, 3.0, pitch=-12.0, yaw=725.0)
    with pytest.raises(AttributeError):
        pose.x = 5.0
    restored = pickle.loads(pickle.dumps(pose))
    assert restored == pose and type(restored) is Pose
    assert (restored.pitch, restored.yaw) == (-12.0, 5.0)
    # the repr the frozen dataclass printed
    assert repr(Pose(1.0, 2.0, 3.0)) == "Pose(x=1.0, y=2.0, z=3.0, pitch=0.0, yaw=0.0)"
    assert pose.position == (1.0, 2.0, 3.0)
    # the relational context rebuilds poses that compare equal
    _, snapshots = make_episode(3)
    restored = read_relational_context(json.loads(json.dumps(render_relational_context(snapshots))))
    assert restored == snapshots
    assert all(type(e.pose) is Pose for snap in restored for e in snap.entities())


def test_clamp_equals_per_coordinate_snap():
    rng = random.Random(3)
    for size in (4, 15, 30):
        world = WorldState(world_size=size, seed=0)
        hi = size - 0.1
        edges = [(0.0, -0.0, hi), (hi, hi + 1e-12, -1e-12), (size, -size, 0.05)]
        points = edges + [tuple(rng.uniform(-3.0, size + 3.0) for _ in range(3)) for _ in range(500)]
        for point in points:
            expected = tuple(snap_coord(min(max(c, 0.0), hi)) for c in point)
            assert world.clamp(point) == expected


def test_memids_deterministic_and_distinct():
    assert derive_memid(42, 0) == derive_memid(42, 0)
    ids = {derive_memid(42, i) for i in range(1000)}
    assert len(ids) == 1000
    assert derive_memid(42, 0) != derive_memid(43, 0)
    assert len(memid_hex(derive_memid(1, 1))) == 16


def test_look_vector_frame_convention():
    # yaw 0 faces +z and right is -x
    look = look_vector(Pose(0, 0, 0, yaw=0.0))
    assert look == pytest.approx((0.0, 0.0, 1.0))
    assert horizontal_direction(Pose(0, 0, 0, yaw=0.0), "right") == pytest.approx((-1.0, 0.0, 0.0))
    assert horizontal_direction(Pose(0, 0, 0, yaw=0.0), "left") == pytest.approx((1.0, 0.0, 0.0))
    assert horizontal_direction(Pose(0, 0, 0, yaw=0.0), "front") == pytest.approx((0.0, 0.0, 1.0))
    assert horizontal_direction(Pose(0, 0, 0, yaw=90.0), "front") == pytest.approx((-1.0, 0.0, 0.0))


def test_snapshot_minimal_world():
    world = minimal_world()
    snap = take_snapshot(world, 0)
    assert len(snap.reference_objects) == 2
    name_triples = [t for t in snap.triples if t.predicate == "has_name"]
    assert len(name_triples) >= 2


def test_snapshot_five_animate_non_agents():
    # default experimental scene: 4 NPCs plus a player plus the agent
    world, snapshots = make_episode(seed=3, config=GenConfig())
    snap = snapshots[0]
    entities = snap.entities()
    assert len(entities) == 6
    assert sum(1 for e in entities if e.kind == NPC) == 4
    assert sum(1 for e in entities if e.kind == PLAYER) == 1
    assert sum(1 for e in entities if e.kind == AGENT) == 1


def test_snapshot_purity_and_ordering():
    world = minimal_world()
    snap1 = take_snapshot(world, 0)
    snap2 = take_snapshot(world, 1)
    assert snap1.reference_objects == snap2.reference_objects
    assert snap1.triples == snap2.triples
    assert snap1.time_index != snap2.time_index

    # later mutation must not leak into the frozen snapshot
    agent = world.agent()
    old_pose = agent.pose
    agent.pose = Pose(9.0, 9.0, 9.0)
    assert snap1.lookup(agent.memid).pose == old_pose

    with pytest.raises(SnapshotOrderError):
        take_snapshot(world, 1)


def test_lookup_agent_and_triple_subjects():
    world = minimal_world()
    snap = take_snapshot(world, 0)
    agent_memid = world.agent().memid
    assert snap.lookup(agent_memid).kind == AGENT
    for triple in snap.triples:
        obj = snap.lookup(triple.subject_memid)
        assert obj.memid == triple.subject_memid
    with pytest.raises(UnknownMemidError):
        snap.lookup(12345)


def test_destroyed_block_memid_found_before_not_after():
    world = minimal_world()
    block = world.add_block("cube", "brown", frozenset({(1, 1, 1), (1, 2, 1)}))
    before = take_snapshot(world, 0)
    task = Task("destroy", {"target_memid": block.memid}, duration=1, start_step=0)
    step_world(world, 1, task, random.Random(0))
    after = take_snapshot(world, 1)
    assert before.lookup(block.memid).shape == "cube"
    with pytest.raises(UnknownMemidError):
        after.lookup(block.memid)


def test_referential_integrity_many_scenes():
    for seed in range(20):
        _, snapshots = make_episode(seed)
        for snap in snapshots:
            memids = snap.memids()
            assert {t.subject_memid for t in snap.triples} <= memids


def test_memid_stability_across_snapshots():
    for seed in range(10):
        _, snapshots = make_episode(seed)
        first, last = snapshots[0], snapshots[-1]
        for entity in first.entities():
            assert last.has_memid(entity.memid)
            assert last.lookup(entity.memid).name == entity.name


def test_coordinate_typing():
    _, snapshots = make_episode(seed=1)
    size = GenConfig().world_size
    for snap in snapshots:
        for obj in snap.reference_objects:
            if isinstance(obj, BlockObject):
                assert all(isinstance(c, int) for v in obj.voxels for c in v)
                assert all(0 <= c < size for v in obj.voxels for c in v)
            else:
                assert all(isinstance(c, float) for c in obj.pose.position)
                assert all(0.0 <= c < size for c in obj.pose.position)


def test_entity_names_unique_within_world():
    world, _ = make_episode(seed=5)
    names = [e.name for e in world.entities]
    assert len(names) == len(set(names))


def test_triples_unique_per_subject_predicate_object():
    _, snapshots = make_episode(seed=8)
    for snap in snapshots:
        keys = [(t.subject_memid, t.predicate, t.object_text) for t in snap.triples]
        assert len(keys) == len(set(keys))


# --- per-object facts: cached centroid, Triple tuples, the snapshot memid index ---


def three_pass_centroid(block):
    n = len(block.voxels)
    return (
        sum(v[0] for v in block.voxels) / n,
        sum(v[1] for v in block.voxels) / n,
        sum(v[2] for v in block.voxels) / n,
    )


def test_centroid_equals_the_three_pass_sum():
    for seed in range(60):
        _, snapshots = make_episode(seed)
        for snap in snapshots:
            for block in snap.blocks():
                assert block.centroid == three_pass_centroid(block)
                assert block.centroid == three_pass_centroid(block)  # cached value


def test_block_object_stays_frozen_equal_hashable_and_picklable():
    voxels = frozenset({(1, 2, 3), (2, 2, 3), (4, 0, 1)})
    cached = BlockObject(5, "cube", "red", voxels)
    plain = BlockObject(5, "cube", "red", voxels)
    assert cached.centroid == (7 / 3, 4 / 3, 7 / 3)
    assert cached == plain and hash(cached) == hash(plain)
    assert repr(cached) == repr(plain)
    assert "centroid" not in repr(cached)
    assert len({cached, plain}) == 1
    assert cached != BlockObject(6, "cube", "red", voxels)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cached.memid = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        plain.centroid = (0.0, 0.0, 0.0)
    for block in (cached, plain):
        restored = pickle.loads(pickle.dumps(block))
        assert restored == block and hash(restored) == hash(block)
        assert restored.centroid == three_pass_centroid(block)


def test_triple_keeps_repr_attributes_immutability_pickling_and_sort():
    triple = Triple(7, 3, "has_tag", "red")
    assert repr(triple) == "Triple(t_id=7, subject_memid=3, predicate='has_tag', object_text='red')"
    assert (triple.t_id, triple.subject_memid, triple.predicate, triple.object_text) == (
        7, 3, "has_tag", "red",
    )
    with pytest.raises(AttributeError):
        triple.t_id = 8
    restored = pickle.loads(pickle.dumps(triple))
    assert restored == triple and type(restored) is Triple
    assert hash(restored) == hash(triple)
    others = [Triple(9, 1, "has_name", "bob"), triple, Triple(2, 1, "has_colour", "red")]
    assert [t.t_id for t in sorted(others, key=attrgetter("t_id"))] == [2, 7, 9]


def test_snapshot_memid_index_resolves_every_memid():
    for seed in range(20):
        _, snapshots = make_episode(seed)
        for snap in snapshots:
            before = repr(snap)
            for obj in snap.reference_objects:
                assert snap.lookup(obj.memid) is obj
                assert snap.has_memid(obj.memid)
            assert snap.memids() == {obj.memid for obj in snap.reference_objects}
            unknown = max(snap.memids()) + 1
            assert not snap.has_memid(unknown)
            with pytest.raises(UnknownMemidError):
                snap.lookup(unknown)
            # the index is no field: repr and == see only the snapshot's contents
            assert repr(snap) == before
            fresh = dataclasses.replace(snap)
            assert fresh == snap
            assert [f.name for f in dataclasses.fields(snap)] == [
                "time_index", "reference_objects", "triples",
            ]
