import copy
import math
import random

import pytest

from conftest import make_episode, minimal_world, simple_world
from gridqa import GenConfig
from gridqa import scenegen
from gridqa.dynamics import (
    FOLLOW_SPEED,
    MOVE_SPEED,
    NPC_MAX_STEP,
    NPC_MOVE_PROB,
    InvalidScheduleError,
    InvalidTaskError,
    Task,
    _heading_yaw,
    _step_towards,
    run_episode,
    sample_task,
    schedule_snapshots,
    step_world,
)
from gridqa.scenegen import build_scene
from gridqa.worldcore import (
    AGENT,
    NPC,
    PLAYER,
    ActionRecord,
    Pose,
    UnknownMemidError,
    take_snapshot,
)


def test_schedule_endpoints_and_spacing():
    assert schedule_snapshots(50, 2) == [0, 50]
    assert schedule_snapshots(0, 1) == [0]
    assert schedule_snapshots(50, 3) == [0, 25, 50]
    assert schedule_snapshots(10, 1) == [0]
    assert schedule_snapshots(9, 4) == [0, 3, 6, 9]


def test_schedule_rejects_impossible_counts():
    with pytest.raises(InvalidScheduleError):
        schedule_snapshots(3, 5)
    with pytest.raises(InvalidScheduleError):
        schedule_snapshots(5, 0)
    with pytest.raises(InvalidScheduleError):
        schedule_snapshots(-1, 1)


def test_schedule_indices_strictly_increase():
    for total in range(0, 60):
        for n in range(1, total + 2):
            times = schedule_snapshots(total, n)
            assert times[0] == 0
            if n > 1:
                assert times[-1] == total
            assert all(b > a for a, b in zip(times, times[1:]))


def test_zero_steps_changes_nothing():
    world = build_scene(GenConfig(), random.Random(4))
    before = take_snapshot(world, 0)
    step_world(world, 0, None, random.Random(1))
    after = take_snapshot(world, 1)
    assert before.reference_objects == after.reference_objects
    assert before.triples == after.triples
    assert world.clock == 0


def test_move_task_reaches_target():
    world = minimal_world()
    target = (4.0, 7.0, 2.0)
    task = Task("move", {"target": target}, duration=60, start_step=0)
    step_world(world, 60, task, random.Random(0))
    agent = world.agent()
    assert math.dist(agent.pose.position, target) <= 0.5
    assert world.action_log and world.action_log[-1].action_name == "move"


def test_build_task_creates_cube_of_27_voxels():
    world = minimal_world()
    task = Task(
        "build",
        {"shape": "cube", "shape_params": {"size": 3}, "origin": (8, 8, 8), "color": "brown"},
        duration=27,
        start_step=0,
    )
    step_world(world, 30, task, random.Random(0))
    assert len(world.block_objects) == 1
    assert len(world.block_objects[0].voxels) == 27
    assert world.block_objects[0].shape == "cube"


def test_block_appears_only_after_completion():
    world = minimal_world()
    task = Task(
        "build",
        {"shape": "cube", "shape_params": {"size": 2}, "origin": (8, 8, 8), "color": "pink"},
        duration=10,
        start_step=0,
    )
    step_world(world, 5, task, random.Random(0))
    assert not world.block_objects
    step_world(world, 5, task, random.Random(0))
    assert len(world.block_objects) == 1


def test_dig_registers_hole_reference_object():
    world = minimal_world()
    task = Task(
        "dig", {"size": [2, 1, 2], "origin": (3, 0, 3), "color": "black"}, duration=4, start_step=0
    )
    step_world(world, 4, task, random.Random(0))
    holes = [b for b in world.block_objects if b.shape == "hole"]
    assert len(holes) == 1
    assert len(holes[0].voxels) == 4
    snap = take_snapshot(world, 0)
    tags = {t.object_text for t in snap.triples if t.predicate == "has_tag"}
    assert "hole" in tags


def test_destroy_requires_existing_target():
    world = minimal_world()
    task = Task("destroy", {"target_memid": 999}, duration=1, start_step=0)
    with pytest.raises(InvalidTaskError):
        step_world(world, 1, task, random.Random(0))


def test_follow_closes_distance():
    config = GenConfig(n_blocks_min=0, n_blocks_max=0)
    world = build_scene(config, random.Random(21))
    target = world.npcs()[0]
    task = Task("follow", {"target_memid": target.memid}, duration=40, start_step=0)
    rng = random.Random(5)
    previous = math.dist(world.agent().pose.position, target.pose.position)
    for _ in range(40):
        step_world(world, 1, task, rng)
        current = math.dist(world.agent().pose.position, target.pose.position)
        assert current <= previous + 1e-9 or current < 1.0
        previous = current
    assert previous < 1.0


def test_npc_walk_preserves_counts_names_triples():
    world = build_scene(GenConfig(), random.Random(9))
    names_before = sorted(e.name for e in world.entities)
    triples_before = sorted((t.subject_memid, t.predicate, t.object_text) for t in world.triples)
    n_blocks_before = len(world.block_objects)
    step_world(world, 50, None, random.Random(1))
    assert sorted(e.name for e in world.entities) == names_before
    assert (
        sorted((t.subject_memid, t.predicate, t.object_text) for t in world.triples)
        == triples_before
    )
    assert len(world.block_objects) == n_blocks_before
    for e in world.entities:
        assert all(0.0 <= c < world.world_size for c in e.pose.position)


def test_stepping_is_deterministic():
    def run():
        world = build_scene(GenConfig(), random.Random(31))
        task = sample_task(world, 50, GenConfig(), random.Random(32))
        step_world(world, 50, task, random.Random(33))
        return take_snapshot(world, 50)

    assert run() == run()


def test_task_validation():
    with pytest.raises(InvalidTaskError):
        Task("fly", {}, duration=1)
    with pytest.raises(InvalidTaskError):
        Task("move", {"target": (1, 2, 3)}, duration=0)
    with pytest.raises(InvalidTaskError):
        Task("build", {"shape": "cube"}, duration=5)


def test_run_episode_snapshot_times():
    config = GenConfig()
    world, snapshots = make_episode(seed=13, config=config)
    assert [s.time_index for s in snapshots] == [0, 50]
    assert world.clock == 50

    props = GenConfig.properties_mode()
    world, snapshots = make_episode(seed=13, config=props)
    assert [s.time_index for s in snapshots] == [0]
    assert world.clock == 0
    assert not world.action_log


def test_action_log_interval_within_episode():
    for seed in range(30):
        world, _ = make_episode(seed)
        for record in world.action_log:
            start, end = record.step_interval
            assert 0 <= start < end <= 50
            assert record.action_name in ("move", "build", "destroy", "dig", "follow")


# --- reference stepping: one Pose per NPC move -------------------------------


def reference_step_world(world, n_steps, task, rng):
    """The per-move walk step_world must reproduce draw for draw and byte for byte.

    Each NPC move draws through rng.uniform, clamps through
    WorldState.clamp and writes a new Pose at once; follow reads its
    target's pose from the world.
    """
    if task is not None and task.kind in ("destroy", "follow") and not task._done:
        known = {e.memid for e in world.entities} | {b.memid for b in world.block_objects}
        if task.parameters["target_memid"] not in known:
            raise InvalidTaskError("task target not in world")
    for _ in range(n_steps):
        for npc in world.npcs():
            if rng.random() >= NPC_MOVE_PROB:
                continue
            angle = rng.uniform(0.0, 2.0 * math.pi)
            length = rng.uniform(0.0, NPC_MAX_STEP)
            dx = length * math.cos(angle)
            dz = length * math.sin(angle)
            pose = npc.pose
            x, y, z = world.clamp((pose.x + dx, pose.y, pose.z + dz))
            npc.pose = Pose(x, y, z, pitch=pose.pitch, yaw=_heading_yaw(dx, dz))
        if task is not None and not task._done:
            end = task.start_step + task.duration
            if task.start_step <= world.clock < end:
                is_final = world.clock == end - 1
                _reference_task_step(world, task, is_final)
                if is_final:
                    task._done = True
                    world.action_log.append(
                        ActionRecord(
                            world.agent().memid, task.kind, task.log_parameters(),
                            (task.start_step, end),
                        )
                    )
        world.clock += 1
    return world


def _reference_task_step(world, task, is_final):
    params = task.parameters
    if task.kind == "move":
        _step_towards(world, world.agent(), tuple(params["target"]), MOVE_SPEED)
    elif task.kind == "follow":
        try:
            target = world.get_entity(params["target_memid"])
        except UnknownMemidError:
            raise InvalidTaskError("follow target is not in the world") from None
        _step_towards(world, world.agent(), target.pose.position, FOLLOW_SPEED)
    elif is_final and task.kind == "build":
        voxels = scenegen.make_shape(
            params["shape"], params["shape_params"], tuple(params["origin"])
        )
        world.add_block(params["shape"], params["color"], voxels)
    elif is_final and task.kind == "dig":
        voxels = scenegen.make_shape("hole", {"size": params["size"]}, tuple(params["origin"]))
        world.add_block("hole", params["color"], voxels)
    elif is_final and task.kind == "destroy":
        try:
            world.remove_block(params["target_memid"])
        except UnknownMemidError:
            raise InvalidTaskError("destroy target is not in the world") from None


SEGMENTS = (7, 1, 0, 22, 30)
REFERENCE_KINDS = ("follow_npc", "follow_player", "move", "build", "dig", "destroy")


def _reference_task(kind, world, rng):
    total = sum(SEGMENTS)
    duration = rng.randint(1, total)
    start = rng.randint(0, total - duration)
    if kind == "follow_npc":
        params = {"target_memid": rng.choice(world.npcs()).memid}
    elif kind == "follow_player":
        params = {"target_memid": world.player().memid}
    elif kind == "move":
        params = {"target": tuple(rng.uniform(0, world.world_size) for _ in range(3))}
    elif kind == "build":
        shape = rng.choice([s for s in scenegen.SHAPES if s != "hole"])
        params = {
            "shape": shape,
            "shape_params": scenegen.sample_shape_params(shape, rng),
            "origin": tuple(rng.randint(3, 8) for _ in range(3)),
            "color": "brown",
        }
    elif kind == "dig":
        params = {"size": [2, 1, 3], "origin": (rng.randint(0, 9), 0, rng.randint(0, 9)),
                  "color": "black"}
    else:
        params = {"target_memid": rng.choice(world.block_objects).memid}
    return Task(kind.split("_")[0], params, duration=duration, start_step=start)


def _twin_worlds(seed, make_task):
    """Two equal scenes with equal tasks and equal, separately owned RNGs."""
    twins = []
    for _ in range(2):
        world = build_scene(GenConfig(), random.Random(seed))
        twins.append((world, make_task(world, random.Random(seed + 1)), random.Random(seed + 2)))
    return twins


def _assert_same_world(got, want, time_index):
    (world, _, rng), (ref_world, _, ref_rng) = got, want
    assert world.clock == ref_world.clock
    assert rng.getstate() == ref_rng.getstate()
    assert take_snapshot(world, time_index) == take_snapshot(ref_world, time_index)
    assert world.action_log == ref_world.action_log


@pytest.mark.parametrize("kind", REFERENCE_KINDS)
def test_step_world_matches_per_move_reference(kind):
    for seed in range(200):
        got, want = _twin_worlds(seed, lambda world, rng: _reference_task(kind, world, rng))
        (world, task, rng), (ref_world, ref_task, ref_rng) = got, want
        _assert_same_world(got, want, 0)
        for snapshot_index, n in enumerate(SEGMENTS, start=1):
            step_world(world, n, task, rng)
            reference_step_world(ref_world, n, ref_task, ref_rng)
            _assert_same_world(got, want, snapshot_index)
        assert task._done == ref_task._done


@pytest.mark.parametrize("kind", ("destroy", "follow"))
def test_failing_task_step_leaves_the_reference_poses(kind):
    # a destroy aimed at an NPC and a follow aimed at a block pass the
    # fail-fast check and raise only at their own task step
    for seed in range(20):

        def make_task(world, rng):
            target = world.npcs()[0] if kind == "destroy" else world.block_objects[0]
            return Task(kind, {"target_memid": target.memid}, duration=3, start_step=5 + seed)

        twins = _twin_worlds(seed, make_task)
        (world, task, rng), (ref_world, ref_task, ref_rng) = twins
        with pytest.raises(InvalidTaskError):
            step_world(world, 40, task, rng)
        with pytest.raises(InvalidTaskError):
            reference_step_world(ref_world, 40, ref_task, ref_rng)
        assert world.clock == ref_world.clock == (7 + seed if kind == "destroy" else 5 + seed)
        _assert_same_world(twins[0], twins[1], 1)


def test_step_world_matches_reference_off_the_grid():
    # hand-built NPCs off the 0.1 grid and outside the world: the first
    # move snaps and clamps every coordinate, y included
    def make_world():
        return simple_world(
            [
                (AGENT, "iggy", "pink", Pose(1.0, 0.0, 1.0)),
                (PLAYER, "sara", "white", Pose(5.0, 0.0, 5.0)),
                (NPC, "high", "brown", Pose(3.14159, 20.0, -2.0, yaw=12.0), "cow"),
                (NPC, "low", "white", Pose(16.0, -1.234, 7.77), "pig"),
            ]
        )

    for seed in range(20):
        twins = []
        for _ in range(2):
            world = make_world()
            task = Task("follow", {"target_memid": world.npcs()[seed % 2].memid},
                        duration=20, start_step=seed)
            twins.append((world, task, random.Random(seed)))
        (world, task, rng), (ref_world, ref_task, ref_rng) = twins
        for n in SEGMENTS:
            step_world(world, n, task, rng)
            reference_step_world(ref_world, n, ref_task, ref_rng)
        _assert_same_world(twins[0], twins[1], 1)
