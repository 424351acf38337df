import hashlib
import itertools
import json
import math
import random

import pytest

from conftest import make_episode, minimal_world, pools_for, simple_world, snapshot_blocks
from gridqa import GenConfig
from gridqa import dynamics, scenegen
from gridqa.config import ConfigError
from gridqa.dynamics import (
    FOLLOW_SPEED,
    MOVE_SPEED,
    NPC_MAX_STEP,
    NPC_MOVE_PROB,
    TASK_KINDS,
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
    Pose,
    take_snapshot,
)


def test_schedule_endpoints_and_spacing():
    assert schedule_snapshots(50, 2) == [0, 50]
    assert schedule_snapshots(0, 1) == [0]
    assert schedule_snapshots(50, 3) == [0, 25, 50]
    assert schedule_snapshots(10, 1) == [0]
    assert schedule_snapshots(9, 4) == [0, 3, 6, 9]


def test_schedule_rejects_impossible_counts():
    # a run's config check refuses the counts schedule_snapshots cannot lay out
    with pytest.raises(ConfigError, match="n_snapshots"):
        GenConfig(world_steps=3, n_snapshots=5).validate()
    with pytest.raises(ConfigError, match="n_snapshots"):
        GenConfig(n_snapshots=0).validate()
    with pytest.raises(ConfigError, match="world_steps"):
        GenConfig(world_steps=-1, n_snapshots=1).validate()


def test_schedule_indices_strictly_increase():
    for total in range(0, 60):
        for n in range(1, total + 2):
            times = schedule_snapshots(total, n)
            assert times[0] == 0
            if n > 1:
                assert times[-1] == total
            assert all(b > a for a, b in zip(times, times[1:]))


def test_zero_steps_changes_nothing():
    world = build_scene(GenConfig(), random.Random(4), pools_for(GenConfig()))
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


def test_follow_closes_distance():
    config = GenConfig(n_blocks_min=0, n_blocks_max=0)
    world = build_scene(config, random.Random(21), pools_for(config))
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
    world = build_scene(GenConfig(), random.Random(9), pools_for(GenConfig()))
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
        pools = pools_for(GenConfig())
        world = build_scene(GenConfig(), random.Random(31), pools)
        task = sample_task(world, 50, GenConfig(), random.Random(32), pools)
        step_world(world, 50, task, random.Random(33))
        return take_snapshot(world, 50)

    assert run() == run()


def test_run_episode_snapshot_times():
    config = GenConfig()
    _, snapshots = make_episode(seed=13, config=config)
    assert [s.time_index for s in snapshots] == [0, 50]

    props = GenConfig.properties_mode()
    action_log, snapshots = make_episode(seed=13, config=props)
    assert [s.time_index for s in snapshots] == [0]
    assert not action_log


def test_action_log_interval_within_episode():
    for seed in range(30):
        action_log, _ = make_episode(seed)
        for record in action_log:
            start, end = record["step_interval"]
            assert 0 <= start < end <= 50
            assert record["action"] in ("move", "build", "destroy", "dig", "follow")



# sha256(json.dumps(action logs, sort_keys=True)) prefix over the default
# episodes at seeds 0-199: pins every draw sample_task makes
TASK_DRAW_DIGEST = "a0806a12eb22e5c8"


def test_task_draws_are_pinned():
    logs = [make_episode(seed)[0] for seed in range(200)]
    digest = hashlib.sha256(json.dumps(logs, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == TASK_DRAW_DIGEST


TASK_PARAMETERS = {
    "move": {"target"},
    "build": {"shape", "shape_params", "origin", "color"},
    "destroy": {"target_memid"},
    "dig": {"size", "origin", "color"},
    "follow": {"target_memid"},
}


@pytest.mark.parametrize("preset", ("default", "properties"))
def test_sampled_tasks_meet_the_step_world_contract(preset, monkeypatch):
    # what step_world takes as given of its task, checked on every task
    # sample_task draws, against the world it draws from
    config = GenConfig() if preset == "default" else GenConfig.properties_mode()
    drawn = []

    def recording_sample_task(world, *args):
        task = sample_task(world, *args)
        if task is not None:
            npcs = {npc.memid for npc in world.npcs()}
            drawn.append((task, npcs, {block.memid: block.voxels for block in world.block_objects}))
        return task

    monkeypatch.setattr(dynamics, "sample_task", recording_sample_task)
    for seed in range(200):
        make_episode(seed, config)
    for task, npcs, blocks in drawn:
        assert task.kind in TASK_KINDS
        assert set(task.parameters) == TASK_PARAMETERS[task.kind]
        assert task.duration >= 1 and task.start_step >= 0
        # every task ends by the last step, so run_episode logs each one it draws
        assert task.start_step + task.duration <= config.world_steps
        if task.kind == "follow":
            assert task.parameters["target_memid"] in npcs
        if task.kind == "destroy":
            assert task.parameters["target_memid"] in blocks
        if task.kind in ("build", "dig"):
            taken = set().union(*blocks.values())
            assert not task_block_cells(task) & taken
    # the properties preset steps no world, so it draws no task
    expected = set(TASK_KINDS) if preset == "default" else set()
    assert {task.kind for task, _, _ in drawn} == expected


def task_block_cells(task):
    params = task.parameters
    if task.kind == "dig":
        return scenegen.make_shape("hole", {"size": params["size"]}, params["origin"])
    return scenegen.make_shape(params["shape"], params["shape_params"], params["origin"])


def test_a_dug_hole_takes_the_lowest_origin():
    config = GenConfig(command_prob=1.0)
    pools = pools_for(config)
    dug = 0
    for seed in range(300):
        world = build_scene(config, random.Random(seed), pools)
        task = sample_task(world, config.world_steps, config, random.Random(seed), pools)
        if task is not None and task.kind == "dig":
            dug += 1
            assert min(y for _, y, _ in task_block_cells(task)) == 0
    assert dug > 0


def test_no_task_block_fits_a_world_with_every_cell_taken():
    world = minimal_world()
    size = world.world_size
    world.add_block("cube", "brown", frozenset(itertools.product(range(size), repeat=3)))
    config = GenConfig(command_prob=1.0)
    pools = pools_for(config)
    tasks = [sample_task(world, 50, config, random.Random(seed), pools) for seed in range(100)]
    # build and dig are drawn about half the time, and each finds no room
    assert None in tasks
    assert {task.kind for task in tasks if task is not None} <= {"move", "destroy"}


def test_task_blocks_take_colours_from_the_run_pool(tmp_path):
    colors = tmp_path / "colors.txt"
    colors.write_text("red\nblue\ngreen\n", encoding="utf-8")
    config = GenConfig(colors_file=str(colors), command_prob=1.0)
    pools = pools_for(config)
    task_blocks = 0
    for seed in range(200):
        action_log, snapshots = run_episode(config, random.Random(seed), pools)
        colors = {block.color for block in snapshot_blocks(snapshots[-1])}
        assert colors <= {"red", "blue", "green"}, seed
        task_blocks += sum(r["action"] in ("build", "dig") for r in action_log)
    assert task_blocks > 0

# --- reference stepping: one Pose per NPC move -------------------------------


def reference_step_world(world, n_steps, task, rng):
    """The per-move walk step_world must reproduce draw for draw and byte for byte.

    Each NPC move draws through rng.uniform, clamps through
    WorldState.clamp and writes a new Pose at once; follow reads its
    target's pose from the world.
    """
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
        if task is not None:
            end = task.start_step + task.duration
            if task.start_step <= world.clock < end:
                is_final = world.clock == end - 1
                _reference_task_step(world, task, is_final)
        world.clock += 1
    return world


def _reference_task_step(world, task, is_final):
    params = task.parameters
    if task.kind == "move":
        _step_towards(world, world.agent(), tuple(params["target"]), MOVE_SPEED)
    elif task.kind == "follow":
        target = next(e for e in world.npcs() if e.memid == params["target_memid"])
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
        world.remove_block(params["target_memid"])


SEGMENTS = (7, 1, 0, 22, 30)
REFERENCE_KINDS = ("follow_npc", "move", "build", "dig", "destroy")


def _reference_task(kind, world, rng):
    total = sum(SEGMENTS)
    duration = rng.randint(1, total)
    start = rng.randint(0, total - duration)
    if kind == "follow_npc":
        params = {"target_memid": rng.choice(world.npcs()).memid}
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
        world = build_scene(GenConfig(), random.Random(seed), pools_for(GenConfig()))
        twins.append((world, make_task(world, random.Random(seed + 1)), random.Random(seed + 2)))
    return twins


def _assert_same_world(got, want, time_index):
    (world, _, rng), (ref_world, _, ref_rng) = got, want
    assert world.clock == ref_world.clock
    assert rng.getstate() == ref_rng.getstate()
    assert take_snapshot(world, time_index) == take_snapshot(ref_world, time_index)


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
