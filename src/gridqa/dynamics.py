"""World dynamics: stepping, NPC movement, and scripted agent tasks.

Each world step NPCs take a random horizontal walk (probability 0.8 of
moving, displacement length up to 0.5 units, yaw turned to the
heading). NPC poses, and the heading yaw of each NPC's last move, are
set once at the end of each `step_world` call; no task reads an NPC's
yaw in between. The agent only moves or changes the world while
executing a task. Task effects that create or remove block objects
apply atomically at the task's final step, so any snapshot sees either
no block or the whole block.

Speeds: the move task steps at 0.5 units per step; follow pursues at
0.8 units per step so it gains on a fleeing walker.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .worldcore import Entity, Pose, Vec3, WorldState
from . import scenegen, worldcore

TASK_KINDS = ("move", "build", "destroy", "dig", "follow")

MOVE_SPEED = 0.5
FOLLOW_SPEED = 0.8
NPC_MOVE_PROB = 0.8
NPC_MAX_STEP = 0.5
_FULL_TURN = 2.0 * math.pi


class Task(NamedTuple):
    """One scripted agent command, active on [start_step, start_step + duration).

    Tasks come from sample_task, which draws only well-formed ones: a
    kind from TASK_KINDS with the parameters that kind uses, a duration
    of at least 1 that ends within the episode, a follow target that is
    an NPC and a destroy target that is a block of the world.
    """

    kind: str
    parameters: dict
    duration: int
    start_step: int = 0

    def log_entry(self, actor_memid: str) -> dict:
        """The task as an action_log entry, run by the entity actor_memid.

        It shares the task's parameters dict, whose tuples json.dumps writes
        as lists, as FORMAT.md shows them."""
        return {
            "actor": actor_memid,
            "action": self.kind,
            "parameters": self.parameters,
            "step_interval": [self.start_step, self.start_step + self.duration],
        }


def schedule_snapshots(total_steps: int, n_snapshots: int) -> list[int]:
    """Evenly spaced snapshot step indices, always including 0 and total_steps.

    The caller supplies counts GenConfig.validate() accepts: at least one
    snapshot, at most total_steps + 1 of them.
    """
    if n_snapshots == 1:
        return [0]
    return [round(i * total_steps / (n_snapshots - 1)) for i in range(n_snapshots)]


def _heading_yaw(dx: float, dz: float) -> float:
    # yaw 0 faces +z; see the conventions in the worldcore docstring
    return float(round(math.degrees(math.atan2(-dx, dz)))) % 360.0


def _step_towards(world: WorldState, entity: Entity, target: Vec3, speed: float) -> None:
    pose = entity.pose
    delta = (target[0] - pose.x, target[1] - pose.y, target[2] - pose.z)
    dist = math.hypot(*delta)
    if dist <= 1e-9:
        return
    scale = min(1.0, speed / dist)
    moved = (pose.x + delta[0] * scale, pose.y + delta[1] * scale, pose.z + delta[2] * scale)
    x, y, z = world.clamp(moved)
    entity.pose = Pose(x, y, z, pitch=pose.pitch, yaw=_heading_yaw(delta[0], delta[2]))


def _apply_task_step(world: WorldState, task: Task, is_final: bool, walkers: dict) -> None:
    agent = world.agent()
    params = task.parameters
    if task.kind == "move":
        _step_towards(world, agent, tuple(params["target"]), MOVE_SPEED)
    elif task.kind == "follow":
        _step_towards(world, agent, walkers[params["target_memid"]][:3], FOLLOW_SPEED)
    elif is_final:
        if task.kind == "build":
            voxels = scenegen.make_shape(
                params["shape"], params["shape_params"], tuple(params["origin"])
            )
            world.add_block(params["shape"], params["color"], voxels)
        elif task.kind == "dig":
            voxels = scenegen.make_shape("hole", {"size": params["size"]}, tuple(params["origin"]))
            world.add_block("hole", params["color"], voxels)
        elif task.kind == "destroy":
            world.remove_block(params["target_memid"])


def step_world(
    world: WorldState, n_steps: int, task: Task | None, rng: random.Random
) -> WorldState:
    """Advance the world n_steps >= 0 steps, running the task where scheduled.

    The caller passes the task sample_task drew for this world, or None.
    Mutates and returns the same WorldState. The task's start_step is an
    absolute clock value, so stepping may be split into segments (for
    snapshotting) and the task still executes on its own interval.

    NPCs walk on plain floats for the whole call; each NPC that moved
    gets one new Pose at the end, facing the heading of its last move.
    A move changes only x and z, and clamps and snaps them. y is clamped
    and snapped at an NPC's first move in the call only: after it, y is
    in range and on the 0.1 grid, where doing so again changes nothing.
    """
    npcs = world.npcs()
    # [x, y, z, last dx, last dz] per NPC; last dx stays None until it moves
    walkers = {npc.memid: [*npc.pose.position, None, 0.0] for npc in npcs}
    # without a task the interval [0, 0) holds no step
    start, end = (task.start_step, task.start_step + task.duration) if task is not None else (0, 0)
    hi = world.world_size - 0.1
    draw, cos, sin = rng.random, math.cos, math.sin
    move_prob, max_step, full_turn = NPC_MOVE_PROB, NPC_MAX_STEP, _FULL_TURN
    for _ in range(n_steps):
        for s in walkers.values():
            if draw() >= move_prob:
                continue
            # rng.uniform(0, b) is 0.0 + b * random(): the same draws, inlined
            angle = full_turn * draw()
            length = max_step * draw()
            dx = length * cos(angle)
            dz = length * sin(angle)
            x, z = s[0] + dx, s[2] + dz
            # WorldState.clamp, inlined
            s[0] = round((0.0 if x < 0.0 else hi if x > hi else x) * 10.0) / 10.0
            s[2] = round((0.0 if z < 0.0 else hi if z > hi else z) * 10.0) / 10.0
            if s[3] is None:
                y = s[1]
                s[1] = round((0.0 if y < 0.0 else hi if y > hi else y) * 10.0) / 10.0
            s[3] = dx
            s[4] = dz
        if start <= world.clock < end:
            _apply_task_step(world, task, world.clock == end - 1, walkers)
        world.clock += 1
    for npc, (x, y, z, dx, dz) in zip(npcs, walkers.values()):
        if dx is not None:
            npc.pose = Pose(x, y, z, npc.pose.pitch, _heading_yaw(dx, dz))
    return world


# --- task sampling ----------------------------------------------------------


def sample_task(
    world: WorldState, total_steps: int, config, rng: random.Random, pools: scenegen.ScenePools
) -> Task | None:
    """Draw at most one agent command for the episode, or None.

    A built or dug block takes its colour from the run's colour pool.
    """
    if total_steps < 1 or rng.random() >= config.command_prob:
        return None
    options = ["move", "build", "dig"]
    if world.block_objects:
        options.append("destroy")
    if world.npcs():
        options.append("follow")
    kind = rng.choice(options)
    agent = world.agent()

    if kind == "move":
        for _ in range(20):
            target = world.clamp(
                (
                    rng.uniform(0, world.world_size),
                    rng.uniform(0, world.world_size),
                    rng.uniform(0, world.world_size),
                )
            )
            needed = max(1, math.ceil(math.dist(agent.pose.position, target) / MOVE_SPEED))
            if needed <= total_steps:
                start = rng.randint(0, total_steps - needed)
                return Task("move", {"target": target}, duration=needed, start_step=start)
        return None

    if kind in ("build", "dig"):
        taken = set().union(*(block.voxels for block in world.block_objects))
        shape = "hole" if kind == "dig" else rng.choice(
            [s for s in scenegen.SHAPES if s != "hole"]
        )
        spot = scenegen.place_block(shape, taken, world.world_size, rng)
        if spot is None:
            return None
        params, origin, voxels = spot
        duration = max(1, min(len(voxels), total_steps))
        start = rng.randint(0, total_steps - duration)
        color = rng.choice(pools.colors)
        if kind == "dig":
            task_params = {"size": params["size"], "origin": origin, "color": color}
        else:
            task_params = {"shape": shape, "shape_params": params, "origin": origin, "color": color}
        return Task(kind, task_params, duration=duration, start_step=start)

    if kind == "destroy":
        block = rng.choice(world.block_objects)
        duration = max(1, min(len(block.voxels), total_steps))
        start = rng.randint(0, total_steps - duration)
        return Task("destroy", {"target_memid": block.memid}, duration=duration, start_step=start)

    # follow
    target = rng.choice(world.npcs())
    duration = rng.randint(1, total_steps)
    start = rng.randint(0, total_steps - duration)
    return Task("follow", {"target_memid": target.memid}, duration=duration, start_step=start)


def run_episode(config, rng: random.Random, pools: scenegen.ScenePools):
    """Build a scene from pools and step it through its snapshot schedule.

    Returns (action_log, snapshots): the log entry of the task the agent
    ran, or [] when it ran none, and the recorded snapshots in time order.
    A sampled task ends by world_steps, and the schedule's last snapshot is
    at world_steps, so the agent runs every task it draws. No task is drawn
    when world_steps is 0 (GenConfig.validate() allows one snapshot only then).
    """
    # build_scene and take_snapshot are looked up through their modules so a tracer can wrap them
    world = scenegen.build_scene(config, rng, pools)
    times = schedule_snapshots(config.world_steps, config.n_snapshots)
    task = sample_task(world, config.world_steps, config, rng, pools)
    snapshots = [worldcore.take_snapshot(world, 0)]
    current = 0
    for t in times[1:]:
        step_world(world, t - current, task, rng)
        current = t
        snapshots.append(worldcore.take_snapshot(world, t))
    if task is None:
        return [], snapshots
    return [task.log_entry(world.agent().memid)], snapshots
