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
from dataclasses import dataclass, field

from .worldcore import (
    ActionRecord,
    Entity,
    Pose,
    UnknownMemidError,
    Vec3,
    WorldState,
    memid_hex,
)
from . import scenegen

TASK_KINDS = ("move", "build", "destroy", "dig", "follow")

MOVE_SPEED = 0.5
FOLLOW_SPEED = 0.8
NPC_MOVE_PROB = 0.8
NPC_MAX_STEP = 0.5
_FULL_TURN = 2.0 * math.pi


class InvalidTaskError(ValueError):
    """Task parameters do not type-check or reference missing objects."""


class InvalidScheduleError(ValueError):
    """Snapshot count incompatible with the step count."""


@dataclass
class Task:
    """One scripted agent command, active on [start_step, start_step + duration)."""

    kind: str
    parameters: dict
    duration: int
    start_step: int = 0
    _done: bool = field(default=False, repr=False)

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise InvalidTaskError(f"unknown task kind {self.kind!r}")
        if self.duration < 1:
            raise InvalidTaskError("task duration must be >= 1")
        required = {
            "move": ("target",),
            "build": ("shape", "shape_params", "origin", "color"),
            "destroy": ("target_memid",),
            "dig": ("size", "origin", "color"),
            "follow": ("target_memid",),
        }[self.kind]
        missing = [k for k in required if k not in self.parameters]
        if missing:
            raise InvalidTaskError(f"{self.kind} task missing parameters {missing}")

    def log_parameters(self) -> dict:
        out = {}
        for key, value in self.parameters.items():
            if key == "target_memid":
                out[key] = memid_hex(value)
            elif isinstance(value, tuple):
                out[key] = list(value)
            else:
                out[key] = value
        return out


def schedule_snapshots(total_steps: int, n_snapshots: int) -> list[int]:
    """Evenly spaced snapshot step indices, always including 0 and total_steps."""
    if n_snapshots < 1:
        raise InvalidScheduleError("need at least one snapshot")
    if total_steps < 0:
        raise InvalidScheduleError("total_steps must be >= 0")
    if n_snapshots > total_steps + 1:
        raise InvalidScheduleError(
            f"{n_snapshots} snapshots do not fit in {total_steps} steps"
        )
    if n_snapshots == 1:
        return [0]
    return [round(i * total_steps / (n_snapshots - 1)) for i in range(n_snapshots)]


def _heading_yaw(dx: float, dz: float) -> float:
    # yaw 0 faces +z; see worldcore.look_vector
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
        walker = walkers.get(params["target_memid"])
        if walker is not None:
            target = walker[:3]
        else:
            try:
                target = world.get_entity(params["target_memid"]).pose.position
            except UnknownMemidError:
                raise InvalidTaskError("follow target is not in the world") from None
        _step_towards(world, agent, target, FOLLOW_SPEED)
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
            try:
                world.remove_block(params["target_memid"])
            except UnknownMemidError:
                raise InvalidTaskError("destroy target is not in the world") from None


def step_world(
    world: WorldState,
    n_steps: int,
    task: Task | None = None,
    rng: random.Random | None = None,
) -> WorldState:
    """Advance the world n_steps steps, running the task where scheduled.

    Mutates and returns the same WorldState. The task's start_step is an
    absolute clock value, so stepping may be split into segments (for
    snapshotting) and the task still executes on its own interval.

    NPCs walk on plain floats for the whole call; each NPC that moved
    gets one new Pose at the end, facing the heading of its last move.
    That also happens when a task step raises, so the NPCs stay where
    their moves up to the failing step put them.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if task is not None and task.kind in ("destroy", "follow"):
        # fail fast on dangling references
        target = task.parameters["target_memid"]
        known = {e.memid for e in world.entities} | {b.memid for b in world.block_objects}
        if target not in known and not task._done:
            raise InvalidTaskError(f"task target {memid_hex(target)} not in world")
    rng = rng or random.Random(0)
    npcs = world.npcs()
    # [x, y, z, last dx, last dz] per NPC; last dx stays None until it moves
    walkers = {npc.memid: [*npc.pose.position, None, 0.0] for npc in npcs}
    hi = world.world_size - 0.1
    draw, cos, sin = rng.random, math.cos, math.sin
    try:
        for _ in range(n_steps):
            for s in walkers.values():
                if draw() >= NPC_MOVE_PROB:
                    continue
                # rng.uniform(0, b) is 0.0 + b * random(): the same draws, inlined
                angle = _FULL_TURN * draw()
                length = NPC_MAX_STEP * draw()
                dx = length * cos(angle)
                dz = length * sin(angle)
                x, y, z = s[0] + dx, s[1], s[2] + dz
                # WorldState.clamp, inlined
                s[0] = round((0.0 if x < 0.0 else hi if x > hi else x) * 10.0) / 10.0
                s[1] = round((0.0 if y < 0.0 else hi if y > hi else y) * 10.0) / 10.0
                s[2] = round((0.0 if z < 0.0 else hi if z > hi else z) * 10.0) / 10.0
                s[3] = dx
                s[4] = dz
            if task is not None and not task._done:
                end = task.start_step + task.duration
                if task.start_step <= world.clock < end:
                    is_final = world.clock == end - 1
                    _apply_task_step(world, task, is_final, walkers)
                    if is_final:
                        task._done = True
                        world.action_log.append(
                            ActionRecord(
                                actor_memid=world.agent().memid,
                                action_name=task.kind,
                                parameters=task.log_parameters(),
                                step_interval=(task.start_step, end),
                            )
                        )
            world.clock += 1
    finally:
        for npc, (x, y, z, dx, dz) in zip(npcs, walkers.values()):
            if dx is not None:
                npc.pose = Pose(x, y, z, npc.pose.pitch, _heading_yaw(dx, dz))
    return world


# --- task sampling ----------------------------------------------------------


def sample_task(world: WorldState, total_steps: int, config, rng: random.Random) -> Task | None:
    """Draw at most one agent command for the episode, or None."""
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
        taken = set()
        for block in world.block_objects:
            taken |= set(block.voxels)
        shape = "hole" if kind == "dig" else rng.choice(
            [s for s in scenegen.SHAPES if s != "hole"]
        )
        for _ in range(20):
            params = scenegen.sample_shape_params(shape, rng)
            _, ranges = scenegen.placement(shape, params, world.world_size)
            if ranges is None:
                continue
            ox = rng.randint(*ranges[0])
            oy = ranges[1][0] if kind == "dig" else rng.randint(*ranges[1])
            oz = rng.randint(*ranges[2])
            voxels = scenegen.make_shape(shape, params, (ox, oy, oz))
            if voxels & taken:
                continue
            duration = max(1, min(len(voxels), total_steps))
            start = rng.randint(0, total_steps - duration)
            color = rng.choice(scenegen.COLORS)
            if kind == "dig":
                task_params = {"size": params["size"], "origin": (ox, oy, oz), "color": color}
            else:
                task_params = {
                    "shape": shape,
                    "shape_params": params,
                    "origin": (ox, oy, oz),
                    "color": color,
                }
            return Task(kind, task_params, duration=duration, start_step=start)
        return None

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


def run_episode(config, rng: random.Random):
    """Build a scene and step it through its snapshot schedule.

    Returns (world, snapshots): the final world state (holding the
    action log) and the recorded snapshots in time order.
    """
    from .scenegen import build_scene
    from .worldcore import take_snapshot

    world = build_scene(config, rng)
    times = schedule_snapshots(config.world_steps, config.n_snapshots)
    task = sample_task(world, config.world_steps, config, rng)
    snapshots = [take_snapshot(world, 0)]
    current = 0
    for t in times[1:]:
        step_world(world, t - current, task, rng)
        current = t
        snapshots.append(take_snapshot(world, t))
    return world, snapshots
