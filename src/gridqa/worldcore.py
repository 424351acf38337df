"""World state and memory store.

A world is a finite 3D grid holding animate entities (one agent, one
player, any number of NPCs) and voxel block objects. Every object is
keyed by a 64-bit memid, and descriptive facts about objects are stored
as subject-predicate-object triples that carry their own memids.

Snapshots freeze the full world at a recorded timestep. Memids are
stable across snapshots, so the same object keeps the same id at every
recorded time.

Conventions fixed here and used everywhere else:
  * y is the vertical axis (up).
  * yaw 0 faces +z; look = (-sin yaw * cos pitch, -sin pitch,
    cos yaw * cos pitch).
  * "right" is look x up projected to the horizontal plane, so at
    yaw 0 right points along -x. "left" is the negation.
  * animate positions are floats quantized to 0.1 grid units; block
    voxels are integer cells.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

AGENT = "agent"
PLAYER = "player"
NPC = "npc"

PREDICATES = ("has_name", "has_tag", "has_colour", "has_type")
# predicates whose object words count as "properties" of an object
PROPERTY_PREDICATES = ("has_tag", "has_colour", "has_type")

Cell = tuple[int, int, int]
Vec3 = tuple[float, float, float]


class UnknownMemidError(KeyError):
    """Raised when a memid does not resolve in the queried snapshot."""


class SnapshotOrderError(ValueError):
    """Raised when snapshots are requested with non-increasing time indices."""


_pack_memid_key = struct.Struct("<qq").pack
# copying an empty hash is cheaper than building one with digest_size=8
_MEMID_HASH = hashlib.blake2b(digest_size=8)


def derive_memid(world_seed: int, counter: int) -> int:
    """Deterministic 64-bit id: the 8-byte blake2b digest of the pair
    (world_seed, counter) packed as two little-endian int64."""
    h = _MEMID_HASH.copy()
    h.update(_pack_memid_key(world_seed, counter))
    return int.from_bytes(h.digest(), "little")


def memid_hex(memid: int) -> str:
    return format(memid, "016x")


def snap_coord(v: float) -> float:
    """Quantize an animate coordinate to the 0.1 grid."""
    return round(v * 10.0) / 10.0


def round_half_away(v: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(v + 0.5)) if v >= 0 else -int(math.floor(-v + 0.5))


class _PoseFields(NamedTuple):
    x: float
    y: float
    z: float
    pitch: float = 0.0
    yaw: float = 0.0


class Pose(_PoseFields):
    """Position plus view direction. yaw in [0, 360), pitch in [-90, 90].

    An immutable (x, y, z, pitch, yaw) tuple; construction normalizes
    the two angles.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float, pitch: float = 0.0, yaw: float = 0.0):
        return tuple.__new__(cls, (x, y, z, max(-90.0, min(90.0, pitch)), yaw % 360.0))

    @property
    def position(self) -> Vec3:
        return (self.x, self.y, self.z)


@dataclass
class Entity:
    """An animate reference object: the agent, the player, or an NPC."""

    memid: int
    kind: str  # agent | player | npc
    name: str
    color: str
    pose: Pose
    npc_type: str | None = None

    @property
    def type_word(self) -> str:
        """Word used as the object's type: npc_type for NPCs, else the kind."""
        return self.npc_type if self.kind == NPC else self.kind


@dataclass(frozen=True)
class BlockObject:
    """A voxel structure (or hole). Voxels are integer grid cells.

    The centroid is computed on first use and kept in the instance dict;
    it is not a field, so it enters neither ==, hash nor repr.
    """

    memid: int
    shape: str
    color: str
    voxels: frozenset[Cell]

    @cached_property
    def centroid(self) -> Vec3:
        n = len(self.voxels)
        sx = sum(v[0] for v in self.voxels)
        sy = sum(v[1] for v in self.voxels)
        sz = sum(v[2] for v in self.voxels)
        return (sx / n, sy / n, sz / n)


class Triple(NamedTuple):
    t_id: int
    subject_memid: int
    predicate: str
    object_text: str


RefObject = Entity | BlockObject


def object_position(obj: RefObject) -> Vec3:
    return obj.pose.position if isinstance(obj, Entity) else obj.centroid


def look_vector(pose: Pose) -> Vec3:
    yaw = math.radians(pose.yaw)
    pitch = math.radians(pose.pitch)
    return (
        -math.sin(yaw) * math.cos(pitch),
        -math.sin(pitch),
        math.cos(yaw) * math.cos(pitch),
    )


def horizontal_direction(pose: Pose, side: str) -> Vec3:
    """Unit vector for left/right/front/back in the horizontal plane.

    Derived from yaw alone, so it stays defined even when the pose
    looks straight up or down.
    """
    yaw = math.radians(pose.yaw)
    front = (-math.sin(yaw), 0.0, math.cos(yaw))
    right = (-math.cos(yaw), 0.0, -math.sin(yaw))
    if side == "front":
        return front
    if side == "back":
        return (-front[0], 0.0, -front[2])
    if side == "right":
        return right
    if side == "left":
        return (-right[0], 0.0, -right[2])
    raise ValueError(f"unknown side {side!r}")


@dataclass(frozen=True)
class Snapshot:
    """Immutable, fully observed copy of the world at one recorded step.

    Reference objects and triples are stored in canonical order (sorted
    by memid and t_id) so equal world states produce equal snapshots.
    """

    time_index: int
    reference_objects: tuple[RefObject, ...]
    triples: tuple[Triple, ...]

    @cached_property
    def _by_memid(self) -> dict[int, RefObject]:
        # built on first lookup; not a field, so == and repr ignore it
        return {obj.memid: obj for obj in self.reference_objects}

    def lookup(self, memid: int) -> RefObject:
        try:
            return self._by_memid[memid]
        except KeyError:
            raise UnknownMemidError(memid) from None

    def has_memid(self, memid: int) -> bool:
        return memid in self._by_memid

    def entities(self) -> list[Entity]:
        return [o for o in self.reference_objects if isinstance(o, Entity)]

    def blocks(self) -> list[BlockObject]:
        return [o for o in self.reference_objects if isinstance(o, BlockObject)]

    def memids(self) -> set[int]:
        return set(self._by_memid)


@dataclass
class ActionRecord:
    """Generator-side log of an executed agent task.

    Never serialized into the context text or graph; only the dataset
    metadata and the action-query ground truth read it.
    """

    actor_memid: int
    action_name: str
    parameters: dict
    step_interval: tuple[int, int]

    def to_json(self) -> dict:
        return {
            "actor": memid_hex(self.actor_memid),
            "action": self.action_name,
            "parameters": self.parameters,
            "step_interval": list(self.step_interval),
        }


@dataclass
class WorldState:
    """Mutable simulation state. Single writer; snapshots are immutable."""

    world_size: int
    seed: int
    clock: int = 0
    entities: list[Entity] = field(default_factory=list)
    block_objects: list[BlockObject] = field(default_factory=list)
    triples: list[Triple] = field(default_factory=list)
    action_log: list[ActionRecord] = field(default_factory=list)
    _memid_counter: int = 0
    _last_snapshot_time: int = -1

    def new_memid(self) -> int:
        memid = derive_memid(self.seed, self._memid_counter)
        self._memid_counter += 1
        return memid

    def add_entity(
        self,
        kind: str,
        name: str,
        color: str,
        pose: Pose,
        npc_type: str | None = None,
    ) -> Entity:
        entity = Entity(self.new_memid(), kind, name, color, pose, npc_type)
        self.entities.append(entity)
        self.add_triple(entity.memid, "has_name", name)
        self.add_triple(entity.memid, "has_type", entity.type_word)
        self.add_triple(entity.memid, "has_colour", color)
        # tags duplicate type and color so property filters catch both
        self.add_triple(entity.memid, "has_tag", entity.type_word)
        self.add_triple(entity.memid, "has_tag", color)
        return entity

    def add_block(self, shape: str, color: str, voxels: frozenset[Cell]) -> BlockObject:
        if not voxels:
            raise ValueError("block object needs at least one voxel")
        block = BlockObject(self.new_memid(), shape, color, voxels)
        self.block_objects.append(block)
        self.add_triple(block.memid, "has_tag", shape)
        self.add_triple(block.memid, "has_colour", color)
        return block

    def add_triple(self, subject_memid: int, predicate: str, object_text: str) -> Triple:
        if predicate not in PREDICATES:
            raise ValueError(f"unknown predicate {predicate!r}")
        triple = Triple(self.new_memid(), subject_memid, predicate, object_text)
        self.triples.append(triple)
        return triple

    def remove_block(self, memid: int) -> None:
        before = len(self.block_objects)
        self.block_objects = [b for b in self.block_objects if b.memid != memid]
        if len(self.block_objects) == before:
            raise UnknownMemidError(memid)
        self.triples = [t for t in self.triples if t.subject_memid != memid]

    def get_entity(self, memid: int) -> Entity:
        for e in self.entities:
            if e.memid == memid:
                return e
        raise UnknownMemidError(memid)

    def agent(self) -> Entity:
        return next(e for e in self.entities if e.kind == AGENT)

    def player(self) -> Entity:
        return next(e for e in self.entities if e.kind == PLAYER)

    def npcs(self) -> list[Entity]:
        return [e for e in self.entities if e.kind == NPC]

    def clamp(self, point: Vec3) -> Vec3:
        # snap_coord inlined per axis: same arithmetic, no call per coordinate.
        # With hi > 0 the comparisons give min(max(v, 0.0), hi) without two calls.
        hi = self.world_size - 0.1
        x, y, z = point
        return (
            round((0.0 if x < 0.0 else hi if x > hi else x) * 10.0) / 10.0,
            round((0.0 if y < 0.0 else hi if y > hi else y) * 10.0) / 10.0,
            round((0.0 if z < 0.0 else hi if z > hi else z) * 10.0) / 10.0,
        )


def take_snapshot(world: WorldState, time_index: int) -> Snapshot:
    """Freeze the current world into an immutable snapshot.

    time_index must exceed every previously snapshotted index for this
    world. Mutating the world afterwards never changes the snapshot.
    """
    if time_index <= world._last_snapshot_time:
        raise SnapshotOrderError(
            f"snapshot time {time_index} not after previous "
            f"{world._last_snapshot_time}"
        )
    world._last_snapshot_time = time_index
    objects: list[RefObject] = [Entity(**vars(e)) for e in world.entities]
    objects.extend(world.block_objects)
    # memids are below 2**64, so the integer order is the order of memid_hex
    objects.sort(key=attrgetter("memid"))
    triples = sorted(world.triples, key=attrgetter("t_id"))
    return Snapshot(time_index, tuple(objects), tuple(triples))
