"""Randomized scene construction.

Builds an initial world from seeded randomness: one agent, one player,
a configurable number of NPCs drawn from the name/type/color pools, and
block objects built from the voxel shape catalog.

Shape parameterization (origin is the minimum corner, except for the
radial shapes sphere, spherical_shell, dome, circle, disk and ellipsoid
where origin is the center cell; full details in FORMAT.md):

    cube, hollow_cube, square, pyramid, triangle, hollow_triangle
        {"size": s}
    rectanguloid, hollow_rectanguloid, rectanguloid_frame, hole
        {"size": [sx, sy, sz]}
    rectangle, hollow_rectangle
        {"size": [sx, sz]}
    sphere, spherical_shell, dome, circle, disk
        {"radius": r}
    ellipsoid
        {"radii": [rx, ry, rz]}
    arch
        {"width": w, "height": h}
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .worldcore import AGENT, NPC, PLAYER, Cell, Pose, WorldState, snap_coord

if TYPE_CHECKING:
    from .config import GenConfig

NPC_TYPES = ("cow", "pig", "rabbit", "chicken", "sheep")
COLORS = ("brown", "white", "black", "mottled", "pink", "yellow")

PLACEMENT_RETRIES = 100

# per axis, the lowest and highest origin offset (see origin_ranges)
Ranges = tuple[tuple[int, int], ...]


class UnknownShapeError(ValueError):
    """Raised for a shape word outside the catalog."""


class SceneCapacityError(RuntimeError):
    """Raised when collision-free placement fails after bounded retries."""


# --- voxel shape builders ---------------------------------------------------


def _box(sx: int, sy: int, sz: int) -> set[Cell]:
    return {
        (x, y, z)
        for x in range(sx)
        for y in range(sy)
        for z in range(sz)
    }


def _cube(p) -> set[Cell]:
    s = p["size"]
    return _box(s, s, s)


def _hollow_cube(p) -> set[Cell]:
    s = p["size"]
    inner = {(x, y, z) for x in range(1, s - 1) for y in range(1, s - 1) for z in range(1, s - 1)}
    return _box(s, s, s) - inner


def _rectanguloid(p) -> set[Cell]:
    sx, sy, sz = p["size"]
    return _box(sx, sy, sz)


def _hollow_rectanguloid(p) -> set[Cell]:
    sx, sy, sz = p["size"]
    inner = {
        (x, y, z)
        for x in range(1, sx - 1)
        for y in range(1, sy - 1)
        for z in range(1, sz - 1)
    }
    return _box(sx, sy, sz) - inner


def _rectanguloid_frame(p) -> set[Cell]:
    # keep only the edge cells: at least two coordinates on a face
    sx, sy, sz = p["size"]
    out = set()
    for x, y, z in _box(sx, sy, sz):
        extremal = (x in (0, sx - 1)) + (y in (0, sy - 1)) + (z in (0, sz - 1))
        if extremal >= 2:
            out.add((x, y, z))
    return out


def _ball_cells(r: int) -> set[Cell]:
    out = set()
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                if x * x + y * y + z * z <= r * r:
                    out.add((x, y, z))
    return out


def _sphere(p) -> set[Cell]:
    return _ball_cells(p["radius"])


def _spherical_shell(p) -> set[Cell]:
    r = p["radius"]
    return _ball_cells(r) - _ball_cells(r - 1)


def _dome(p) -> set[Cell]:
    return {(x, y, z) for x, y, z in _spherical_shell(p) if y >= 0}


def _ellipsoid(p) -> set[Cell]:
    rx, ry, rz = p["radii"]
    out = set()
    for x in range(-rx, rx + 1):
        for y in range(-ry, ry + 1):
            for z in range(-rz, rz + 1):
                if (x / rx) ** 2 + (y / ry) ** 2 + (z / rz) ** 2 <= 1.0:
                    out.add((x, y, z))
    return out


def _pyramid(p) -> set[Cell]:
    s = p["size"]
    out = set()
    k = 0
    while s - 2 * k >= 1:
        for x in range(k, s - k):
            for z in range(k, s - k):
                out.add((x, k, z))
        k += 1
    return out


def _square(p) -> set[Cell]:
    s = p["size"]
    return {(x, 0, z) for x in range(s) for z in range(s)}


def _rectangle(p) -> set[Cell]:
    sx, sz = p["size"]
    return {(x, 0, z) for x in range(sx) for z in range(sz)}


def _hollow_rectangle(p) -> set[Cell]:
    sx, sz = p["size"]
    return {
        (x, 0, z)
        for x in range(sx)
        for z in range(sz)
        if x in (0, sx - 1) or z in (0, sz - 1)
    }


def _circle_cells(r: int) -> set[Cell]:
    out = set()
    for x in range(-r, r + 1):
        for z in range(-r, r + 1):
            if x * x + z * z <= r * r:
                out.add((x, 0, z))
    return out


def _circle(p) -> set[Cell]:
    r = p["radius"]
    return _circle_cells(r) - _circle_cells(r - 1)


def _disk(p) -> set[Cell]:
    return _circle_cells(p["radius"])


def _triangle(p) -> set[Cell]:
    # right triangle in the xz plane: row z spans x in [0, z]
    s = p["size"]
    return {(x, 0, z) for z in range(s) for x in range(z + 1)}


def _hollow_triangle(p) -> set[Cell]:
    s = p["size"]
    return {
        (x, 0, z)
        for z in range(s)
        for x in range(z + 1)
        if x == 0 or x == z or z == s - 1
    }


def _arch(p) -> set[Cell]:
    w, h = p["width"], p["height"]
    out = {(0, y, 0) for y in range(h)} | {(w - 1, y, 0) for y in range(h)}
    out |= {(x, h, 0) for x in range(w)}
    return out


def _hole(p) -> set[Cell]:
    # cavity carved out of the ground; same cells as a rectanguloid
    sx, depth, sz = p["size"]
    return _box(sx, depth, sz)


_BUILDERS = {
    "hole": _hole,
    "cube": _cube,
    "hollow_cube": _hollow_cube,
    "rectanguloid": _rectanguloid,
    "hollow_rectanguloid": _hollow_rectanguloid,
    "sphere": _sphere,
    "spherical_shell": _spherical_shell,
    "pyramid": _pyramid,
    "square": _square,
    "rectangle": _rectangle,
    "circle": _circle,
    "disk": _disk,
    "triangle": _triangle,
    "dome": _dome,
    "arch": _arch,
    "ellipsoid": _ellipsoid,
    "hollow_triangle": _hollow_triangle,
    "hollow_rectangle": _hollow_rectangle,
    "rectanguloid_frame": _rectanguloid_frame,
}

SHAPES = tuple(_BUILDERS)


def _params_key(params: dict) -> tuple:
    """A hashable form of shape params: list values become tuples."""
    return tuple((k, tuple(v) if isinstance(v, list) else v) for k, v in params.items())


# Both caches grow by one entry per distinct (shape, params[, size]); the
# generator only asks for the few values sample_shape_params draws.
@functools.cache
def _template(shape: str, params_key: tuple) -> frozenset[Cell]:
    try:
        builder = _BUILDERS[shape]
    except KeyError:
        raise UnknownShapeError(f"unknown shape {shape!r}") from None
    return frozenset(builder(dict(params_key)))


@functools.cache
def _placement(shape: str, params_key: tuple, size: int) -> tuple[frozenset[Cell], Ranges | None]:
    template = _template(shape, params_key)
    return template, origin_ranges(template, size)


def make_shape(shape: str, size_params: dict, origin: Cell) -> frozenset[Cell]:
    """Build the voxel set for a catalog shape translated to origin."""
    ox, oy, oz = origin
    return frozenset(
        [(x + ox, y + oy, z + oz) for x, y, z in _template(shape, _params_key(size_params))]
    )


def placement(shape: str, size_params: dict, size: int) -> tuple[frozenset[Cell], Ranges | None]:
    """The shape's template at origin (0, 0, 0) and its origin_ranges in a
    size^3 world, computed once per (shape, params, size)."""
    return _placement(shape, _params_key(size_params), size)


def sample_shape_params(shape: str, rng: random.Random) -> dict:
    """Draw small size parameters for a shape, suitable for a 15-cell world."""
    if shape in ("cube", "hollow_cube"):
        return {"size": rng.randint(2, 4)}
    if shape in ("rectanguloid", "hollow_rectanguloid", "rectanguloid_frame"):
        return {"size": [rng.randint(2, 4) for _ in range(3)]}
    if shape == "hole":
        return {"size": [rng.randint(2, 3), rng.randint(1, 2), rng.randint(2, 3)]}
    if shape in ("sphere", "spherical_shell", "dome", "circle", "disk"):
        return {"radius": rng.randint(1, 2)}
    if shape == "ellipsoid":
        return {"radii": [rng.randint(1, 2) for _ in range(3)]}
    if shape in ("square", "rectangle", "hollow_rectangle"):
        if shape == "square":
            return {"size": rng.randint(2, 4)}
        return {"size": [rng.randint(2, 4), rng.randint(2, 4)]}
    if shape in ("triangle", "hollow_triangle", "pyramid"):
        return {"size": rng.randint(3, 5)}
    if shape == "arch":
        return {"width": rng.randint(3, 5), "height": rng.randint(2, 3)}
    raise UnknownShapeError(f"unknown shape {shape!r}")


# --- pools ------------------------------------------------------------------


def _load_words(path: Path) -> tuple[str, ...]:
    words = tuple(
        w.strip().lower() for w in path.read_text(encoding="utf-8").splitlines() if w.strip()
    )
    if not words:
        raise ValueError(f"empty pool file: {path}")
    return words


@functools.cache
def default_names() -> tuple[str, ...]:
    """The packaged name pool, read once per process (the tuple is immutable)."""
    text = resources.files("gridqa.data").joinpath("names.txt").read_text("utf-8")
    return tuple(w.strip() for w in text.splitlines() if w.strip())


@dataclass(frozen=True)
class ScenePools:
    """Word pools the scene builder draws from."""

    names: tuple[str, ...]
    npc_types: tuple[str, ...] = NPC_TYPES
    colors: tuple[str, ...] = COLORS
    shapes: tuple[str, ...] = SHAPES

    @classmethod
    def from_config(cls, config: "GenConfig") -> "ScenePools":
        names = _load_words(Path(config.names_file)) if config.names_file else default_names()
        npc_types = (
            _load_words(Path(config.npc_types_file)) if config.npc_types_file else NPC_TYPES
        )
        colors = _load_words(Path(config.colors_file)) if config.colors_file else COLORS
        return cls(names=names, npc_types=npc_types, colors=colors)


# --- scene assembly ---------------------------------------------------------


def _random_pose(size: int, occupied: set[Cell], blocked: set[Cell], randbelow) -> Pose:
    """A pose in a free cell, drawn with rng._randbelow: randrange(n) is
    randbelow(n) and randint(a, b) is a + randbelow(b - a + 1), the same draws."""
    for _ in range(PLACEMENT_RETRIES):
        cell = (randbelow(size), randbelow(size), randbelow(size))
        if cell in occupied or cell in blocked:
            continue
        occupied.add(cell)
        x = snap_coord(cell[0] + randbelow(10) / 10.0)
        y = snap_coord(cell[1] + randbelow(10) / 10.0)
        z = snap_coord(cell[2] + randbelow(10) / 10.0)
        return Pose(x, y, z, pitch=float(randbelow(91) - 45), yaw=float(randbelow(360)))
    raise SceneCapacityError(
        f"could not place an entity in a {size}^3 world after {PLACEMENT_RETRIES} tries"
    )


def _draw_names(pool: tuple[str, ...], k: int, rng: random.Random) -> list[str]:
    """The first k names `names = list(pool); rng.shuffle(names)` then k
    `names.pop()` calls give, with the same rng state afterwards.

    Random.shuffle swaps position i with randbelow(i + 1) for i from the
    end down; the last k positions are final once their swaps are done.
    The remaining swaps only move names that are never popped, so they
    are skipped, but their draws (getrandbits(n.bit_length()) until the
    value is below n, as in Random._randbelow) are still taken.
    """
    names = list(pool)
    randbelow = rng._randbelow
    picked = []
    for i in range(len(names) - 1, len(names) - 1 - k, -1):
        if i == 0:  # shuffle leaves position 0 without a draw
            picked.append(names[0])
            break
        j = randbelow(i + 1)
        names[i], names[j] = names[j], names[i]
        picked.append(names[i])
    getrandbits = rng.getrandbits
    n = len(names) - k
    while n > 1:
        # every n in [low, n] has the same bit length
        bits = n.bit_length()
        low = 1 << (bits - 1)
        for m in range(n, low - 1, -1):
            while getrandbits(bits) >= m:
                pass
        n = low - 1
    return picked


def origin_ranges(template: frozenset[Cell], size: int) -> Ranges | None:
    """Per axis, the lowest and highest origin offset that keeps template in a size^3 world.

    None when the template spans the whole world along some axis.
    """
    ranges = []
    for coords in zip(*template):
        low, high = min(coords), max(coords)
        if high - low >= size:
            return None
        ranges.append((-low, size - 1 - high))
    return tuple(ranges)


def _place_block(world: WorldState, shape: str, taken: set[Cell], rng: random.Random) -> frozenset[Cell]:
    size = world.world_size
    for _ in range(PLACEMENT_RETRIES):
        template, ranges = placement(shape, sample_shape_params(shape, rng), size)
        if ranges is None:
            continue
        # holes sit at the world floor, carved into the ground plane
        oy = ranges[1][0] if shape == "hole" else rng.randint(*ranges[1])
        ox = rng.randint(*ranges[0])
        oz = rng.randint(*ranges[2])
        voxels = frozenset([(x + ox, y + oy, z + oz) for x, y, z in template])
        if voxels & taken:
            continue
        taken.update(voxels)
        return voxels
    raise SceneCapacityError(
        f"could not place a {shape} in a {size}^3 world after {PLACEMENT_RETRIES} tries"
    )


def build_scene(config: "GenConfig", rng: random.Random) -> WorldState:
    """Build a fresh world: agent, player, NPCs and block objects.

    Pure in (config, rng state): the same seed always yields the same
    world. Raises ConfigError for an invalid config, and
    SceneCapacityError when the world is too small to place everything
    within bounded retries.
    """
    config.validate()
    pools = ScenePools.from_config(config)
    if config.n_npcs + 2 > len(pools.names):
        raise SceneCapacityError("name pool too small for requested entity count")

    world = WorldState(world_size=config.world_size, seed=rng.getrandbits(63))

    n_blocks = rng.randint(config.n_blocks_min, config.n_blocks_max)
    block_specs = [rng.choice(pools.shapes) for _ in range(n_blocks)]
    block_cells: set[Cell] = set()
    placed = []
    for shape in block_specs:
        voxels = _place_block(world, shape, block_cells, rng)
        placed.append((shape, rng.choice(pools.colors), voxels))

    names = _draw_names(pools.names, config.n_npcs + 2, rng)
    occupied: set[Cell] = set()
    randbelow = rng._randbelow
    size = config.world_size
    world.add_entity(
        AGENT, names[0], rng.choice(pools.colors),
        _random_pose(size, occupied, block_cells, randbelow),
    )
    world.add_entity(
        PLAYER, names[1], rng.choice(pools.colors),
        _random_pose(size, occupied, block_cells, randbelow),
    )
    for name in names[2:]:
        world.add_entity(
            NPC, name, rng.choice(pools.colors),
            _random_pose(size, occupied, block_cells, randbelow),
            npc_type=rng.choice(pools.npc_types),
        )

    for shape, color, voxels in placed:
        world.add_block(shape, color, voxels)
    return world
