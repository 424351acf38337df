"""Randomized scene construction.

Builds an initial world from seeded randomness: one agent, one player,
a configurable number of NPCs drawn from the name/type/color pools, and
block objects built from the voxel shape catalog `_SHAPES`. FORMAT.md's
Shapes section gives each shape's parameters, sampled ranges and cells.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .config import ConfigError
from .querygen import is_query_word
from .worldcore import AGENT, NPC, PLAYER, Cell, Pose, WorldState, snap_coord

if TYPE_CHECKING:
    from .config import GenConfig

NPC_TYPES = ("cow", "pig", "rabbit", "chicken", "sheep")
COLORS = ("brown", "white", "black", "mottled", "pink", "yellow")

PLACEMENT_RETRIES = 100

# per axis, the lowest and highest origin offset (see origin_ranges)
Ranges = tuple[tuple[int, int], ...]


class SceneCapacityError(RuntimeError):
    """Raised when collision-free placement fails after bounded retries."""


# --- voxel shape catalog ----------------------------------------------------


def _box(sx: int, sy: int, sz: int) -> set[Cell]:
    return {(x, y, z) for x in range(sx) for y in range(sy) for z in range(sz)}


def _hollow_box(sx: int, sy: int, sz: int) -> set[Cell]:
    inner = {(x + 1, y + 1, z + 1) for x, y, z in _box(sx - 2, sy - 2, sz - 2)}
    return _box(sx, sy, sz) - inner


def _frame(p) -> set[Cell]:
    # keep only the edge cells: at least two coordinates on a face
    sx, sy, sz = p["size"]
    return {
        (x, y, z)
        for x, y, z in _box(sx, sy, sz)
        if (x in (0, sx - 1)) + (y in (0, sy - 1)) + (z in (0, sz - 1)) >= 2
    }


def _ball(r: int) -> set[Cell]:
    span = range(-r, r + 1)
    return {
        (x, y, z) for x in span for y in span for z in span if x * x + y * y + z * z <= r * r
    }


def _shell(r: int) -> set[Cell]:
    return _ball(r) - _ball(r - 1)


def _ellipsoid(p) -> set[Cell]:
    rx, ry, rz = p["radii"]
    return {
        (x, y, z)
        for x in range(-rx, rx + 1)
        for y in range(-ry, ry + 1)
        for z in range(-rz, rz + 1)
        if (x / rx) ** 2 + (y / ry) ** 2 + (z / rz) ** 2 <= 1.0
    }


def _pyramid(p) -> set[Cell]:
    # layer k is the square [k, s - k) at height k, for every nonempty square
    s = p["size"]
    return {
        (x, k, z) for k in range((s + 1) // 2) for x in range(k, s - k) for z in range(k, s - k)
    }


def _rectangle(sx: int, sz: int) -> set[Cell]:
    return {(x, 0, z) for x in range(sx) for z in range(sz)}


def _hollow_rectangle(p) -> set[Cell]:
    sx, sz = p["size"]
    return {(x, y, z) for x, y, z in _rectangle(sx, sz) if x in (0, sx - 1) or z in (0, sz - 1)}


def _disk(r: int) -> set[Cell]:
    span = range(-r, r + 1)
    return {(x, 0, z) for x in span for z in span if x * x + z * z <= r * r}


def _triangle(s: int) -> set[Cell]:
    # right triangle in the xz plane: row z spans x in [0, z]
    return {(x, 0, z) for z in range(s) for x in range(z + 1)}


def _hollow_triangle(p) -> set[Cell]:
    s = p["size"]
    return {(x, y, z) for x, y, z in _triangle(s) if x == 0 or x == z or z == s - 1}


def _arch(p) -> set[Cell]:
    w, h = p["width"], p["height"]
    posts = {(x, y, 0) for x in (0, w - 1) for y in range(h)}
    return posts | {(x, h, 0) for x in range(w)}


def _side(rng: random.Random) -> dict:
    return {"size": rng.randint(2, 4)}


def _sides_xz(rng: random.Random) -> dict:
    return {"size": [rng.randint(2, 4), rng.randint(2, 4)]}


def _sides_xyz(rng: random.Random) -> dict:
    return {"size": [rng.randint(2, 4) for _ in range(3)]}


def _radius(rng: random.Random) -> dict:
    return {"radius": rng.randint(1, 2)}


def _leg(rng: random.Random) -> dict:
    return {"size": rng.randint(3, 5)}


class Shape(NamedTuple):
    """A catalog shape: build(params) gives its cells with the origin at
    (0, 0, 0); sample(rng) draws params small enough for a 15-cell world."""

    build: Callable[[dict], set[Cell]]
    sample: Callable[[random.Random], dict]


# build_scene draws shapes with rng.choice(SHAPES), so this order is part
# of the output
_SHAPES = {
    # a cavity carved out of the ground; place_block puts it on the floor
    "hole": Shape(
        lambda p: _box(*p["size"]),
        lambda rng: {"size": [rng.randint(2, 3), rng.randint(1, 2), rng.randint(2, 3)]},
    ),
    "cube": Shape(lambda p: _box(p["size"], p["size"], p["size"]), _side),
    "hollow_cube": Shape(lambda p: _hollow_box(p["size"], p["size"], p["size"]), _side),
    "rectanguloid": Shape(lambda p: _box(*p["size"]), _sides_xyz),
    "hollow_rectanguloid": Shape(lambda p: _hollow_box(*p["size"]), _sides_xyz),
    "sphere": Shape(lambda p: _ball(p["radius"]), _radius),
    "spherical_shell": Shape(lambda p: _shell(p["radius"]), _radius),
    "pyramid": Shape(_pyramid, _leg),
    "square": Shape(lambda p: _rectangle(p["size"], p["size"]), _side),
    "rectangle": Shape(lambda p: _rectangle(*p["size"]), _sides_xz),
    "circle": Shape(lambda p: _disk(p["radius"]) - _disk(p["radius"] - 1), _radius),
    "disk": Shape(lambda p: _disk(p["radius"]), _radius),
    "triangle": Shape(lambda p: _triangle(p["size"]), _leg),
    "dome": Shape(lambda p: {c for c in _shell(p["radius"]) if c[1] >= 0}, _radius),
    "arch": Shape(_arch, lambda rng: {"width": rng.randint(3, 5), "height": rng.randint(2, 3)}),
    "ellipsoid": Shape(_ellipsoid, lambda rng: {"radii": [rng.randint(1, 2) for _ in range(3)]}),
    "hollow_triangle": Shape(_hollow_triangle, _leg),
    "hollow_rectangle": Shape(_hollow_rectangle, _sides_xz),
    "rectanguloid_frame": Shape(_frame, _sides_xyz),
}

SHAPES = tuple(_SHAPES)


def _params_key(params: dict) -> tuple:
    """A hashable form of shape params: list values become tuples."""
    return tuple((k, tuple(v) if isinstance(v, list) else v) for k, v in params.items())


# Both caches grow by one entry per distinct (shape, params[, size]); the
# generator only asks for the few values sample_shape_params draws.
@functools.cache
def _template(shape: str, params_key: tuple) -> frozenset[Cell]:
    return frozenset(_SHAPES[shape].build(dict(params_key)))


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
    return _SHAPES[shape].sample(rng)


# --- pools ------------------------------------------------------------------


def _load_words(path: Path) -> tuple[str, ...]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"pool file {path} is not UTF-8: {exc}") from exc
    words = tuple(w.strip().lower() for w in text.splitlines() if w.strip())
    if not words:
        raise ConfigError(f"empty pool file: {path}")
    bad = [w for w in words if not is_query_word(w)]
    if bad:
        raise ConfigError(f"pool file {path}: {bad[0]!r} is not a word queries can carry")
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
    npc_types: tuple[str, ...]
    colors: tuple[str, ...]

    @classmethod
    def from_config(cls, config: "GenConfig") -> "ScenePools":
        """Read the pools config names. Raises ConfigError for a pool file that
        is empty or holds a word queries cannot carry, for a name pool that
        repeats a name, for one with fewer than n_npcs + 2 names, and for an
        NPC type pool that holds an entity kind word (agent, player)."""
        if config.names_file:
            names = _load_words(Path(config.names_file))
            repeated = [name for name, n in Counter(names).items() if n > 1]
            if repeated:
                raise ConfigError(
                    f"names_file {config.names_file}: {repeated[0]!r} appears more than once"
                )
        else:
            names = default_names()
        if config.n_npcs + 2 > len(names):
            raise ConfigError(
                f"names_file {config.names_file or '(packaged pool)'}: {len(names)} names, "
                f"but n_npcs = {config.n_npcs} needs n_npcs + 2 = {config.n_npcs + 2}"
            )
        npc_types = (
            _load_words(Path(config.npc_types_file)) if config.npc_types_file else NPC_TYPES
        )
        # both contexts write an NPC's type where they write the agent's and the player's kind
        kinds = [word for word in npc_types if word in (AGENT, PLAYER)]
        if kinds:
            raise ConfigError(
                f"npc_types_file {config.npc_types_file}: {kinds[0]!r} is an entity kind, "
                "not an NPC type"
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


def place_block(
    shape: str, taken: set[Cell], size: int, rng: random.Random
) -> tuple[dict, Cell, frozenset[Cell]] | None:
    """Draw params and an origin for shape until its cells fit in a size^3
    world clear of taken: (params, origin, cells), or None after
    PLACEMENT_RETRIES tries. Each try draws params, then the origin's y,
    x and z; a hole sits on the floor, so it takes no y draw."""
    for _ in range(PLACEMENT_RETRIES):
        params = sample_shape_params(shape, rng)
        template, ranges = placement(shape, params, size)
        if ranges is None:
            continue
        oy = ranges[1][0] if shape == "hole" else rng.randint(*ranges[1])
        ox = rng.randint(*ranges[0])
        oz = rng.randint(*ranges[2])
        cells = frozenset([(x + ox, y + oy, z + oz) for x, y, z in template])
        if cells.isdisjoint(taken):
            return params, (ox, oy, oz), cells
    return None


def build_scene(config: "GenConfig", rng: random.Random, pools: ScenePools) -> WorldState:
    """Build a fresh world: agent, player, NPCs and block objects.

    Pure in (config, pools, rng state). The caller validates config and
    reads pools with ScenePools.from_config, once per run. Raises
    SceneCapacityError when the world is too small to place everything
    within bounded retries.
    """
    world = WorldState(world_size=config.world_size, seed=rng.getrandbits(63))

    n_blocks = rng.randint(config.n_blocks_min, config.n_blocks_max)
    block_specs = [rng.choice(SHAPES) for _ in range(n_blocks)]
    size = config.world_size
    block_cells: set[Cell] = set()
    placed = []
    for shape in block_specs:
        spot = place_block(shape, block_cells, size, rng)
        if spot is None:
            raise SceneCapacityError(
                f"could not place a {shape} in a {size}^3 world after {PLACEMENT_RETRIES} tries"
            )
        voxels = spot[2]
        block_cells |= voxels
        placed.append((shape, rng.choice(pools.colors), voxels))

    names = rng.sample(pools.names, config.n_npcs + 2)
    occupied: set[Cell] = set()
    randbelow = rng._randbelow
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
