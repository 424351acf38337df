import itertools
import random

import pytest

from gridqa import GenConfig
from gridqa.scenegen import (
    COLORS,
    NPC_TYPES,
    SHAPES,
    SceneCapacityError,
    ScenePools,
    UnknownShapeError,
    build_scene,
    default_names,
    make_shape,
    origin_ranges,
    sample_shape_params,
)
from gridqa.serialize import render_relational_context
from gridqa.worldcore import take_snapshot
from shape_predicates import enumerate_shape

# three sizes per catalog shape, small enough to brute-force
SHAPE_CASES = {
    "cube": [{"size": 2}, {"size": 3}, {"size": 4}],
    "hollow_cube": [{"size": 2}, {"size": 3}, {"size": 4}],
    "rectanguloid": [{"size": [2, 3, 4]}, {"size": [1, 1, 5]}, {"size": [3, 3, 2]}],
    "hollow_rectanguloid": [{"size": [2, 3, 4]}, {"size": [3, 3, 3]}, {"size": [4, 2, 3]}],
    "rectanguloid_frame": [{"size": [2, 2, 2]}, {"size": [3, 4, 3]}, {"size": [4, 4, 4]}],
    "sphere": [{"radius": 1}, {"radius": 2}, {"radius": 3}],
    "spherical_shell": [{"radius": 1}, {"radius": 2}, {"radius": 3}],
    "dome": [{"radius": 1}, {"radius": 2}, {"radius": 3}],
    "ellipsoid": [{"radii": [1, 1, 1]}, {"radii": [1, 2, 3]}, {"radii": [2, 2, 1]}],
    "pyramid": [{"size": 2}, {"size": 3}, {"size": 5}],
    "square": [{"size": 2}, {"size": 3}, {"size": 4}],
    "rectangle": [{"size": [2, 3]}, {"size": [4, 2]}, {"size": [3, 3]}],
    "hollow_rectangle": [{"size": [2, 3]}, {"size": [4, 4]}, {"size": [3, 2]}],
    "circle": [{"radius": 1}, {"radius": 2}, {"radius": 3}],
    "disk": [{"radius": 1}, {"radius": 2}, {"radius": 3}],
    "triangle": [{"size": 2}, {"size": 3}, {"size": 5}],
    "hollow_triangle": [{"size": 2}, {"size": 3}, {"size": 5}],
    "arch": [{"width": 3, "height": 2}, {"width": 4, "height": 3}, {"width": 5, "height": 2}],
    "hole": [{"size": [2, 1, 2]}, {"size": [3, 2, 2]}, {"size": [2, 2, 3]}],
}


def test_every_catalog_shape_has_cases():
    assert set(SHAPE_CASES) == set(SHAPES)


@pytest.mark.parametrize("shape", sorted(SHAPE_CASES))
def test_shapes_match_brute_force_enumeration(shape):
    for params in SHAPE_CASES[shape]:
        built = make_shape(shape, params, (0, 0, 0))
        expected = enumerate_shape(shape, params)
        assert built == expected, f"{shape} {params}"


def test_shape_counts_frozen_examples():
    assert len(make_shape("cube", {"size": 3}, (0, 0, 0))) == 27
    assert len(make_shape("hollow_cube", {"size": 3}, (0, 0, 0))) == 26
    sphere = make_shape("sphere", {"radius": 1}, (0, 0, 0))
    assert len(sphere) == 7
    assert (0, 0, 0) in sphere
    assert all(abs(x) + abs(y) + abs(z) <= 1 for x, y, z in sphere)


def test_make_shape_translates_to_origin():
    assert make_shape("cube", {"size": 2}, (5, 6, 7)) == frozenset(
        (5 + x, 6 + y, 7 + z) for x in range(2) for y in range(2) for z in range(2)
    )


def test_unknown_shape_raises():
    with pytest.raises(UnknownShapeError):
        make_shape("dodecahedron", {"size": 2}, (0, 0, 0))
    with pytest.raises(UnknownShapeError):
        sample_shape_params("dodecahedron", random.Random(0))


def test_default_scene_composition():
    config = GenConfig()
    world = build_scene(config, random.Random(11))
    assert world.world_size == 15
    assert len([e for e in world.entities if e.kind == "agent"]) == 1
    assert len([e for e in world.entities if e.kind == "player"]) == 1
    assert len(world.npcs()) == 4
    assert config.n_blocks_min <= len(world.block_objects) <= config.n_blocks_max
    names = [e.name for e in world.entities]
    assert len(set(names)) == len(names)


def test_empty_scene_is_agent_plus_player():
    config = GenConfig(n_npcs=0, n_blocks_min=0, n_blocks_max=0)
    world = build_scene(config, random.Random(2))
    assert len(world.entities) == 2
    assert not world.block_objects


def test_same_seed_same_world():
    config = GenConfig()
    world_a = build_scene(config, random.Random(123))
    world_b = build_scene(config, random.Random(123))
    ctx_a = render_relational_context([take_snapshot(world_a, 0)])
    ctx_b = render_relational_context([take_snapshot(world_b, 0)])
    assert ctx_a == ctx_b


def test_entities_never_inside_blocks_or_shared_cells():
    for seed in range(25):
        world = build_scene(GenConfig(), random.Random(seed))
        blocked = set()
        for block in world.block_objects:
            blocked |= set(block.voxels)
        cells = []
        for e in world.entities:
            cell = tuple(int(c) for c in e.pose.position)
            assert cell not in blocked
            cells.append(cell)
        assert len(cells) == len(set(cells))


def test_everything_in_bounds():
    for seed in range(10):
        world = build_scene(GenConfig(), random.Random(seed))
        for e in world.entities:
            assert all(0.0 <= c < world.world_size for c in e.pose.position)
        for b in world.block_objects:
            assert all(0 <= c < world.world_size for v in b.voxels for c in v)


def test_capacity_error_when_world_too_small():
    config = GenConfig(world_size=4, n_npcs=200, n_blocks_min=0, n_blocks_max=0)
    with pytest.raises(SceneCapacityError):
        build_scene(config, random.Random(0))


def test_default_pools():
    pools = ScenePools.from_config(GenConfig())
    assert len(pools.names) == 254
    assert pools.names[0] == "abigail"
    assert len(set(pools.names)) == 254
    assert set(pools.npc_types) == {"cow", "pig", "rabbit", "chicken", "sheep"}
    assert set(pools.colors) == {"brown", "white", "black", "mottled", "pink", "yellow"}
    assert len(pools.shapes) == 19


def test_default_names_is_read_once():
    assert default_names() is default_names()
    assert ScenePools.from_config(GenConfig()).names is default_names()


def test_pool_overrides(tmp_path):
    names = tmp_path / "names.txt"
    names.write_text("ada\ngrace\nkatherine\n", encoding="utf-8")
    config = GenConfig(names_file=str(names), n_npcs=1, n_blocks_min=0, n_blocks_max=0)
    world = build_scene(config, random.Random(0))
    assert {e.name for e in world.entities} <= {"ada", "grace", "katherine"}
    assert ScenePools.from_config(config).names == ("ada", "grace", "katherine")
    names.write_text("hedy\n", encoding="utf-8")
    assert ScenePools.from_config(config).names == ("hedy",)


def test_npc_colors_and_types_from_pools():
    world = build_scene(GenConfig(), random.Random(77))
    for npc in world.npcs():
        assert npc.npc_type in NPC_TYPES
        assert npc.color in COLORS
    for block in world.block_objects:
        assert block.color in COLORS
        assert block.shape in SHAPES


def test_origin_ranges_keep_every_voxel_inside_the_world():
    rng = random.Random(5)
    for shape in SHAPES:
        for size in (4, 6, 15):
            template = make_shape(shape, sample_shape_params(shape, rng), (0, 0, 0))
            ranges = origin_ranges(template, size)
            spans = [max(v[i] for v in template) - min(v[i] for v in template) for i in range(3)]
            assert (ranges is None) == any(span >= size for span in spans)
            if ranges is None:
                continue
            # the extreme origins put the template against each wall
            for ox, oy, oz in itertools.product(*ranges):
                cells = {(x + ox, y + oy, z + oz) for x, y, z in template}
                assert all(0 <= c < size for cell in cells for c in cell)
            for axis, (low, high) in enumerate(ranges):
                assert min(v[axis] for v in template) + low == 0
                assert max(v[axis] for v in template) + high == size - 1
