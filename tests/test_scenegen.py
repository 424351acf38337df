import dataclasses
import hashlib
import itertools
import random

import pytest

from conftest import pools_for
from gridqa import GenConfig
from gridqa import scenegen
from gridqa.dynamics import run_episode
from gridqa.scenegen import (
    COLORS,
    NPC_TYPES,
    PLACEMENT_RETRIES,
    SHAPES,
    SceneCapacityError,
    ScenePools,
    build_scene,
    default_names,
    make_shape,
    origin_ranges,
    placement,
    sample_shape_params,
)
from gridqa.serialize import render_relational_context
from gridqa.worldcore import Pose, WorldState, derive_memid, snap_coord, take_snapshot
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
    with pytest.raises(KeyError):
        make_shape("dodecahedron", {"size": 2}, (0, 0, 0))
    with pytest.raises(KeyError):
        sample_shape_params("dodecahedron", random.Random(0))


# sha256(repr((draws, rng.getstate()))) prefix after 50 sample_shape_params
# draws from random.Random(7), in SHAPES order: build_scene picks shapes with
# rng.choice(SHAPES), so the order is part of the output too
SHAPE_DRAW_DIGESTS = {
    "hole": "2cba3c2227cdb5c9",
    "cube": "556b64186a76ae7a",
    "hollow_cube": "556b64186a76ae7a",
    "rectanguloid": "5d35461ba78c9f14",
    "hollow_rectanguloid": "5d35461ba78c9f14",
    "sphere": "65d9439daa63b173",
    "spherical_shell": "65d9439daa63b173",
    "pyramid": "d136c52b20ecd65d",
    "square": "556b64186a76ae7a",
    "rectangle": "0f373b09775bf841",
    "circle": "65d9439daa63b173",
    "disk": "65d9439daa63b173",
    "triangle": "d136c52b20ecd65d",
    "dome": "65d9439daa63b173",
    "arch": "ecd5001428c375b8",
    "ellipsoid": "4480e5b0d35d3eef",
    "hollow_triangle": "d136c52b20ecd65d",
    "hollow_rectangle": "0f373b09775bf841",
    "rectanguloid_frame": "5d35461ba78c9f14",
}


def test_shape_param_draws_are_pinned():
    assert tuple(SHAPE_DRAW_DIGESTS) == SHAPES
    for shape in SHAPES:
        rng = random.Random(7)
        draws = [sample_shape_params(shape, rng) for _ in range(50)]
        digest = hashlib.sha256(repr((draws, rng.getstate())).encode()).hexdigest()[:16]
        assert digest == SHAPE_DRAW_DIGESTS[shape], shape


def test_default_scene_composition():
    config = GenConfig()
    packaged = pools_for(config)
    # a pool of exactly the n_npcs + 2 names a scene needs
    exact = dataclasses.replace(packaged, names=packaged.names[: config.n_npcs + 2])
    for pools in (packaged, exact):
        for seed in range(200):
            world = build_scene(config, random.Random(seed), pools)
            assert world.world_size == 15
            assert len([e for e in world.entities if e.kind == "agent"]) == 1
            assert len([e for e in world.entities if e.kind == "player"]) == 1
            assert len(world.npcs()) == 4
            assert config.n_blocks_min <= len(world.block_objects) <= config.n_blocks_max
            names = [e.name for e in world.entities]
            assert len(set(names)) == len(names)
            assert set(names) <= set(pools.names)
            assert pools is packaged or set(names) == set(pools.names)


def test_empty_scene_is_agent_plus_player():
    config = GenConfig(n_npcs=0, n_blocks_min=0, n_blocks_max=0)
    world = build_scene(config, random.Random(2), pools_for(config))
    assert len(world.entities) == 2
    assert not world.block_objects


def test_same_seed_same_world():
    config = GenConfig()
    world_a = build_scene(config, random.Random(123), pools_for(config))
    world_b = build_scene(config, random.Random(123), pools_for(config))
    ctx_a = render_relational_context([take_snapshot(world_a, 0)])
    ctx_b = render_relational_context([take_snapshot(world_b, 0)])
    assert ctx_a == ctx_b


def test_entities_never_inside_blocks_or_shared_cells():
    for seed in range(25):
        world = build_scene(GenConfig(), random.Random(seed), pools_for(GenConfig()))
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
        world = build_scene(GenConfig(), random.Random(seed), pools_for(GenConfig()))
        for e in world.entities:
            assert all(0.0 <= c < world.world_size for c in e.pose.position)
        for b in world.block_objects:
            assert all(0 <= c < world.world_size for v in b.voxels for c in v)


def test_capacity_error_when_world_too_small():
    config = GenConfig(world_size=4, n_npcs=200, n_blocks_min=0, n_blocks_max=0)
    pools = pools_for(config)
    with pytest.raises(SceneCapacityError):
        build_scene(config, random.Random(0), pools)


def test_no_block_fits_a_world_with_every_cell_taken():
    full = {(x, y, z) for x in range(4) for y in range(4) for z in range(4)}
    for shape in SHAPES:
        assert scenegen.place_block(shape, full, 4, random.Random(0)) is None
    # 64 blocks of at least 4 cells each cannot all fit in 64 cells
    config = GenConfig(world_size=4, n_blocks_min=64, n_blocks_max=64)
    pattern = rf"could not place a \w+ in a 4\^3 world after {PLACEMENT_RETRIES} tries"
    with pytest.raises(SceneCapacityError, match=pattern):
        build_scene(config, random.Random(0), pools_for(config))


def test_default_pools():
    pools = ScenePools.from_config(GenConfig())
    assert len(pools.names) == 254
    assert pools.names[0] == "abigail"
    assert len(set(pools.names)) == 254
    assert set(pools.npc_types) == {"cow", "pig", "rabbit", "chicken", "sheep"}
    assert set(pools.colors) == {"brown", "white", "black", "mottled", "pink", "yellow"}
    assert len(SHAPES) == 19


def test_default_names_is_read_once():
    assert default_names() is default_names()
    assert ScenePools.from_config(GenConfig()).names is default_names()


def test_pool_overrides(tmp_path):
    names = tmp_path / "names.txt"
    names.write_text("ada\ngrace\nkatherine\n", encoding="utf-8")
    config = GenConfig(names_file=str(names), n_npcs=1, n_blocks_min=0, n_blocks_max=0)
    world = build_scene(config, random.Random(0), pools_for(config))
    assert {e.name for e in world.entities} <= {"ada", "grace", "katherine"}
    assert ScenePools.from_config(config).names == ("ada", "grace", "katherine")
    names.write_text("hedy\nlinus\nalan\n", encoding="utf-8")
    assert ScenePools.from_config(config).names == ("hedy", "linus", "alan")


def test_npc_colors_and_types_from_pools():
    world = build_scene(GenConfig(), random.Random(77), pools_for(GenConfig()))
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


# --- pose draws: _random_pose takes exactly the draws of randrange and randint ---


def public_api_random_pose(world, occupied, blocked, rng):
    """The pose draw as written with randrange and randint."""
    size = world.world_size
    for _ in range(PLACEMENT_RETRIES):
        cell = (rng.randrange(size), rng.randrange(size), rng.randrange(size))
        if cell in occupied or cell in blocked:
            continue
        occupied.add(cell)
        x = snap_coord(cell[0] + rng.randint(0, 9) / 10.0)
        y = snap_coord(cell[1] + rng.randint(0, 9) / 10.0)
        z = snap_coord(cell[2] + rng.randint(0, 9) / 10.0)
        return Pose(x, y, z, pitch=float(rng.randint(-45, 45)), yaw=float(rng.randint(0, 359)))
    raise SceneCapacityError("no free cell")


@pytest.mark.parametrize("size", [4, 15])
def test_pose_draw_matches_public_api_including_retries(size):
    world = WorldState(world_size=size, seed=0)
    for seed in range(200):
        # about half the cells taken, so most draws retry at least once
        layout = random.Random(seed)
        cells = [(x, y, z) for x in range(size) for y in range(size) for z in range(size)]
        blocked = set(layout.sample(cells, len(cells) // 4))
        occupied = set(layout.sample(cells, len(cells) // 4))
        expected_rng, rng = random.Random(seed), random.Random(seed)
        expected_occupied, got_occupied = set(occupied), set(occupied)
        for _ in range(3):
            expected = public_api_random_pose(world, expected_occupied, blocked, expected_rng)
            got = scenegen._random_pose(size, got_occupied, blocked, rng._randbelow)
            assert got == expected
            assert got_occupied == expected_occupied
            assert rng.getstate() == expected_rng.getstate()


def test_pose_draw_gives_up_after_the_same_draws():
    full = {(x, y, z) for x in range(4) for y in range(4) for z in range(4)}
    expected_rng, rng = random.Random(3), random.Random(3)
    with pytest.raises(SceneCapacityError):
        public_api_random_pose(WorldState(world_size=4, seed=0), set(), full, expected_rng)
    with pytest.raises(SceneCapacityError):
        scenegen._random_pose(4, set(), full, rng._randbelow)
    assert rng.getstate() == expected_rng.getstate()


def drawable_params(shape):
    """Every params value sample_shape_params returns for shape (each range
    holds at most three values, so 600 draws meet all of them)."""
    rng = random.Random(0)
    seen = {}
    for _ in range(600):
        params = sample_shape_params(shape, rng)
        seen[repr(params)] = params
    return list(seen.values())


@pytest.mark.parametrize("shape", SHAPES)
def test_cached_placement_matches_a_fresh_build(shape):
    for params in drawable_params(shape):
        fresh = enumerate_shape(shape, params)
        # add_block takes a nonempty voxel set on trust
        assert fresh, f"{shape} {params} has no cells"
        assert make_shape(shape, params, (0, 0, 0)) == fresh
        for size in (4, 15):
            template, ranges = placement(shape, params, size)
            assert template == fresh
            assert ranges == origin_ranges(fresh, size)
            # a second lookup is the same cached pair
            assert placement(shape, params, size)[0] is template


def test_shape_caches_stay_bounded():
    scenegen._template.cache_clear()
    scenegen._placement.cache_clear()
    distinct = sum(len(drawable_params(shape)) for shape in SHAPES)
    for size in (8, 15):
        config = GenConfig(world_size=size, command_prob=1.0, world_steps=6)
        for seed in range(300):
            run_episode(config, random.Random(seed), pools_for(config))
    assert scenegen._template.cache_info().currsize <= distinct
    assert scenegen._placement.cache_info().currsize <= 2 * distinct


# derive_memid(seed, counter) as the integer
# int.from_bytes(blake2b(struct.pack("<qq", seed, counter), digest_size=8).digest(), "little"),
# which derive_memid writes as 16 lowercase hex digits
MEMID_TABLE = {
    (0, 0): 0x0E7494F907A55052,
    (0, 1): 0x70A94C03EEAA82EB,
    (42, 0): 0x038B331FD0AAC682,
    (42, 999): 0x146A21E8815232A8,
    (-1, 7): 0xF6558D1B892C4BE9,
    (2**62, 3): 0x3B0C950DE72EE676,
    (-(2**63), 2**63 - 1): 0xE0239AE5C9B9D2F8,
    (123456789, 40): 0x90C0809D1EFAA7C1,
}


def test_derive_memid_matches_the_fixed_table():
    for (seed, counter), memid in MEMID_TABLE.items():
        assert derive_memid(seed, counter) == format(memid, "016x")
