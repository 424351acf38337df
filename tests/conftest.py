import random
import tempfile
from pathlib import Path

import pytest

from gridqa import GenConfig
from gridqa.dynamics import run_episode
from gridqa.querygen import KINDS, Clause, QueryForm, allowed_return_types
from gridqa.scenegen import ScenePools
from gridqa.worldcore import AGENT, NPC, PLAYER, BlockObject, Pose, WorldState, take_snapshot

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no .hypothesis/ cache left in the tree
    settings.register_profile("gridqa", derandomize=True, database=None)
    settings.load_profile("gridqa")
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gridqa-hypothesis")


@pytest.fixture
def default_config():
    return GenConfig()


def pools_for(config: GenConfig) -> ScenePools:
    """What a run's entry point does before its first sample: validate the
    config, then read its pools. The stages below take the pools as given."""
    config.validate()
    return ScenePools.from_config(config)


def make_episode(seed: int, config: GenConfig | None = None):
    """(action_log, snapshots) of a stepped scene, for oracle-level tests."""
    config = config or GenConfig()
    return run_episode(config, random.Random(seed), pools_for(config))


def snapshot_blocks(snap) -> list[BlockObject]:
    """The block objects of a snapshot, in reference_objects order."""
    return [o for o in snap.reference_objects if isinstance(o, BlockObject)]


def simple_world(entities, world_size: int = 15, seed: int = 99) -> WorldState:
    """Hand-built world from (kind, name, color, pose[, npc_type]) tuples."""
    world = WorldState(world_size=world_size, seed=seed)
    for spec in entities:
        kind, name, color, pose = spec[:4]
        npc_type = spec[4] if len(spec) > 4 else None
        world.add_entity(kind, name, color, pose, npc_type=npc_type)
    return world


def minimal_world(seed: int = 7) -> WorldState:
    return simple_world(
        [
            (AGENT, "iggy", "pink", Pose(1.0, 0.0, 1.0)),
            (PLAYER, "sara", "white", Pose(5.0, 0.0, 5.0)),
        ],
        seed=seed,
    )


# --- random query forms for grammar round trips --------------------------------

_NAMES = ("alice", "bob", "honey", "marbles", "athena", "jewel", "itsy", "sara")
_WORDS = ("brown", "white", "mottled", "cow", "chicken", "sheep", "cube", "hole", "agent")
_REF_POOL = (
    {"by": "name", "word": "bob"},
    {"by": "name", "word": "marbles"},
    {"by": "type", "word": "cow"},
    {"by": "type", "word": "sheep"},
    {"by": "me"},
    {"by": "you"},
)


def _random_threshold(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return float(rng.randint(0, 20))
    return round(rng.uniform(0.0, 20.0), 2)


def random_clause(rng: random.Random, kind: str | None = None) -> Clause:
    kind = kind or rng.choice(tuple(KINDS))
    negated = KINDS[kind].combinable and rng.random() < 0.3
    point = [rng.randint(0, 14) for _ in range(3)]
    frame, side = rng.choice(("my", "your")), rng.choice(("left", "right", "front", "back"))
    args_by_kind = {
        "name": {"name": rng.choice(_NAMES)},
        "tag": {"tag": rng.choice(_WORDS)},
        "absolute_cardinal": {
            "axis": rng.choice("xyz"),
            "comparator": rng.choice(("less", "greater")),
            "threshold": _random_threshold(rng),
        },
        "absolute_distance": {
            "point": point,
            "comparator": rng.choice(("less", "greater")),
            "threshold": _random_threshold(rng),
        },
        "direction": {"frame": frame, "side": side},
        "temporal_cardinal": {"axis": rng.choice("xyz")},
        "temporal_relative": {"frame": frame, "side": side},
        "farthest_moved": {},
        "location_at_time": {
            "ref": dict(rng.choice(_REF_POOL)),
            "time": rng.choice(("beginning", "now")),
        },
        "action": {},
        "object_tracking": {
            "ref": dict(rng.choice(_REF_POOL)),
            "target": point,
        },
        "closest_object": {"anchor": dict(rng.choice(_REF_POOL))},
        "max_direction": {"frame": frame, "side": side},
        "distance_between": {"a": dict(rng.choice(_REF_POOL)), "b": dict(rng.choice(_REF_POOL))},
        "distance_from_position": {"frame": frame, "side": side, "steps": rng.randint(1, 9)},
    }
    return Clause(kind, negated, args_by_kind[kind])


def random_form(rng: random.Random) -> QueryForm:
    """Random valid QueryForm over synthetic argument pools."""
    combinable = sorted(k for k, spec in KINDS.items() if spec.combinable)
    if rng.random() < 0.4:
        clauses = (random_clause(rng, rng.choice(combinable)), random_clause(rng, rng.choice(combinable)))
        op = rng.choice(("and", "or"))
    else:
        clauses = (random_clause(rng),)
        op = None
    return_type = rng.choice(allowed_return_types(clauses, op))
    return QueryForm(clauses=clauses, return_type=return_type, op=op)
