import json
import math
import random
from collections import Counter

import pytest

import reference_oracle
from conftest import make_episode, simple_world
from gridqa import GenConfig
from gridqa.dynamics import Task, step_world
from gridqa.oracle import (
    AmbiguousTieError,
    UnanswerableQueryError,
    clause_match_set,
    execute,
    format_answer,
    resolve_ref,
)
from gridqa.querygen import (
    KINDS,
    Clause,
    QueryForm,
    UnanswerableSceneError,
    allowed_return_types,
    sample_query,
)
from gridqa.serialize import context_ids, read_relational_context, render_relational_context
from gridqa.worldcore import AGENT, NPC, PLAYER, Pose, take_snapshot


def form1(kind, args, return_type, negated=False):
    return QueryForm(clauses=(Clause(kind, negated, args),), return_type=return_type)


def fig_world():
    """Speaker at origin facing +z; objects at hand-picked spots."""
    return simple_world(
        [
            (PLAYER, "sara", "white", Pose(0.0, 0.0, 0.0, yaw=0.0)),
            (AGENT, "igor", "pink", Pose(10.0, 0.0, 10.0)),
            (NPC, "marbles", "white", Pose(1.0, 0.0, 1.0), "chicken"),
            (NPC, "bob", "brown", Pose(8.0, 0.0, 2.0), "cow"),
        ]
    )


# --- format_answer -------------------------------------------------------------


def test_format_multi_item_sorted_alphabetically():
    assert format_answer({"white", "athena"}, "tag") == "athena, white"
    assert format_answer({"zoe", "ace", "mia"}, "name") == "ace, mia, zoe"


def test_format_location_rounds_half_away_from_zero():
    assert format_answer((3.49, 7.5, 2.0), "location") == "(3, 8, 2)"
    assert format_answer((-2.5, 0.4, -0.4), "location") == "(-3, 0, 0)"


def test_format_distance_one_decimal_half_up():
    assert format_answer(5.0, "distance") == "5.0"
    assert format_answer(2.25, "distance") == "2.3"
    assert format_answer(9.94999, "distance") == "9.9"


def test_format_count():
    assert format_answer(0, "count") == "0"
    assert format_answer(12, "count") == "12"


# --- geometric ------------------------------------------------------------------


def test_distance_between_345_triangle():
    world = simple_world(
        [
            (PLAYER, "sara", "white", Pose(0.0, 0.0, 0.0)),
            (AGENT, "igor", "pink", Pose(3.0, 4.0, 0.0)),
        ]
    )
    snap = take_snapshot(world, 0)
    form = form1("distance_between", {"a": {"by": "name", "word": "sara"}, "b": {"by": "you"}}, "distance")
    assert execute(form, [snap]).text == "5.0"


def test_right_of_speaker_frame_convention():
    # yaw 0 faces +z, so right is -x: objects at smaller x than the speaker
    world2 = simple_world(
        [
            (PLAYER, "sara", "white", Pose(7.0, 0.0, 0.0, yaw=0.0)),
            (AGENT, "igor", "pink", Pose(5.0, 0.0, 5.0)),
            (NPC, "righty", "brown", Pose(5.0, 0.0, 5.0), "sheep"),
            (NPC, "lefty", "black", Pose(9.0, 0.0, 5.0), "pig"),
        ]
    )
    snap2 = take_snapshot(world2, 0)
    clause = Clause("direction", False, {"frame": "my", "side": "right"})
    matched, _ = clause_match_set(clause, [snap2])
    names = {snap2.lookup(m).name for m in matched}
    assert "righty" in names and "igor" in names  # both at x < speaker x
    assert "lefty" not in names


def test_direction_membership_excludes_frame_owner():
    world = fig_world()
    snap = take_snapshot(world, 0)
    speaker = next(e for e in world.entities if e.kind == PLAYER)
    for side in ("left", "right", "front", "back"):
        clause = Clause("direction", False, {"frame": "my", "side": side})
        matched, _ = clause_match_set(clause, [snap])
        assert speaker.memid not in matched


def test_left_right_antisymmetry_and_reflection():
    rng = random.Random(0)
    for seed in range(10):
        _, snapshots = make_episode(seed)
        snap = snapshots[-1]
        left, _ = clause_match_set(Clause("direction", False, {"frame": "my", "side": "left"}), [snap])
        right, _ = clause_match_set(Clause("direction", False, {"frame": "my", "side": "right"}), [snap])
        assert not (left & right)


def test_closest_object_fig_scene():
    world = fig_world()
    snap = take_snapshot(world, 0)
    form = form1("closest_object", {"anchor": {"by": "me"}}, "name")
    assert execute(form, [snap]).text == "marbles"


def test_closest_object_excludes_anchor_itself():
    world = fig_world()
    snap = take_snapshot(world, 0)
    clause = Clause("closest_object", False, {"anchor": {"by": "type", "word": "cow"}})
    matched, _ = clause_match_set(clause, [snap])
    anchor = resolve_ref({"by": "type", "word": "cow"}, snap)
    assert anchor.memid not in matched


def test_count_distance_threshold_matches_naive_scan():
    for seed in range(15):
        _, snapshots = make_episode(seed)
        snap = snapshots[-1]
        point, threshold = (2, 6, 5), 3.0
        clause = Clause(
            "absolute_distance",
            False,
            {"point": list(point), "comparator": "greater", "threshold": threshold},
        )
        matched, _ = clause_match_set(clause, [snap])
        expected = {
            o.memid
            for o in snap.reference_objects
            if math.dist(reference_oracle.pos(o), point) > threshold
        }
        assert matched == expected


def test_distance_from_position_uses_owner_pose():
    world = simple_world(
        [
            (PLAYER, "sara", "white", Pose(5.0, 2.0, 5.0, yaw=0.0)),
            (AGENT, "igor", "pink", Pose(1.0, 0.0, 1.0, yaw=90.0)),
        ]
    )
    snap = take_snapshot(world, 0)
    # my right at yaw 0 is -x
    form = form1("distance_from_position", {"frame": "my", "side": "right", "steps": 3}, "location")
    assert execute(form, [snap]).text == "(2, 2, 5)"
    # your front at yaw 90 is -x
    form = form1("distance_from_position", {"frame": "your", "side": "front", "steps": 2}, "location")
    assert execute(form, [snap]).text == "(-1, 0, 1)"


# --- temporal -------------------------------------------------------------------


def moved_world():
    world = simple_world(
        [
            (PLAYER, "sara", "white", Pose(0.0, 0.0, 0.0, yaw=0.0)),
            (AGENT, "igor", "pink", Pose(5.0, 0.0, 5.0)),
            (NPC, "still", "black", Pose(3.0, 0.0, 3.0), "pig"),
            (NPC, "walker", "brown", Pose(1.0, 0.0, 1.0), "cow"),
            (NPC, "runner", "white", Pose(2.0, 0.0, 2.0), "sheep"),
        ]
    )
    first = take_snapshot(world, 0)
    world.npcs()[1].pose = Pose(2.0, 0.0, 1.0)  # walker: +1 x
    world.npcs()[2].pose = Pose(2.0, 0.0, 5.0)  # runner: +3 z
    last = take_snapshot(world, 1)
    return world, [first, last]


def test_farthest_moved_compares_norms():
    _, snapshots = moved_world()
    form = form1("farthest_moved", {}, "name")
    assert execute(form, snapshots).text == "runner"


def test_stationary_object_never_farthest():
    _, snapshots = moved_world()
    matched, _ = clause_match_set(Clause("farthest_moved"), snapshots)
    still = [e for e in snapshots[0].entities() if e.name == "still"][0]
    assert still.memid not in matched


def test_temporal_cardinal_signed_axis_delta():
    _, snapshots = moved_world()
    assert execute(form1("temporal_cardinal", {"axis": "x"}, "name"), snapshots).text == "walker"
    assert execute(form1("temporal_cardinal", {"axis": "z"}, "name"), snapshots).text == "runner"


def test_temporal_relative_projects_on_frame_direction():
    # speaker faces +z, so "front" displacement favors runner (+3 z)
    _, snapshots = moved_world()
    form = form1("temporal_relative", {"frame": "my", "side": "front"}, "name")
    assert execute(form, snapshots).text == "runner"
    # "left" is +x for yaw 0, favoring walker
    form = form1("temporal_relative", {"frame": "my", "side": "left"}, "name")
    assert execute(form, snapshots).text == "walker"


def test_action_answer_after_build():
    world = simple_world(
        [
            (PLAYER, "sara", "white", Pose(0.0, 0.0, 0.0)),
            (AGENT, "igor", "pink", Pose(5.0, 0.0, 5.0)),
        ]
    )
    first = take_snapshot(world, 0)
    task = Task(
        "build",
        {"shape": "cube", "shape_params": {"size": 2}, "origin": (8, 8, 8), "color": "brown"},
        duration=5,
        start_step=0,
    )
    step_world(world, 10, task, random.Random(0))
    last = take_snapshot(world, 10)
    form = form1("action", {}, "action_name")
    action_log = [task.log_entry(world.agent().memid)]
    assert execute(form, [first, last], action_log).text == "build"


def test_action_answer_nothing_without_command():
    _, snapshots = moved_world()
    assert execute(form1("action", {}, "action_name"), snapshots, []).text == "nothing"


def test_location_at_time_reads_endpoint_snapshots():
    _, snapshots = moved_world()
    beginning = form1(
        "location_at_time", {"ref": {"by": "name", "word": "runner"}, "time": "beginning"}, "location"
    )
    now = form1(
        "location_at_time", {"ref": {"by": "name", "word": "runner"}, "time": "now"}, "location"
    )
    assert execute(beginning, snapshots).text == "(2, 0, 2)"
    assert execute(now, snapshots).text == "(2, 0, 5)"


def test_object_tracking_translates_displacement():
    _, snapshots = moved_world()
    # runner at (2,0,5), speaker at (0,0,0): offset (2,0,5); target (4,7,2)
    form = form1(
        "object_tracking", {"ref": {"by": "name", "word": "runner"}, "target": [4, 7, 2]}, "location"
    )
    assert execute(form, snapshots).text == "(6, 7, 7)"


def test_properties_of_named_animal_include_color_and_type():
    world = fig_world()
    snap = take_snapshot(world, 0)
    answer = execute(form1("name", {"name": "bob"}, "tag"), [snap])
    words = set(answer.text.split(", "))
    assert {"brown", "cow"} <= words


# --- combination semantics -------------------------------------------------------


def test_de_morgan_on_memid_sets():
    for seed in range(15):
        _, snapshots = make_episode(seed)
        snap = snapshots[-1]
        everything = snap.memids()
        a = Clause("tag", False, {"tag": "brown"})
        b = Clause("direction", False, {"frame": "my", "side": "left"})
        sa, _ = clause_match_set(a, snapshots)
        sb, _ = clause_match_set(b, snapshots)
        not_a_and_not_b = (everything - sa) & (everything - sb)
        assert not_a_and_not_b == everything - (sa | sb)


def test_conjunction_and_negation_against_execute():
    _, snapshots = make_episode(77)
    snap = snapshots[-1]
    a = Clause("tag", False, {"tag": "white"})
    b = Clause("absolute_cardinal", False, {"axis": "x", "comparator": "less", "threshold": 8.0})
    form = QueryForm(clauses=(a, b), return_type="count", op="and")
    sa, _ = clause_match_set(a, snapshots)
    sb, _ = clause_match_set(b, snapshots)
    assert execute(form, snapshots).text == str(len(sa & sb))
    neg = QueryForm(
        clauses=(Clause("tag", True, {"tag": "white"}), b), return_type="count", op="and"
    )
    assert execute(neg, snapshots).text == str(len((snap.memids() - sa) & sb))


def test_tie_margin_rejects_close_argmax():
    world = simple_world(
        [
            (PLAYER, "sara", "white", Pose(0.0, 0.0, 0.0, yaw=0.0)),
            (AGENT, "igor", "pink", Pose(4.0, 0.0, 4.0)),
            (NPC, "twin_a", "brown", Pose(2.0, 0.0, 2.0), "cow"),
            (NPC, "twin_b", "black", Pose(2.0, 0.0, 2.0), "pig"),
        ]
    )
    snap = take_snapshot(world, 0)
    clause = Clause("closest_object", False, {"anchor": {"by": "me"}})
    with pytest.raises(AmbiguousTieError):
        clause_match_set(clause, [snap])


# arguments under which each argmax kind scores the two walkers of tie_world equally
ARGMAX_TIES = {
    "temporal_cardinal": {"axis": "z"},
    "temporal_relative": {"frame": "my", "side": "front"},
    "farthest_moved": {},
    "closest_object": {"anchor": {"by": "me"}},
    "max_direction": {"frame": "my", "side": "front"},
}


def tie_world():
    """Two walkers mirrored about the speaker's x, both stepping +1 z."""
    world = simple_world(
        [
            (PLAYER, "sara", "white", Pose(7.0, 0.0, 7.0, yaw=0.0)),
            (AGENT, "igor", "pink", Pose(7.0, 0.0, 2.0)),
            (NPC, "twin_a", "brown", Pose(9.0, 0.0, 8.0), "cow"),
            (NPC, "twin_b", "black", Pose(5.0, 0.0, 8.0), "pig"),
        ]
    )
    first = take_snapshot(world, 0)
    for npc in world.npcs():
        x, y, z = npc.pose.position
        npc.pose = Pose(x, y, z + 1.0)
    return [first, take_snapshot(world, 1)]


@pytest.mark.parametrize("kind", [kind for kind, spec in KINDS.items() if spec.argmax])
def test_every_argmax_kind_rejects_an_exact_tie(kind):
    with pytest.raises(AmbiguousTieError):
        execute(form1(kind, ARGMAX_TIES[kind], "name"), tie_world())


def test_unanswerable_name_raises():
    _, snapshots = make_episode(3)
    with pytest.raises(UnanswerableQueryError):
        execute(form1("name", {"name": "nobody"}, "tag"), snapshots)


def test_answer_memids_resolve_in_relational_context():
    config = GenConfig()
    for seed in range(25):
        _, snapshots = make_episode(seed)
        rng = random.Random(seed + 1000)
        form, _, _ = sample_query(snapshots, config, rng)
        answer = execute(form, snapshots)
        context = json.loads(render_relational_context(snapshots))
        ids = context_ids(read_relational_context(context))
        assert set(answer.relevant_memids) <= ids


def test_relevant_memids_for_scalar_answers():
    world = fig_world()
    snap = take_snapshot(world, 0)
    form = form1(
        "distance_between", {"a": {"by": "name", "word": "bob"}, "b": {"by": "me"}}, "distance"
    )
    answer = execute(form, [snap])
    bob = resolve_ref({"by": "name", "word": "bob"}, snap)
    sara = resolve_ref({"by": "me"}, snap)
    assert set(answer.relevant_memids) == {bob.memid, sara.memid}


def test_execute_matches_reference_oracle_on_random_scenes():
    config = GenConfig()
    mismatches = []
    for seed in range(120):
        action_log, snapshots = make_episode(seed)
        rng = random.Random(seed + 5_000)
        form, text, _ = sample_query(snapshots, config, rng, action_log)
        fast = execute(form, snapshots, action_log).text
        slow = reference_oracle.execute(form.to_dict(), snapshots, action_log)
        if fast != slow:
            mismatches.append((text, fast, slow))
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_kind_agrees_with_the_reference_oracle(kind):
    """The kind's own sampler on 40 episodes; every return type it allows,
    negated and not where it combines; each of those answered at least once."""
    config, spec = GenConfig(), KINDS[kind]
    answered, tried, mismatches = Counter(), set(), []
    for seed in range(40):
        action_log, snapshots = make_episode(seed)
        try:
            args = spec.sample(snapshots, config, random.Random(seed + 9_000))
        except UnanswerableSceneError:
            continue
        if args is None:
            continue
        for negated in (False, True) if spec.combinable else (False,):
            clauses = (Clause(kind, negated, args),)
            for return_type in allowed_return_types(clauses, None):
                tried.add((negated, return_type))
                form = QueryForm(clauses=clauses, return_type=return_type)
                try:
                    fast = execute(form, snapshots, action_log).text
                except (UnanswerableQueryError, AmbiguousTieError):
                    continue
                answered[negated, return_type] += 1
                slow = reference_oracle.execute(form.to_dict(), snapshots, action_log)
                if fast != slow:
                    mismatches.append((seed, form.to_dict(), fast, slow))
    assert not mismatches, mismatches[:3]
    assert tried and set(answered) == tried, (tried, answered)
