import random
from pathlib import Path

import pytest

from conftest import make_episode, random_form
from gridqa import GenConfig
from gridqa.querygen import (
    ALL_KINDS,
    ARGMAX_KINDS,
    COMBINABLE_KINDS,
    HEADS,
    STANDALONE_KINDS,
    TEMPLATES,
    VALUE_KINDS,
    Clause,
    QueryForm,
    QueryFormError,
    QueryParseError,
    allowed_return_types,
    parse_form,
    render_text,
    sample_query,
)


def form1(kind, args, return_type, negated=False):
    return QueryForm(clauses=(Clause(kind, negated, args),), return_type=return_type)


def test_render_tag_query():
    form = form1("tag", {"tag": "brown"}, "name")
    assert render_text(form) == "what are the names of the objects that has the property brown?"


def test_render_direction_query():
    form = form1("direction", {"frame": "my", "side": "right"}, "name")
    assert render_text(form) == "what are the names of the objects to my right?"


def test_render_negated_conjunction():
    form = QueryForm(
        clauses=(
            Clause("tag", True, {"tag": "brown"}),
            Clause(
                "absolute_cardinal",
                False,
                {"axis": "x", "comparator": "less", "threshold": 4.0},
            ),
        ),
        return_type="name",
        op="and",
    )
    assert render_text(form) == (
        "what are the names of the objects that do not have the property brown "
        "and where the x coordinate is less than 4?"
    )


def test_render_name_properties_query():
    form = form1("name", {"name": "alice"}, "tag")
    assert render_text(form) == "what are the properties of the objects that have the name alice?"


def test_render_cardinal_locations_query():
    form = form1(
        "absolute_cardinal", {"axis": "x", "comparator": "less", "threshold": 4.0}, "location"
    )
    assert render_text(form) == (
        "what are the locations of the objects where the x coordinate is less than 4?"
    )


def test_render_value_queries():
    assert render_text(
        form1("distance_between", {"a": {"by": "type", "word": "horse"}, "b": {"by": "you"}}, "distance")
    ) == "how far is the horse from you?"
    assert render_text(
        form1("distance_from_position", {"frame": "your", "side": "right", "steps": 3}, "location")
    ) == "what is the location 3 steps to your right?"
    assert render_text(
        form1("object_tracking", {"ref": {"by": "type", "word": "ball"}, "target": [4, 7, 2]}, "location")
    ) == "where would the ball be if i moved to (4,7,2)?"
    assert render_text(form1("action", {}, "action_name")) == "what did you do?"
    assert render_text(
        form1("location_at_time", {"ref": {"by": "name", "word": "bob"}, "time": "beginning"}, "location")
    ) == "what was the location of bob at the beginning?"


def test_render_temporal_and_geometric_argmax():
    assert render_text(form1("temporal_cardinal", {"axis": "x"}, "name")) == (
        "what is the name of the object that increased x the most?"
    )
    assert render_text(
        form1("temporal_relative", {"frame": "my", "side": "left"}, "name")
    ) == "what is the name of the object that moved to my left the most?"
    assert render_text(form1("farthest_moved", {}, "name")) == (
        "what is the name of the object that moved the farthest?"
    )
    assert render_text(
        form1("closest_object", {"anchor": {"by": "type", "word": "cow"}}, "name")
    ) == "what is the name of the object that is closest to the cow?"
    assert render_text(
        form1("max_direction", {"frame": "my", "side": "right"}, "name")
    ) == "what is the name of the object that is the most to my right?"
    assert render_text(
        form1(
            "absolute_distance",
            {"point": [2, 6, 5], "comparator": "greater", "threshold": 3.0},
            "count",
        )
    ) == "what is the count of the objects where the distance to (2, 6, 5) is greater than 3?"


def test_parse_farthest_moved():
    form = parse_form("what is the name of the object that moved the farthest?")
    assert form.clauses[0].kind == "farthest_moved"
    assert form.return_type == "name"


def test_parse_rejects_non_grammar_text():
    with pytest.raises(QueryParseError):
        parse_form("hello world")
    with pytest.raises(QueryParseError) as err:
        parse_form("what are the names of the objects that wiggle?")
    assert err.value.position > 0
    # each parses to a valid form whose rendering differs from the text
    for text in (
        "what are the names of the objects that moved the farthest?",
        "what are the properties of the object to my left?",
        "what is the count of the objects where the x coordinate is less than 04?",
    ):
        with pytest.raises(QueryParseError) as err:
            parse_form(text)
        assert err.value.position > 0


def test_round_trip_random_forms():
    rng = random.Random(20240817)
    for _ in range(2000):
        form = random_form(rng)
        text = render_text(form)
        parsed = parse_form(text)
        assert parsed == form, text
        assert render_text(parsed) == text
        # the same body under the other head of its return type is not canonical
        for (return_type, singular), head in HEADS.items():
            other = HEADS.get((return_type, not singular))
            if other and text.startswith(head + " "):
                with pytest.raises(QueryParseError):
                    parse_form(other + text[len(head):])


def test_threshold_decimals_round_trip():
    form = form1(
        "absolute_cardinal", {"axis": "y", "comparator": "greater", "threshold": 3.55}, "count"
    )
    text = render_text(form)
    assert "3.55" in text
    assert parse_form(text) == form


def test_standalone_kinds_cannot_combine_or_negate():
    with pytest.raises(QueryFormError):
        QueryForm(
            clauses=(Clause("farthest_moved"), Clause("tag", False, {"tag": "brown"})),
            return_type="name",
            op="and",
        )
    with pytest.raises(QueryFormError):
        Clause("action", negated=True).to_dict and QueryForm(
            clauses=(Clause("action", negated=True),), return_type="action_name"
        )


def test_return_type_compatibility_rules():
    action = (Clause("action"),)
    assert allowed_return_types(action, None) == ("action_name",)
    closest = (Clause("closest_object", args={"anchor": {"by": "me"}}),)
    assert allowed_return_types(closest, None) == ("name", "tag")
    maxdir = (Clause("max_direction", args={"frame": "my", "side": "left"}),)
    assert allowed_return_types(maxdir, None) == ("name", "tag")
    # unique names make a lone name clause single-output: no count, no echo
    name = (Clause("name", args={"name": "bob"}),)
    assert allowed_return_types(name, None) == ("tag", "location")
    tag = (Clause("tag", args={"tag": "brown"}),)
    assert set(allowed_return_types(tag, None)) == {"name", "tag", "location", "count"}
    # an "and" with an argmax clause pins the output to one object
    pair = (Clause("tag", args={"tag": "brown"}), Clause("temporal_cardinal", args={"axis": "x"}))
    assert "count" not in allowed_return_types(pair, "and")
    assert "count" in allowed_return_types(pair, "or")


def test_invalid_return_types_rejected():
    with pytest.raises(QueryFormError):
        form1("action", {}, "count")
    with pytest.raises(QueryFormError):
        form1("closest_object", {"anchor": {"by": "me"}}, "location")
    with pytest.raises(QueryFormError):
        form1("name", {"name": "bob"}, "count")


def test_sampled_queries_respect_compatibility():
    config = GenConfig()
    for seed in range(60):
        _, snapshots = make_episode(seed)
        rng = random.Random(seed)
        form, text = sample_query(snapshots, config, rng)
        assert form.return_type in allowed_return_types(form.clauses, form.op)
        assert parse_form(text) == form
        for clause in form.clauses:
            if clause.kind in STANDALONE_KINDS:
                assert len(form.clauses) == 1
                assert not clause.negated
        if len(form.clauses) == 2:
            assert {form.clauses[0].query_class, form.clauses[1].query_class} == {
                form.query_class
            }


def test_sampler_is_deterministic():
    config = GenConfig()
    _, snapshots = make_episode(123)
    a = sample_query(snapshots, config, random.Random(5))
    b = sample_query(snapshots, config, random.Random(5))
    assert a == b


def test_temporal_queries_need_two_snapshots():
    config = GenConfig(
        weight_property=0.0, weight_temporal=1.0, weight_geometric=0.0
    )
    _, snapshots = make_episode(1, GenConfig.properties_mode())
    with pytest.raises(ValueError):
        sample_query(snapshots, config, random.Random(0))


def test_kind_catalog_is_complete():
    assert len(ALL_KINDS) == 15
    assert STANDALONE_KINDS == {
        "farthest_moved",
        "location_at_time",
        "action",
        "object_tracking",
        "closest_object",
        "max_direction",
        "distance_between",
        "distance_from_position",
    }
    assert COMBINABLE_KINDS == {
        "name",
        "tag",
        "absolute_cardinal",
        "temporal_cardinal",
        "temporal_relative",
        "absolute_distance",
        "direction",
    }
    assert VALUE_KINDS < STANDALONE_KINDS
    assert ARGMAX_KINDS & COMBINABLE_KINDS == {"temporal_cardinal", "temporal_relative"}


def test_format_md_lists_every_template_and_head():
    text = (Path(__file__).resolve().parents[1] / "FORMAT.md").read_text(encoding="utf-8")
    for head in HEADS.values():
        assert f"`{head}`" in text, head
    for _kind, _fixed, template in TEMPLATES:
        assert template in text, template
