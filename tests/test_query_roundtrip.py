"""Round-trip properties of the query grammar, one per KINDS entry.

Every template in querygen.KINDS is covered through one strategy per
slot type, so a new kind or template is checked without a new test.
"""

import re
import string

import pytest

from gridqa.querygen import (
    AXES,
    COMPARATORS,
    FRAMES,
    KINDS,
    SIDES,
    Clause,
    QueryForm,
    allowed_return_types,
    is_query_word,
    parse_form,
    render_text,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# every word a pool file may hold (scenegen refuses the others)
_WORDS = st.text(string.ascii_lowercase + "_", min_size=1, max_size=8).filter(is_query_word)
_TRIPLES = st.lists(st.integers(0, 99), min_size=3, max_size=3)
# one strategy per slot type: every value the slot must carry back unchanged
SLOT_VALUES = {
    "word": _WORDS,
    "num": st.integers(0, 10_000).map(lambda hundredths: hundredths / 100),
    "int": st.integers(0, 99),
    "axis": st.sampled_from(AXES),
    "cmp": st.sampled_from(COMPARATORS),
    "frame": st.sampled_from(FRAMES),
    "side": st.sampled_from(SIDES),
    "ref": st.one_of(
        st.sampled_from([{"by": "me"}, {"by": "you"}]),
        st.builds(lambda by, word: {"by": by, "word": word}, st.sampled_from(["name", "type"]), _WORDS),
    ),
    "point": _TRIPLES,
    "cell": _TRIPLES,
}
# "{arg:slot}"; a "{neg:A|B}" slot holds a "|" and is drawn as the negation instead
_SLOT = re.compile(r"\{(\w+):([^}|]*)\}")


@st.composite
def clauses(draw, kind):
    fixed, template = draw(st.sampled_from(KINDS[kind].templates))
    args = {name: draw(SLOT_VALUES[slot]) for name, slot in _SLOT.findall(template)}
    negated = KINDS[kind].combinable and draw(st.booleans())
    return Clause(kind, negated, {**args, **fixed})


@st.composite
def forms(draw, kind):
    first = draw(clauses(kind))
    op = draw(st.sampled_from([None, "and", "or"])) if KINDS[kind].combinable else None
    if op is None:
        parts = (first,)
    else:
        other = draw(st.sampled_from(sorted(k for k, spec in KINDS.items() if spec.combinable)))
        parts = draw(st.permutations([first, draw(clauses(other))]))
    return_type = draw(st.sampled_from(allowed_return_types(tuple(parts), op)))
    return QueryForm(clauses=tuple(parts), return_type=return_type, op=op)


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_kind_round_trips_through_its_text(kind):
    @hypothesis.given(forms(kind))
    def round_trip(form):
        text = render_text(form)
        assert parse_form(text) == form
        assert render_text(parse_form(text)) == text

    round_trip()
