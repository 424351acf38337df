"""gridqa: deterministic context-query-answer data generation in a 3D gridworld."""

from .config import GenConfig
from .oracle import Answer, execute, format_answer
from .querygen import Clause, QueryForm, parse_form, render_text, sample_query
from .scenegen import ScenePools, build_scene, make_shape
from .serialize import (
    Sample,
    read_relational_context,
    read_samples,
    render_relational_context,
    render_text_context,
)
from .worldcore import (
    BlockObject,
    Entity,
    Pose,
    Snapshot,
    Triple,
    WorldState,
    take_snapshot,
)
from .dynamics import Task, schedule_snapshots, step_world

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "BlockObject",
    "Clause",
    "Entity",
    "GenConfig",
    "Pose",
    "QueryForm",
    "Sample",
    "ScenePools",
    "Snapshot",
    "Task",
    "Triple",
    "WorldState",
    "build_scene",
    "execute",
    "format_answer",
    "make_shape",
    "parse_form",
    "read_relational_context",
    "read_samples",
    "render_relational_context",
    "render_text",
    "render_text_context",
    "sample_query",
    "schedule_snapshots",
    "step_world",
    "take_snapshot",
]
