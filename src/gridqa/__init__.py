"""gridqa: deterministic context-query-answer data generation in a 3D gridworld."""

from .config import GenConfig
