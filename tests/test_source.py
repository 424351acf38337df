from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gridqa"


def test_no_source_line_is_over_100_characters():
    # keeps `wc -l src/gridqa/*.py` a measure of code rather than of line packing
    long_lines = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert long_lines == []
