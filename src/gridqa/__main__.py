"""python -m gridqa: the gridqa command line (see gridqa.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
