"""Where the program under measurement lives: ``src/`` next to ``bench/``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def locate() -> None:
    """Put ``src/`` first on the import path and import liepencil from it.

    Exits with an error when the sources are missing, so that the benchmark
    never measures some other installed copy.
    """
    package = SRC / "liepencil"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: liepencil sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import liepencil

    if Path(liepencil.__file__).resolve().parent != package:
        sys.exit(f"bench: imported liepencil from {liepencil.__file__}, not {package}")
