"""``python -m benchmarks.e2e`` (from the repo root, no install needed)."""

from __future__ import annotations

import os
import sys


def main() -> int:
    source = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    from benchmarks.e2e.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
