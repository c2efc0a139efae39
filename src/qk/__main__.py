"""python -m qk: the qk command (see qk.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
