"""``python -m nvgates``: the ``nvgates`` command, without an install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
