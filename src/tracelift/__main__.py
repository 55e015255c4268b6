"""``python -m tracelift``: the command-line front end of ``tracelift.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
