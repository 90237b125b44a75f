"""``python -m enumstack …`` runs the command line, as ``enumstack …`` does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
