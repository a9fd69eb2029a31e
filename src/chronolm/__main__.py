"""``python -m chronolm``: the same command line as the ``chronolm`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
