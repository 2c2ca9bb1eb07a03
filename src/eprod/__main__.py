"""``python -m eprod``: the command line, as the ``eprod`` console script."""

import sys

from .cli import main

sys.exit(main())
