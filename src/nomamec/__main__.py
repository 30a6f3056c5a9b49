"""``python -m nomamec``: the same command line as the ``nomamec`` script."""

import sys

from .cli import main

sys.exit(main())
