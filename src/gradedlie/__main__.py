"""``python -m gradedlie``: the same command line as the ``gradedlie`` script."""

import sys

from .cli import main

sys.exit(main())
