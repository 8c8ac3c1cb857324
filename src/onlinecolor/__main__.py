"""``python -m onlinecolor``: the same command line as the ``onlinecolor`` script."""
import sys

from .cli import main

sys.exit(main())
