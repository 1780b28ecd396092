"""Entry point for ``python -m ucz``; the same commands as the ``ucz`` script."""

import sys

from .cli import main

sys.exit(main())
