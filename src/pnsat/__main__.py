"""``python -m pnsat``: the command-line front end (see :mod:`pnsat.cli`)."""

from .cli import main

raise SystemExit(main())
