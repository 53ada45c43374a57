"""python -m fscat: the fscat command line."""
import sys
from .cli import main

sys.exit(main())
