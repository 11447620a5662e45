import gc
import sys

from .cli import main

# Move everything imported so far out of the collector's reach: forked pool
# workers then never walk (and so never copy) the parent's objects, and the
# interpreter's final collections at exit skip them.  Only here, not in
# cli.main, which tests and tracing call in a process they keep using.
gc.freeze()
sys.exit(main())
