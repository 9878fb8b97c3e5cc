"""Test-session settings.

One OpenBLAS thread per library for the suite: the tests run many small
dense products and eigendecompositions, where a second BLAS thread contends
instead of helping.  numpy and scipy each bundle an OpenBLAS that reads
OPENBLAS_NUM_THREADS once, when it is loaded, so this must run before either
is imported.  A value already set in the environment wins.

`squeezeamp.cli.main` sets one thread itself, but most tests call the
library directly and never reach it, so the variable is still needed.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
