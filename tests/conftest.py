"""Session set-up: numpy's OpenBLAS at one thread, as `defkt run` runs.

Without it the session runs unpinned until the first in-process `cli.main`
pins it. The run's pool already puts one computing thread on each CPU, so a
second BLAS thread only oversubscribes them. Tests that need an unpinned
process start one themselves (tests/test_cli.py::TestBlasThreads).
"""

from defkt import blas

blas.pin()
