import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochsubmax
from stochsubmax import allocator

glibc_only = pytest.mark.skipif(not allocator._glibc(), reason="glibc malloc only")

# Page faults of 9 rounds, after a first one, that each allocate four 2 MiB
# arrays together and free them; argv[1] == "1" imports the package first.
PROBE = """
import resource, sys
import numpy as np
if sys.argv[1] == "1":
    import stochsubmax
faults = []
for _ in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 18) for _ in range(4)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sum(faults[1:]))
"""


def _probe_faults(import_package: bool) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(stochsubmax.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, "1" if import_package else "0"],
        capture_output=True, text=True, check=True, env=env,
    )
    return int(out.stdout)


@glibc_only
def test_import_lets_freed_arrays_reuse_heap_pages():
    # by glibc's default the freed 8 MiB exceed the trim threshold and go back to
    # the system, so every round faults its 2048 pages in afresh
    assert _probe_faults(False) > 9 * 1024
    assert _probe_faults(True) < 100
