"""Fixed malloc thresholds for the process, so its speed does not depend on its past.

glibc's malloc serves a request of at least ``M_MMAP_THRESHOLD`` bytes with a
fresh mapping, and gives free memory at the top of the heap back to the
system once it exceeds ``M_TRIM_THRESHOLD``. Both start at 128 KiB and rise
as large blocks are freed, so where they stand depends on the whole
allocation history of the process. The estimators allocate and free arrays of
a few hundred KiB per block (a 700-run policy block at n = 40 makes several of
about 220 KiB). Below the thresholds those arrays reuse heap pages; above
them each block faults its pages in afresh, about 170 page faults and a
quarter of the time of such a ``simulate_batch`` call. Two processes doing
the same work therefore ran steadily 25% apart, depending on which large
blocks happened to be freed first.

:func:`fix_malloc_thresholds` sets both thresholds once, to the ceiling the
dynamic rule can reach on 64-bit glibc (32 MiB and twice that), which also
turns the dynamic rule off. The package calls it on import. Elsewhere than
glibc it does nothing.
"""

from __future__ import annotations

import ctypes
import os

# mallopt parameter numbers from glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


def fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds of the process."""
    if _glibc():
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
