"""The calibration kernel: a fixed slice of pure-Python work.

The speed of a shared host drifts by tens of percent within seconds, for
the program and for this kernel alike.  The benchmark runs a kernel
slice just before and just after each timed region and converts the
region's raw time to calibrated time:

    calibrated = raw * (NOMINAL_S / mean of the two slices) ** EXPONENT

When the host is contended the workloads slow down somewhat more than
the kernel does; EXPONENT = 1.15 matches that.  It was fit on recordings
of all four workloads (see README.md); with EXPONENT = 1 the correction
leaves two to three times more drift.

The kernel loads and stores object references, as an interpreter over
trees does: list stores, attribute loads and stores on slotted objects,
small-int arithmetic.  Of the kernels tried it tracked the drift of all
four workloads best.  It allocates nothing once this module is
imported, and it never imports srtlab.
"""

import time

#: Kernel time of one slice on the reference machine (see README.md).
NOMINAL_S = 0.0010
EXPONENT = 1.15


class _Cell:
    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag


_CELLS = [_Cell(i & 3) for i in range(64)]
_SLOTS = [None] * 64
_TICKS = (None,) * 64
_PARTS = 5


def _part():
    i = 0
    for _ in _TICKS:
        for cell in _CELLS:
            _SLOTS[i] = cell
            cell.tag = cell.tag
            i = (i + 1) & 63


def kernel_slice():
    """Run one slice of five parts; returns its wall time in seconds.

    The slice's time is five times its median part, so a preemption
    that hits one part does not skew the calibration of the op.
    """
    parts = []
    for _ in range(_PARTS):
        start = time.perf_counter()
        _part()
        parts.append(time.perf_counter() - start)
    parts.sort()
    return parts[_PARTS // 2] * _PARTS


def factor(before, after):
    """Calibrated seconds per raw second, from the two slices beside a
    timed region."""
    return (NOMINAL_S * 2 / (before + after)) ** EXPONENT
