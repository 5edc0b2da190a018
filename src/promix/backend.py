"""The kernel module callers reach the hot kernels through.

Library code calls ``backend.kernels.softmax_rows`` and
``backend.kernels.prompt_step`` rather than importing them, so the
benchmark tracer can wrap both in one place; ``active_name`` names the
kernels in its run stamp.
"""

from promix import _kernels_py

kernels = _kernels_py


def active_name() -> str:
    return "python"
