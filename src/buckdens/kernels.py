"""The kernel backend stamp; the kernels themselves live in :mod:`buckdens.sets`."""

__all__ = ["active_backend"]


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
