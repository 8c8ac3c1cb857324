"""Instructions retired in user space, read from the CPU's counter.

Wall time on a shared machine moves with the load other tenants put on the
host; the number of instructions a pass retires does not.  The counter is
opened with ``perf_event_open`` on this process only, with ``inherit`` set,
so it also counts every process started after it opens (the CLI and its pool
workers) once they have exited.  It needs no privilege beyond the default
``perf_event_paranoid`` of 2, because it leaves out the kernel.
"""
from __future__ import annotations

import ctypes
import fcntl
import os
import platform
import struct

_SYSCALL = {"x86_64": 298, "aarch64": 241}
_ATTR_SIZE = 128
_TYPE_HARDWARE = 0
_COUNT_INSTRUCTIONS = 1
# perf_event_attr flag bits: disabled, inherit, exclude_kernel, exclude_hv
_FLAGS = (1 << 0) | (1 << 1) | (1 << 5) | (1 << 6)
_IOC_ENABLE = 0x2400


class CounterUnavailable(OSError):
    pass


class InstructionCounter:
    """User-space instructions of this process and its later children."""

    def __init__(self) -> None:
        number = _SYSCALL.get(platform.machine())
        if number is None:
            raise CounterUnavailable(f"no perf_event_open number for {platform.machine()}")
        attr = bytearray(_ATTR_SIZE)
        struct.pack_into("IIQ", attr, 0, _TYPE_HARDWARE, _ATTR_SIZE, _COUNT_INSTRUCTIONS)
        struct.pack_into("Q", attr, 40, _FLAGS)
        libc = ctypes.CDLL(None, use_errno=True)
        buf = (ctypes.c_char * _ATTR_SIZE).from_buffer(attr)
        fd = libc.syscall(number, buf, 0, -1, -1, 0)
        if fd < 0:
            err = ctypes.get_errno()
            raise CounterUnavailable(err, f"perf_event_open: {os.strerror(err)}")
        self.fd = fd
        fcntl.ioctl(fd, _IOC_ENABLE)

    def read(self) -> int:
        return struct.unpack("q", os.read(self.fd, 8))[0]

    def close(self) -> None:
        os.close(self.fd)
