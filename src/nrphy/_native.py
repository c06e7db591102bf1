"""The coding chain's compiled kernel (``_layer.c``): built at first use, then loaded.

The kernel exports five functions, each bit-exact with the NumPy body it
replaces, which stays the fallback and the oracle in the tests:

- ``encode``: a code block's whole systematic codeword, from the decoder's
  edge table and the inverse circulant's shifts that solve p0
  (``ldpc.ldpc_encode``);
- ``modulate``: every symbol's point, read from its order's two Q3.12
  tables by the label its bits make (``llr.modulate``);
- ``demap``: every symbol's LLRs (``llr.llr_estimate``);
- ``receive``: one code block's deinterleaving, saturating combine into
  its soft buffer over the circular buffer's contiguous runs, and decoder
  input, in one call (``rate_adapt.receive_block``);
- ``decode``: a code block's whole layered decode, from its LLRs to its
  hard decisions, in memory it allocates per call (-1 where it cannot),
  from one table of each edge's (column-block start, shift) pair. Its
  lane loops saturate in int16 and run the check node 32 lanes at a time,
  its state in registers; a layer whose rows all own a never-sent
  (all-zero) block runs a read-only step that folds the other edges the
  same way and writes only those blocks, and the parity check XORs the
  rotated blocks of the hard decisions, as ``encode`` does those of the
  codeword (``ldpc.ldpc_decode``).

Each stage calls its function where ``library()`` returns the library, and
runs NumPy otherwise; no setting picks the path. ``library()`` builds or
loads the library once per process, and where it cannot, it warns once and
returns None. ``ctypes`` releases the GIL for each call's length.

The source is compiled with the C compiler named by ``CC`` (else ``cc``),
for the host CPU, into ``NRPHY_CACHE_DIR`` (else ``~/.cache/nrphy``). The
file is named by a hash of the source, the compiler command and flags, the
compiler's version and the host CPU, so a cache hit is one ``dlopen``, and
it is written under a temporary name and renamed into place, so processes
that build at once leave one file. ``hashlib`` and ``subprocess`` are
imported only to build, so a process that never encodes, modulates,
demaps, receives or decodes does not load them.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shlex
import tempfile
import warnings
from functools import cache
from pathlib import Path

CACHE_DIR_ENV = "NRPHY_CACHE_DIR"
SOURCE = Path(__file__).with_name("_layer.c")
FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")


class _BuildError(Exception):
    """The kernel could not be compiled or loaded; the message says why."""


def _cpu_flags() -> str:
    """The ``flags`` line of /proc/cpuinfo, or "" where there is none."""
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line for line in fh if line.startswith("flags")), "")
    except OSError:
        return ""


def _compile(cc: list[str], target: Path) -> None:
    """Compile the source to ``target`` through a temporary file in its directory."""
    import subprocess

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        done = subprocess.run([*cc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True,
                              text=True)
        if done.returncode:
            raise _BuildError(f"{' '.join(cc)} exited with {done.returncode}: "
                              f"{done.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build() -> ctypes.CDLL:
    import hashlib
    import subprocess

    cc = shlex.split(os.environ.get("CC") or "cc")
    try:
        version = subprocess.run([*cc, "--version"], capture_output=True, text=True,
                                 check=True).stdout
        key = hashlib.sha256("\0".join([
            SOURCE.read_text(), " ".join([*cc, *FLAGS]), version, platform.machine(),
            _cpu_flags(),
        ]).encode()).hexdigest()[:16]
        target = Path(os.environ.get(CACHE_DIR_ENV) or Path.home() / ".cache" / "nrphy",
                      f"_layer-{key}.so")
        if not target.exists():
            _compile(cc, target)
        lib = ctypes.CDLL(str(target))
    except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
        # RuntimeError: Path.home() with no HOME and no passwd entry
        raise _BuildError(str(exc)) from exc
    ptr, count = ctypes.c_void_p, ctypes.c_int
    tables = (ptr, ptr) + (count,) * 4  # the code, as encode and decode take it: _Layers.tables
    lib.decode.argtypes = (ptr, ptr, *tables, count, ctypes.POINTER(count))
    lib.decode.restype = count
    lib.modulate.argtypes = (ptr,) * 3 + (count,) * 2 + (ptr,) * 2
    lib.modulate.restype = None
    lib.demap.argtypes = (ptr,) * 3 + (count,) * 7
    lib.demap.restype = None
    lib.receive.argtypes = (ptr,) * 3 + (count,) * 7
    lib.receive.restype = None
    lib.encode.argtypes = (ptr, *tables, ptr, count)
    lib.encode.restype = None
    return lib


@cache
def library() -> ctypes.CDLL | None:
    """The kernel library, or None where every stage runs in NumPy; built once per process."""
    try:
        return _build()
    except _BuildError as exc:
        warnings.warn(f"nrphy: native kernel unavailable ({exc}); encoding, modulating, "
                      "demapping, receiving and decoding with NumPy", RuntimeWarning,
                      stacklevel=3)
        return None

