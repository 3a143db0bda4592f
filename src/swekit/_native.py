"""The compiled kernel library: _native.c, built on first use, loaded
with ctypes.

It holds three kernels, each the twin of numpy code that stays as its
fallback and its reference: the sweep (timeloop._Sweep.run), the step
(the compiled time loop, twin of timeloop._numpy_run with the numpy
step helpers heun_step or euler_step and compute_dt: the CFL dt, the
ghost fill, the sweep, the stage tail, the Heun average and the ledger,
up to each landing time, returning to Python only where a fault is
raised or the step taken again, or where the caller sees the run; it
takes Manning's h^(4/3) as sources.four_thirds does, whose twin each
level also exports, and sums in numpy's pairwise order) and the `%.16e`
table writer (fileio._write_rows). timeloop and fileio bind their entry
points from library(). timeloop runs one of two loops: the compiled one
(_compiled.CompiledStep.run), or the numpy one, whose steps are the
numpy step helpers alone, over the compiled sweep where a step helper
is rebound (a profiler's wrapper), and over the numpy sweep where the
library could not be built.

The sweep and the step are compiled once per x86 vector level
(SWEEP_LEVELS: the baseline, avx2 and avx512f), all from the same
source, into entries swekit_sweep_<level> and
swekit_step_<level> of the one library; sweep_levels() names those this
CPU can run, and timeloop binds the widest. The step of a level calls
the sweep of that level: the tail's passes are bound by their divisions
and square roots, not by memory, and gain from the wider level as the
sweep does. GCC's target attribute enables a level for its entries
alone, so the library loads on any x86-64 CPU, and a cached build stays
safe to load on another machine. Built by another compiler or for
another architecture, the library holds the baseline entries only. The
writer is compiled once per writer level (WRITER_LEVELS: the baseline,
and fma for CPUs with AVX2 and FMA) into entries
swekit_write_rows_<level> and swekit_format_slots_<level>; its digits
come from an exact double-double product, whose error term is C99 fma()
at the fma level and Dekker's product at the baseline, so both levels
write the same text. The numpy writer takes the same method, with
Dekker's product, from the same power table: fileio._powers() builds it
once, and library() hands it to swekit_writer_init, which copies it.
writer_levels() names those this CPU can run, and fileio binds the
widest.

The library is built with `gcc -O3 -fno-math-errno -fno-trapping-math
-ffp-contract=off -fPIC -shared` (or `cc`). -O3 vectorizes the sweep's
row passes at each level; -fno-math-errno lets sqrt inline and
-fno-trapping-math lets the comparisons that feed its selects be
if-converted, and neither changes a computed value. Nor does the vector
width: every level gives the same bits, as no sweep or step level calls
fma() or enables the FMA extension, and -ffp-contract=off fuses no
product, also at avx512f, whose instruction set has fused forms of its
own. It is never built with contraction, -ffast-math or -march=native,
which would change the bits. The library goes into
$XDG_CACHE_HOME/swekit, else ~/.cache/swekit, else a private directory
under the system's temporary directory. The cache key hashes the
source, the flags and the compiler executable; a library whose SHA-256
does not match the one stored beside it is rebuilt. A build logs one
INFO line with the compiler and its seconds: it runs inside the first
run of a process with a cold cache, and counts in that run's time.

Without a working C compiler, library() logs one warning per process
and returns None: the numpy twins of all three kernels run.
"""

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import pathlib
import shutil
import tempfile
import threading
import time

LOG = logging.getLogger(__name__)

_SOURCE = pathlib.Path(__file__).with_name("_native.c")
# -fno-math-errno lets sqrt inline and -fno-trapping-math lets the
# comparisons that feed selects be if-converted, so the loops vectorize;
# neither changes a computed value. No contraction, no -ffast-math, no
# -march=native: each would change results' bits.
_FLAGS = ("-O3", "-fno-math-errno", "-fno-trapping-math",
          "-ffp-contract=off", "-fPIC", "-shared")

# Every entry point but the per-level ones: (argument types, result
# type). Pointers are passed as addresses.
_ENTRIES = {
    "swekit_sweep_level": ([], ctypes.c_int),
    "swekit_sweep_work": ([ctypes.c_void_p], ctypes.c_ssize_t),
    "swekit_writer_level": ([], ctypes.c_int),
    "swekit_writer_init": ([ctypes.c_void_p], ctypes.c_int),
}

# The vector levels of the sweep and the step, narrowest first: avx2
# runs on CPUs with AVX2, avx512f on those with AVX-512F. Each has the
# entries swekit_sweep_<level>(struct frame *, direction),
# swekit_step_<level>(struct step *) and swekit_four_thirds_<level>(h,
# out, n, h_eps), declared where the CPU supports the level.
SWEEP_LEVELS = ("baseline", "avx2", "avx512f")
# The writer's levels, narrowest first: fma runs on CPUs with AVX2 and
# FMA. Each has the entries swekit_format_slots_<level> and
# swekit_write_rows_<level>, declared where the CPU supports the level.
WRITER_LEVELS = ("baseline", "fma")
# (levels, the entry that reports the widest the CPU runs, the entries
# of each level by name with their argument and result types).
_LEVELED = (
    (SWEEP_LEVELS, "swekit_sweep_level",
     {"swekit_sweep_{}": ([ctypes.c_void_p, ctypes.c_ssize_t], None),
      "swekit_step_{}": ([ctypes.c_void_p], ctypes.c_int),
      "swekit_four_thirds_{}": ([ctypes.c_void_p, ctypes.c_void_p,
                                 ctypes.c_ssize_t, ctypes.c_double], None)}),
    (WRITER_LEVELS, "swekit_writer_level",
     {"swekit_format_slots_{}": ([ctypes.c_void_p, ctypes.c_ssize_t,
                                  ctypes.c_void_p], None),
      "swekit_write_rows_{}": ([ctypes.c_void_p] + [ctypes.c_ssize_t] * 3
                               + [ctypes.c_void_p] * 2
                               + [ctypes.c_ssize_t, ctypes.c_void_p],
                               ctypes.c_ssize_t)}),
)

_LOADING = threading.Lock()


def _cache_dir():
    """$XDG_CACHE_HOME/swekit or ~/.cache/swekit; else a private
    directory under the system's temporary directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "swekit")
    try:
        os.makedirs(directory, exist_ok=True)
        if os.access(directory, os.W_OK):
            return directory
    except OSError:
        pass
    # A shared directory: only a library this user built may be loaded.
    directory = os.path.join(tempfile.gettempdir(), f"swekit-{os.getuid()}")
    os.makedirs(directory, mode=0o700, exist_ok=True)
    if os.stat(directory).st_uid != os.getuid():
        raise OSError(f"{directory} belongs to another user")
    return directory


def _digest(path):
    with open(path, "rb") as stream:
        return hashlib.sha256(stream.read()).hexdigest()


def _compile(compiler, target):
    """Build the library into target; OSError if the compiler fails."""
    # Imported here: a run that finds the library cached needs neither
    # the module nor a process.
    import subprocess

    try:
        subprocess.run([compiler, *_FLAGS, "-o", target, str(_SOURCE)],
                       check=True, capture_output=True, timeout=300)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{compiler} failed: {exc}") from exc


def _library_path():
    """Path of the built library, building it first if the cache has none.

    The cache key hashes the source, the flags and the compiler: its
    resolved path, size and modification time, which change with its
    version and cost no process to read. The library is compiled to a
    temporary file and moved into place, and its SHA-256 is stored
    beside it: a library whose bytes do not match (a truncated file,
    say) is rebuilt, not loaded.
    """
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler on PATH")
    executable = os.path.realpath(compiler)
    info = os.stat(executable)
    identity = f"{executable} {info.st_size} {info.st_mtime_ns}"
    key = hashlib.sha256(b"\0".join(
        (_SOURCE.read_bytes(), identity.encode(),
         " ".join(_FLAGS).encode()))).hexdigest()[:32]
    directory = _cache_dir()
    path = os.path.join(directory, f"native-{key}.so")
    digest_path = path + ".sha256"
    try:
        with open(digest_path, encoding="ascii") as stream:
            if stream.read() == _digest(path):
                return path
    except FileNotFoundError:
        pass
    temporary = []
    try:
        for suffix in (".so", ".sha256"):
            fd, name = tempfile.mkstemp(suffix=suffix, dir=directory)
            os.close(fd)
            temporary.append(name)
        built, digest = temporary
        start = time.perf_counter()
        _compile(compiler, built)
        LOG.info("built the kernel library with %s in %.2f s", executable,
                 time.perf_counter() - start)
        with open(digest, "w", encoding="ascii") as stream:
            stream.write(_digest(built))
        os.replace(built, path)
        os.replace(digest, digest_path)
    finally:
        for name in temporary:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
    return path


@functools.cache
def library():
    """The loaded library with every entry point declared, or None.

    Built and loaded once per process. None, after one warning, when no
    C compiler is found or the build fails: the numpy twins run.
    """
    with _LOADING:
        try:
            loaded = ctypes.CDLL(_library_path())
            for name, (argtypes, restype) in _ENTRIES.items():
                entry = getattr(loaded, name)
                entry.argtypes, entry.restype = argtypes, restype
            for levels, widest, entries in _LEVELED:
                for level in levels[:getattr(loaded, widest)() + 1]:
                    for name, (argtypes, restype) in entries.items():
                        entry = getattr(loaded, name.format(level))
                        entry.argtypes, entry.restype = argtypes, restype
            # Imported here: fileio imports this module.
            from .fileio import _powers
            if loaded.swekit_writer_init(_powers().ctypes.data) != 0:
                raise OSError("the writer found no \"C\" locale")
        except OSError as exc:
            LOG.warning("compiled sweep kernel unavailable, and the compiled "
                        "time loop and the C writer with it; running the "
                        "numpy sweep kernel, the numpy time loop and the "
                        "numpy writer: %s", exc)
            return None
    return loaded


def _runnable(levels, widest):
    loaded = library()
    if loaded is None:
        return ()
    return levels[:getattr(loaded, widest)() + 1]


def sweep_levels():
    """The vector levels of the sweep and the step this process can run,
    narrowest first: those the loaded library holds and the CPU and the
    OS support. Empty where the library could not be built."""
    return _runnable(SWEEP_LEVELS, "swekit_sweep_level")


def writer_levels():
    """The writer levels this process can run, narrowest first, as
    sweep_levels() tells the sweep's."""
    return _runnable(WRITER_LEVELS, "swekit_writer_level")
