"""The compiled kernels of ``_cascade.c`` and the records they exchange:
``cascade``, twin of ``simulate._cascade_python``, and ``day_hours``, twin
of ``dispatch._day_hours``.  The twins give bit-identical results and run
in their place when the library cannot be built or loaded.  ``KERNEL``
names the side in use, ``"c"`` or ``"python"``."""

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .devices import (CAPACITY_FADE_FLOOR, BatterySpec, GeneratorSpec,
                      self_discharge_hourly)


class CascadeState(NamedTuple):
    """Battery state carried from one cascade run into the next.

    A fresh bank is fully charged and has neither cycled nor discharged, so
    its first discharge starts a cycle.
    """

    soc: float                 # state of charge [fraction]
    cycles: float = 0.0        # cycles counted so far
    throughput: float = 0.0    # discharged DC energy counted so far [kWh]
    discharging: bool = False  # the last battery move was a discharge


class _CState(ctypes.Structure):
    """``cascade_state`` of ``_cascade.c``."""

    _fields_ = [("soc", ctypes.c_double), ("cycles", ctypes.c_double),
                ("throughput", ctypes.c_double), ("discharging", ctypes.c_int)]


class DayInputs(ctypes.Structure):
    """``day_inputs`` of ``_cascade.c``: what every schedule of a dispatch
    day shares, which ``DispatchContext`` fills once for both twins."""

    _fields_ = ([("res", ctypes.c_double * 24), ("dem", ctypes.c_double * 24)]
                + [(name, ctypes.c_double) for name in (
                    "eta_rec", "eta_inv", "p_min", "tol", "soc_start", "cap",
                    "keep", "eta")])


class DayTotals(ctypes.Structure):
    """``day_totals`` of ``_cascade.c``: what the hours of a schedule add up
    to, as both twins return it."""

    _fields_ = ([(name, ctypes.c_double) for name in ("energy", "dump", "lost")]
                + [("online", ctypes.c_long), ("starts", ctypes.c_long)]
                + [(name, ctypes.c_double) for name in (
                    "semicont", "p_dg_max", "p_bs_max", "soc_min", "soc_max")])


_CASCADE_SOURCE = Path(__file__).with_name("_cascade.c")
# -ffp-contract=off keeps the compiler from fusing a multiply and an add,
# which would round differently from the Python loop.
_CC_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _cascade_library() -> Path:
    """Path of the compiled kernels, cached in ``__pycache__`` under a hash
    of their source and flags; compiled with the local ``cc`` when missing.

    The library is built under a temporary name and renamed into place, so
    processes that build it at the same time never load a partial file.
    """
    source = _CASCADE_SOURCE.read_bytes()
    tag = hashlib.sha256(source + " ".join(_CC_FLAGS).encode()).hexdigest()[:16]
    cache = _CASCADE_SOURCE.parent / "__pycache__"
    lib = cache / f"_cascade-{tag}.so"
    if lib.exists():
        return lib
    cache.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix="_cascade-", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(["cc", *_CC_FLAGS, "-o", tmp, str(_CASCADE_SOURCE)],
                       check=True, capture_output=True)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load_cascade():
    """The compiled kernels' library with the signatures of ``cascade`` and
    ``day_hours`` set, or None when it cannot be built or loaded (no
    compiler, read-only package directory)."""
    try:
        lib = ctypes.CDLL(str(_cascade_library()))
    except (OSError, subprocess.CalledProcessError):
        return None
    # Arrays go in as raw addresses: the callers make them C-contiguous
    # float64, so checking each one on every call would only cost time.
    c_double, c_int, address = ctypes.c_double, ctypes.c_int, ctypes.c_void_p
    lib.cascade.argtypes = ([ctypes.c_long, address, address]
                            + [c_double] * 7 + [c_int, c_double, c_double]
                            + [c_double] * 3
                            + [c_int, c_int, ctypes.POINTER(_CState)]
                            + [address, ctypes.POINTER(ctypes.c_long)])
    lib.cascade.restype = None
    lib.day_hours.argtypes = [address, ctypes.POINTER(DayInputs), address]
    lib.day_hours.restype = DayTotals
    return lib


_LIBRARY = _load_cascade()
KERNEL = "python" if _LIBRARY is None else "c"
# Called unwrapped: a Python wrapper would cost more than the C function.
day_hours = None if _LIBRARY is None else _LIBRARY.day_hours


def cascade(res_dc: np.ndarray, demand_dc: np.ndarray, battery: BatterySpec,
            e_b_init: float, generator: GeneratorSpec, dg_may_charge: bool,
            eta_rec: float, start: CascadeState, cycle_counting: str):
    """The cascade in C, with the arguments and results of its twin.
    ``res_dc`` and ``demand_dc`` must be C-contiguous float64 arrays, as
    ``simulate.dispatch_cascade`` makes them."""
    n = len(res_dc)
    out = np.empty((5, n))
    counts = (ctypes.c_long * 2)()
    state = _CState(start.soc, start.cycles, start.throughput,
                    int(start.discharging))
    _LIBRARY.cascade(n, res_dc.ctypes.data, demand_dc.ctypes.data, e_b_init,
                     battery.round_trip_eff, battery.soc_min, battery.soc_max,
                     self_discharge_hourly(battery), battery.fade_per_cycle,
                     CAPACITY_FADE_FLOOR, int(battery.fixed_power_limit),
                     battery.rated_power_per_unit, battery.unit_energy,
                     generator.rated_power, generator.min_power, eta_rec,
                     int(dg_may_charge), int(cycle_counting == "throughput"),
                     ctypes.byref(state), out.ctypes.data, counts)
    end = CascadeState(state.soc, state.cycles, state.throughput,
                       bool(state.discharging))
    return (*out, end, tuple(counts))
