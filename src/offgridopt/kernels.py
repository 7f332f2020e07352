"""The compiled kernels of ``_cascade.c``, whose header describes each, and
the records they exchange: ``run`` (the cascade over any horizon),
``price`` (the lifecycle price of a horizon's totals), ``day_prices``,
``day_hours``, ``day_score`` and ``day_refine`` (a dispatch day's pricing
constants, pass, score and the search's refinement of one ON pattern).
These six are all the library exports.

They are the package's only implementation of these computations, the
pricing included, so the package needs a C compiler: the library is built
with ``cc`` and loaded when this module is imported.  When that fails the
import still succeeds, and every kernel call raises
``errors.KernelUnavailableError``, which names the reason.  The tests keep
a Python oracle of each kernel in ``tests/reference.py`` and compare the
two bit for bit."""

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
from .errors import KernelUnavailableError


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


class CascadeInputs(ctypes.Structure):
    """``cascade_inputs`` of ``_cascade.c``: what a cascade run reads besides
    the design and the start state.  The C side holds the addresses of its
    arrays; ``cascade_inputs`` keeps the arrays themselves on the record, so
    they live as long as it."""

    _fields_ = ([("n", ctypes.c_long)]
                + [(name, ctypes.c_void_p) for name in (
                    "dem", "irr", "pv_eta", "wt_frac")]
                + [(name, ctypes.c_double) for name in (
                    "pv_area", "wt_rated", "eta_rec", "eta_inv", "eta",
                    "soc_min", "soc_max", "leak", "fade", "fade_floor",
                    "unit_power", "unit_energy", "p_rated", "p_min")]
                + [(name, ctypes.c_int) for name in (
                    "fixed_power_limit", "dg_may_charge", "by_throughput")])


class CascadeTotals(ctypes.Structure):
    """``cascade_totals`` of ``_cascade.c``: what the hours of a run add up
    to, each sum ``np.sum``'s of its row."""

    _fields_ = ([(name, ctypes.c_double) for name in (
                    "energy", "dump", "lost", "res")]
                + [("online", ctypes.c_long), ("starts", ctypes.c_long)])


def cascade_inputs(demand_dc: np.ndarray, battery: BatterySpec,
                   generator: GeneratorSpec, dg_may_charge: bool,
                   eta_rec: float, cycle_counting: str, *, profile,
                   pv_area: float, wt_rated: float,
                   eta_inv: float) -> CascadeInputs:
    """The record of a run over ``demand_dc`` and the
    ``simulate.FeedInProfile`` ``profile``, which the kernel turns into
    feed-in with ``pv_area`` and ``wt_rated``.  The arrays must be
    C-contiguous float64 arrays of one length.  ``eta_inv`` scales the lost
    load to the customer (AC) side."""
    arrays = (demand_dc, *profile)
    for a in arrays:
        if (a.dtype != np.float64 or a.shape != demand_dc.shape
                or a.ndim != 1 or not a.flags.c_contiguous):
            raise ValueError("the cascade reads 1-D C-contiguous float64 "
                             "arrays of one length")
    record = CascadeInputs(
        len(demand_dc), *(a.__array_interface__["data"][0] for a in arrays),
        pv_area, wt_rated, eta_rec, eta_inv, battery.round_trip_eff,
        battery.soc_min, battery.soc_max, self_discharge_hourly(battery),
        battery.fade_per_cycle, CAPACITY_FADE_FLOOR,
        battery.rated_power_per_unit, battery.unit_energy,
        generator.rated_power, generator.min_power,
        int(battery.fixed_power_limit), int(dg_may_charge),
        int(cycle_counting == "throughput"))
    record.arrays = arrays
    return record


class Prices(ctypes.Structure):
    """``prices`` of ``_cascade.c``: the design-independent constants that
    price a horizon.  ``economics.prices`` fills one from the specs."""

    _fields_ = ([(name, ctypes.c_double) for name in (
                    "crf", "nominal_rate", "inflation", "years", "pv_capital",
                    "wt_capital", "bs_capital", "dg_capital", "converter",
                    "bs_replacement", "dg_replacement", "om_pv", "om_wt",
                    "om_bs", "om_dg", "om_hour", "om_kwh", "startup",
                    "shutdown", "p_rated", "fuel_price", "fuel_a", "fuel_b",
                    "gallon", "mt_slope", "emission", "lifetime_hours")]
                + [("diesel", ctypes.c_int)])


class Horizon(ctypes.Structure):
    """``horizon`` of ``_cascade.c``: what pricing a horizon reads besides
    its ``Prices`` and the run's ``CascadeTotals``."""

    _fields_ = ([(name, ctypes.c_double) for name in (
                    "pv_kw", "wt_kw", "bs_kwh", "bs_period", "load", "eta_rec",
                    "base_lcoe", "base_em")]
                + [("converter", ctypes.c_int)])


class Priced(ctypes.Structure):
    """``priced`` of ``_cascade.c``, flat: ``simulate.CostBreakdown``'s
    first eleven fields, the emissions and the ``ObjectiveVector``."""

    _fields_ = [(name, ctypes.c_double) for name in (
        "capital_pv", "capital_wt", "capital_bs", "capital_dg",
        "capital_converter", "annual_recurring", "pw_recurring",
        "pw_nonrecurring", "tnpc", "tac", "lcoe", "emissions", "lcoe_norm",
        "em_norm", "dpsp", "repg", "one_minus_ref")]


class DayInputs(ctypes.Structure):
    """``day_inputs`` of ``_cascade.c``: what every schedule of a dispatch
    day shares, which ``DispatchContext`` fills once.  It is the one home
    of the day's constants: its constraint limits (generator rating, in
    ``price.p_rated``, battery power limit, SOC window, ``dpsp_max``), its
    load, the penalty weight ``mu``, and what prices a schedule (the
    generator's ``Prices``, the daily fixed O&M and baseline that
    ``day_prices`` derives, the day's feed-in ``res_kwh`` and the four
    weights)."""

    _fields_ = ([("res", ctypes.c_double * 24), ("dem", ctypes.c_double * 24)]
                + [(name, ctypes.c_double) for name in (
                    "eta_rec", "eta_inv", "p_min", "tol", "soc_start", "cap",
                    "keep", "eta", "p_lim", "soc_min", "soc_max",
                    "load_kwh", "dpsp_max", "mu")]
                + [("price", Prices)]
                + [(name, ctypes.c_double) for name in (
                    "fixed_om", "base_coe", "base_em", "res_kwh")]
                + [("w", ctypes.c_double * 4)])


class DayTotals(ctypes.Structure):
    """``day_totals`` of ``_cascade.c``: what the hours of a schedule add up
    to, the five constraint residuals (``dispatch.VIOLATIONS`` order) and
    the penalty ``mu * (semi + rated + power + 10 soc + over)``."""

    _fields_ = ([(name, ctypes.c_double) for name in ("energy", "dump", "lost")]
                + [("online", ctypes.c_long), ("starts", ctypes.c_long)]
                + [(name, ctypes.c_double) for name in (
                    "semi", "rated", "power", "soc", "over", "penalty")])


class DayEvaluation(ctypes.Structure):
    """``day_evaluation`` of ``_cascade.c``: what ``day_score`` reports of a
    schedule, 13 numbers (``dispatch.DispatchEvaluation`` reads them)."""

    _fields_ = [(name, ctypes.c_double) for name in (
        "lcoe_norm", "em_norm", "dpsp", "repg", "one_minus_ref", "weighted",
        "c_daily", "semi", "rated", "power", "soc", "over", "search_value")]


_CASCADE_SOURCE = Path(__file__).with_name("_cascade.c")
# -ffp-contract=off keeps the compiler from fusing a multiply and an add,
# which would round differently from the Python oracle.
_CC_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# pow, log1p and exp; after the source, since a linker that drops unneeded
# libraries (--as-needed) drops a -lm that comes before it.
_CC_LIBS = ("-lm",)


def _cascade_library() -> Path:
    """Path of the compiled kernels, cached in ``__pycache__`` under a hash
    of their source and flags; compiled with the local ``cc`` when missing.

    The library is built under a temporary name and renamed into place, so
    processes that build it at the same time never load a partial file.
    Raises ``KernelUnavailableError`` when it cannot be built.
    """
    try:
        source = _CASCADE_SOURCE.read_bytes()
    except OSError as exc:
        raise KernelUnavailableError(
            f"the kernels' source cannot be read: {exc}") from None
    tag = hashlib.sha256(
        source + " ".join(_CC_FLAGS + _CC_LIBS).encode()).hexdigest()[:16]
    cache = _CASCADE_SOURCE.parent / "__pycache__"
    lib = cache / f"_cascade-{tag}.so"
    if lib.exists():
        return lib
    try:
        cache.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix="_cascade-", suffix=".tmp")
    except OSError as exc:
        raise KernelUnavailableError(
            f"the compiled kernels cannot be built in {cache}: {exc}") from None
    os.close(fd)
    try:
        try:
            subprocess.run(["cc", *_CC_FLAGS, "-o", tmp, str(_CASCADE_SOURCE),
                            *_CC_LIBS],
                           check=True, capture_output=True, text=True)
        except FileNotFoundError:
            raise KernelUnavailableError(
                "offgridopt needs a C compiler to build its kernels, and cc "
                "is not on PATH") from None
        except subprocess.CalledProcessError as exc:
            raise KernelUnavailableError(
                f"cc could not compile {_CASCADE_SOURCE.name}: "
                f"{exc.stderr.strip()}") from None
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load_cascade() -> ctypes.CDLL:
    """The compiled kernels' library with the signatures of ``cascade``,
    ``price``, ``day_prices``, ``day_hours``, ``day_score`` and
    ``day_refine`` set.  Raises ``KernelUnavailableError`` when it cannot be
    built or loaded."""
    lib = _cascade_library()
    try:
        lib = ctypes.CDLL(str(lib))
    except OSError as exc:
        raise KernelUnavailableError(
            f"the compiled kernels' library {lib} does not load: {exc}") from None
    # Arrays go in as raw addresses: the input arrays through a record,
    # checked once when it is built, and the output block, which the
    # wrapper allocates, as it is.
    c_double, address = ctypes.c_double, ctypes.c_void_p
    lib.cascade.argtypes = [ctypes.POINTER(CascadeInputs), c_double, c_double,
                            c_double, ctypes.POINTER(_CState), address]
    lib.cascade.restype = CascadeTotals
    lib.price.argtypes = [ctypes.POINTER(Prices), ctypes.POINTER(CascadeTotals),
                          ctypes.POINTER(Horizon), ctypes.POINTER(Priced)]
    lib.price.restype = None
    lib.day_prices.argtypes = [ctypes.POINTER(DayInputs),
                               ctypes.POINTER(Prices), c_double, c_double]
    lib.day_prices.restype = None
    lib.day_hours.argtypes = [address, ctypes.POINTER(DayInputs), address]
    lib.day_hours.restype = DayTotals
    lib.day_score.argtypes = [address, ctypes.POINTER(DayInputs),
                              ctypes.POINTER(DayEvaluation)]
    lib.day_score.restype = c_double
    lib.day_refine.argtypes = [address, ctypes.POINTER(DayInputs),
                               ctypes.POINTER(DayEvaluation)]
    lib.day_refine.restype = ctypes.c_int
    return lib


class _Unavailable:
    """Stands in for a library that could not be built or loaded: each of
    its kernels raises ``KernelUnavailableError`` with the reason."""

    def __init__(self, reason: str):
        self.reason = reason

    def __getattr__(self, name):
        def kernel(*args):
            raise KernelUnavailableError(self.reason)
        return kernel


try:
    _LIBRARY = _load_cascade()
except KernelUnavailableError as exc:
    _LIBRARY = _Unavailable(str(exc))
# Called unwrapped: a Python wrapper would cost more than the C function.
day_prices = _LIBRARY.day_prices
day_hours = _LIBRARY.day_hours
day_score = _LIBRARY.day_score
day_refine = _LIBRARY.day_refine


def run(inputs: CascadeInputs, pv_units: float, wt_units: float,
        e_b_init: float, start: CascadeState):
    """A cascade run in C: its hourly block, the final ``CascadeState`` and
    the ``CascadeTotals``.  The kernel forms the feed-in of ``pv_units`` and
    ``wt_units`` from the profile of ``inputs``, and the block has eight
    rows: p_pv, p_wt, feed-in, p_dg, p_bs, soc, dump and the lost load
    scaled by ``eta_inv``.
    """
    out = np.empty((8, inputs.n))
    state = _CState(start.soc, start.cycles, start.throughput,
                    int(start.discharging))
    totals = _LIBRARY.cascade(inputs, pv_units, wt_units, e_b_init, state,
                              out.__array_interface__["data"][0])
    end = CascadeState(state.soc, state.cycles, state.throughput,
                       bool(state.discharging))
    return out, end, totals


def price(prices: Prices, totals: CascadeTotals, horizon: Horizon) -> Priced:
    """The ``Priced`` record of a horizon's totals, from C."""
    out = Priced()
    _LIBRARY.price(prices, totals, horizon, out)
    return out
