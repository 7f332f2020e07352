"""The Python oracles of the compiled kernels in ``_cascade.c``.

The package runs the kernels only; these are the loops they replaced, kept
here so that the tests can compare the two bit for bit:

- ``_cascade_python``, with the arguments and results of
  ``kernels.cascade``, and ``battery_capacity``, its capacity fade;
- ``_year_python``, the annual ``kernels.run``: ``renewable_feed_in``, the
  cascade from a fresh bank and numpy's sums;
- ``_day_hours``, ``kernels.day_hours`` over a schedule's (2, 24) block,
  with its SOC knots from ``dispatch.propagate_soc`` and its sums from
  ``day_sum``;
- ``count_transitions``, how the kernels count a generator's starts.

``day_hours`` and ``year_run`` take the arguments of the compiled calls,
so that a test can put an oracle in a kernel's place.
"""

import ctypes
from operator import add, gt

import numpy as np

from offgridopt import economics, kernels
from offgridopt.devices import (CAPACITY_FADE_FLOOR, BatterySpec,
                                GeneratorSpec, battery_power_limit,
                                self_discharge_hourly)
from offgridopt.dispatch import propagate_soc
from offgridopt.errors import InputDataError
from offgridopt.kernels import CascadeState
from offgridopt.simulate import Design, SimulationContext, renewable_feed_in


def battery_capacity(e_init: float, n_cycles: float, spec: BatterySpec) -> float:
    """Usable capacity after linear cycle fading, floored at
    ``CAPACITY_FADE_FLOOR`` of the installed capacity."""
    if e_init < 0:
        raise InputDataError("e_init must be >= 0")
    faded = e_init * (1.0 - n_cycles * spec.fade_per_cycle)
    return max(faded, CAPACITY_FADE_FLOOR * e_init)


def count_transitions(online) -> int:
    """Startups of an on/off trace, which also count its shutdowns.

    The unit starts the horizon off, and a final shutdown is charged when it
    is still online in the last hour (the horizon ends with the unit off),
    so every start has its shutdown.
    """
    # an hour starts the unit when it is on and the hour before was off
    return int(sum(map(gt, online, [False, *online])))


def _cascade_python(res_dc: np.ndarray, demand_dc: np.ndarray,
                    battery: BatterySpec, e_b_init: float,
                    generator: GeneratorSpec, dg_may_charge: bool,
                    eta_rec: float, start: CascadeState,
                    cycle_counting: str):
    """The cascade, one Python iteration per hour: the oracle of
    ``kernels.cascade``."""
    n = len(res_dc)
    res = memoryview(res_dc)
    dem = memoryview(demand_dc)

    eta = battery.round_trip_eff
    soc_min = battery.soc_min
    soc_max = battery.soc_max
    leak = self_discharge_hourly(battery)
    has_battery = e_b_init > 0
    soc = start.soc
    cycles = start.cycles
    last_dir = 1 if start.discharging else -1
    throughput = start.throughput

    p_rated = generator.rated_power
    p_min = generator.min_power
    dg_eff = eta_rec
    online = starts = 0
    was_on = False

    block = np.empty((5, n))
    p_dg_out, p_bs_out, soc_out, dump_out, lost_out = map(memoryview, block)

    for t in range(n):
        r = res[t]
        d = dem[t]
        p_dg = 0.0
        p_bs = 0.0
        dump = 0.0
        lost_dc = 0.0

        if has_battery:
            e_c = battery_capacity(e_b_init, cycles, battery)
            p_lim = battery_power_limit(e_c, battery)
            s = (1.0 - leak) * soc
            if s < soc_min:
                s = soc_min
        else:
            e_c = 0.0
            p_lim = 0.0
            s = soc

        if r >= d:
            surplus = r - d
            if has_battery and surplus > 0.0:
                room = (soc_max - s) * e_c / eta
                p_ch = min(surplus, p_lim, room)
                if p_ch > 0.0:
                    p_bs = -p_ch
                    surplus -= p_ch
            dump = surplus
        else:
            deficit = d - r
            if has_battery:
                avail = (s - soc_min) * e_c / eta
                p_dis = min(deficit, p_lim, avail)
                if p_dis > 0.0:
                    p_bs = p_dis
                    deficit -= p_dis
            if deficit > 1e-9 and p_rated > 0.0:
                want = deficit / dg_eff
                if want < p_min:
                    want = p_min
                if want > p_rated:
                    want = p_rated
                p_dg = want
                extra = dg_eff * p_dg - deficit
                if extra > 0.0:
                    deficit = 0.0
                    if dg_may_charge and has_battery:
                        soc_now = s - p_bs * eta / e_c
                        room = (soc_max - soc_now) * e_c / eta
                        ch = min(extra, room, p_bs + p_lim)
                        if ch > 0.0:
                            p_bs -= ch
                            extra -= ch
                    dump = extra
                else:
                    deficit = -extra
            lost_dc = deficit if deficit > 1e-12 else 0.0

        if has_battery:
            soc = s - p_bs * eta / e_c
            if soc > soc_max:
                soc = soc_max
            elif soc < soc_min:
                soc = soc_min
            if p_bs > 1e-9:
                throughput += p_bs
                if last_dir < 0 and cycle_counting == "reversal":
                    cycles += 1
                last_dir = 1
            elif p_bs < -1e-9:
                last_dir = -1
            if cycle_counting == "throughput":
                cycles = throughput * eta / e_c

        p_dg_out[t] = p_dg
        p_bs_out[t] = p_bs
        soc_out[t] = soc
        dump_out[t] = dump
        lost_out[t] = lost_dc

        on = p_dg > 0.0
        online += on
        starts += on and not was_on
        was_on = on

    end = CascadeState(soc, cycles, throughput, last_dir > 0)
    return (*block, end, (online, starts))


def _year_python(design: Design, ctx: SimulationContext):
    """The oracle of an annual ``kernels.run``: the feed-in of
    ``renewable_feed_in``, the cascade of ``_cascade_python`` from a fresh
    bank, the lost load scaled to the customer (AC) side and numpy's sums.
    Returns the eight hourly rows, the final ``CascadeState`` and the
    ``kernels.CascadeTotals``."""
    feed_in, demand_dc, _ = ctx.hourly_inputs
    p_pv, p_wt, res_dc = renewable_feed_in(design, feed_in, ctx.pv, ctx.wind,
                                           ctx.converter)
    p_dg, p_bs, soc, dump, lost, end, (online, starts) = _cascade_python(
        res_dc, demand_dc, ctx.battery, design.e_b_init, ctx.generator,
        ctx.strategy.dg_may_charge_battery, ctx.converter.eta_rec,
        CascadeState(ctx.battery.soc_max), ctx.strategy.cycle_counting)
    lost *= ctx.converter.eta_inv
    # The five hourly rows are views of one block: one reduction sums them.
    energy, _, _, dump_kwh, lost_kwh = p_dg.base.sum(axis=1).tolist()
    totals = kernels.CascadeTotals(energy, dump_kwh, lost_kwh,
                                   float(res_dc.sum()), online, starts)
    return (p_pv, p_wt, res_dc, p_dg, p_bs, soc, dump, lost), end, totals


def year_run(ctx: SimulationContext):
    """``_year_python`` over the year of ``ctx`` with the arguments of
    ``kernels.run``, as ``simulate_year`` calls it."""
    def run(inputs, pv_units, wt_units, e_b_init, start):
        assert inputs is ctx.year_inputs
        assert start == CascadeState(ctx.battery.soc_max)
        return _year_python(Design(pv_units, wt_units, e_b_init,
                                   integer_counts=False), ctx)
    return run


def day_sum(hours) -> float:
    """``np.sum`` of a day's 24 hourly values, bit for bit: numpy adds them
    in eight interleaved partial sums, combines those pairwise and adds the
    total to 0.0."""
    r0, r1, r2, r3, r4, r5, r6, r7 = map(add, map(add, hours[:8], hours[8:16]),
                                         hours[16:24])
    return 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))


def _day_hours(day: kernels.DayInputs, block: np.ndarray,
               rows: np.ndarray | None = None) -> kernels.DayTotals:
    """The oracle of ``kernels.day_hours``: one pass over the hours of the
    schedule whose (2, 24) block of ``p_dg`` and ``p_bs`` is ``block``.  It
    gives the SOC knots, dump and lost load (the positive and negative
    parts of the DC-bus balance residual), generator online flags and the
    shortfall below the minimum output in an online hour, reduced to a
    ``DayTotals`` with the constraint residuals and the penalty.  Sums are
    taken in ``np.sum``'s order and extremes are Python's ``max`` and
    ``min``.  When ``rows`` is given it receives the 25 SOC knots, then the
    24 dump and lost hours."""
    p_dg, p_bs = block.tolist()
    eta_rec, eta_inv, p_min, tol = day.eta_rec, day.eta_inv, day.p_min, day.tol
    dump, lost, online = [], [], []
    semi = 0.0
    for p, b, r, d in zip(p_dg, p_bs, day.res, day.dem):
        net = r + eta_rec * p + b - d
        dump.append(net if net > 0.0 else 0.0)
        lost.append(-net * eta_inv if net < 0.0 else 0.0)
        on = p > tol
        online.append(on)
        if on and p_min - p > semi:
            semi = p_min - p
    knots = propagate_soc(day, p_bs)
    if rows is not None:
        rows[:25], rows[25:49], rows[49:] = knots, dump, lost
    lost_kwh = day_sum(lost)
    # Each residual is max(0.0, excess) written out: Python's max keeps the
    # first of the largest, so 0.0 unless an excess is above it (a NaN
    # excess is not).  x -> x - c rounds monotonically, so each excess is
    # the extreme value's.
    rated = max(p_dg) - day.p_rated
    rated = rated if rated > 0.0 else 0.0
    power = max(map(abs, p_bs)) - day.p_lim
    power = power if power > 0.0 else 0.0
    low, high = day.soc_min - min(knots), max(knots) - day.soc_max
    soc = low if low > 0.0 else 0.0
    soc = high if high > soc else soc
    over = economics.metrics_dpsp(lost_kwh, day.load_kwh) - day.dpsp_max
    over = over if over > 0.0 else 0.0
    return kernels.DayTotals(
        day_sum(p_dg), day_sum(dump), lost_kwh, sum(online),
        count_transitions(online), semi, rated, power, soc, over,
        day.mu * (semi + rated + power + 10.0 * soc + over))


def _doubles(address: int, n: int) -> np.ndarray:
    """The ``n`` doubles at ``address``, as an array over that memory."""
    return np.ctypeslib.as_array(
        ctypes.cast(address, ctypes.POINTER(ctypes.c_double)), (n,))


def day_hours(address: int, day: kernels.DayInputs,
              out: int | None) -> kernels.DayTotals:
    """``_day_hours`` with the arguments of ``kernels.day_hours``: the
    address of a schedule's block, the day and the address of the 73
    output rows, or None."""
    return _day_hours(day, _doubles(address, 48).reshape(2, 24),
                      None if out is None else _doubles(out, 73))
