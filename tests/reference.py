"""The Python oracles of the compiled kernels in ``_cascade.c``.

The package runs the kernels only; these are the loops they replaced, kept
here so that the tests can compare the two bit for bit:

- ``_run_python``, ``kernels.run`` over any horizon, with its arguments
  and results: ``renewable_feed_in``, the cascade hour by hour, with
  ``battery_capacity`` for its capacity fade, and numpy's sums;
- ``cascade`` and ``_cascade_python``, ``kernels.run`` and its oracle over
  a given DC-bus feed-in (``_given_feed_in``), with the arguments of the
  cascade's hypothesis cases;
- ``_day_hours``, ``kernels.day_hours`` over a schedule's (2, 24) block,
  with its SOC knots from ``dispatch.propagate_soc`` and its sums from
  ``day_sum``;
- ``day_score``, ``kernels.day_score``: ``day_hours``, then the price,
  objectives and search value computed by ``economics`` itself;
- ``day_hour``, ``kernels.day_hour``: one hour of a sweep of the dispatch
  search's coordinate descent, the Python loop the kernel replaced, which
  scores each candidate with ``day_score``;
- ``count_transitions``, how the kernels count a generator's starts.

``_run_python``, ``day_hours``, ``day_score`` and ``day_hour`` take the
arguments of the compiled calls, so that a test can put an oracle in a
kernel's place.
"""

import ctypes
from operator import add, gt
from types import SimpleNamespace

import numpy as np

from offgridopt import economics, kernels
from offgridopt.devices import (CAPACITY_FADE_FLOOR, BatterySpec,
                                GeneratorSpec, battery_power_limit)
from offgridopt.dispatch import propagate_soc
from offgridopt.errors import InputDataError
from offgridopt.kernels import CascadeState
from offgridopt.simulate import Design, FeedInProfile, renewable_feed_in


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


def _run_python(inputs: kernels.CascadeInputs, pv_units: float,
                wt_units: float, e_b_init: float, start: CascadeState):
    """The oracle of ``kernels.run``, with its arguments and results: the
    feed-in of ``renewable_feed_in`` from the record's profile, the cascade
    one Python iteration per hour, the lost load scaled to the customer
    (AC) side and numpy's sums.  Returns the (8, n) block of hourly rows,
    the final ``CascadeState`` and the ``kernels.CascadeTotals``."""
    demand_dc, *profile = inputs.arrays
    n = len(demand_dc)
    block = np.empty((8, n))
    block[:3] = renewable_feed_in(
        Design(pv_units, wt_units, e_b_init, integer_counts=False),
        FeedInProfile(*profile), SimpleNamespace(collector_area=inputs.pv_area),
        SimpleNamespace(rated_power=inputs.wt_rated),
        SimpleNamespace(eta_rec=inputs.eta_rec))
    res = memoryview(block[2])
    dem = memoryview(demand_dc)
    # the bank as battery_capacity and battery_power_limit read it
    battery = SimpleNamespace(
        fade_per_cycle=inputs.fade, rated_power_per_unit=inputs.unit_power,
        unit_energy=inputs.unit_energy,
        fixed_power_limit=bool(inputs.fixed_power_limit))
    assert inputs.fade_floor == CAPACITY_FADE_FLOOR

    eta = inputs.eta
    soc_min = inputs.soc_min
    soc_max = inputs.soc_max
    leak = inputs.leak
    has_battery = e_b_init > 0
    soc = start.soc
    cycles = start.cycles
    last_dir = 1 if start.discharging else -1
    throughput = start.throughput

    p_rated = inputs.p_rated
    p_min = inputs.p_min
    dg_eff = inputs.eta_rec
    dg_may_charge = inputs.dg_may_charge
    by_throughput = inputs.by_throughput
    online = starts = 0
    was_on = False

    p_dg_out, p_bs_out, soc_out, dump_out, lost_out = map(memoryview,
                                                          block[3:])

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
                if last_dir < 0 and not by_throughput:
                    cycles += 1
                last_dir = 1
            elif p_bs < -1e-9:
                last_dir = -1
            if by_throughput:
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

    block[7] *= inputs.eta_inv
    end = CascadeState(soc, cycles, throughput, last_dir > 0)
    # The rows are one block: one reduction sums them.
    _, _, res_kwh, energy, _, _, dump_kwh, lost_kwh = block.sum(axis=1).tolist()
    return block, end, kernels.CascadeTotals(energy, dump_kwh, lost_kwh,
                                             res_kwh, online, starts)


def _given_feed_in(run, res_dc: np.ndarray, demand_dc: np.ndarray,
                   battery: BatterySpec, e_b_init: float,
                   generator: GeneratorSpec, dg_may_charge: bool,
                   eta_rec: float, start: CascadeState, cycle_counting: str):
    """A run of ``run`` (``kernels.run`` or ``_run_python``) over the
    DC-bus feed-in ``res_dc``: it passes the feed-in as the irradiance, with
    cell efficiency 1, collector area 1, one PV unit, no wind and
    ``eta_inv`` 1.  Then p_pv is ``1.0 * 1.0 * 1.0 * r``, the wind adds
    ``eta_rec * 0.0``, which is 0.0, and the lost load is multiplied by 1.0,
    so the run sees ``res_dc`` itself for every finite feed-in >= +0.0
    (0.0 + -0.0 would be +0.0).  Returns the hourly rows p_dg, p_bs, soc,
    dump and lost load (DC), the final ``CascadeState`` and the generator's
    (online hours, starts)."""
    assert np.isfinite(res_dc).all() and not np.signbit(res_dc).any()
    n = len(res_dc)
    inputs = kernels.cascade_inputs(
        demand_dc, battery, generator, dg_may_charge, eta_rec, cycle_counting,
        profile=FeedInProfile(res_dc, np.ones(n), np.zeros(n)), pv_area=1.0,
        wt_rated=0.0, eta_inv=1.0)
    rows, end, totals = run(inputs, 1.0, 0.0, e_b_init, start)
    return (*rows[3:], end, (totals.online, totals.starts))


def cascade(**case):
    """The compiled cascade over a given feed-in (``_given_feed_in``)."""
    return _given_feed_in(kernels.run, **case)


def _cascade_python(**case):
    """The oracle of ``cascade``: ``_run_python`` over the given feed-in."""
    return _given_feed_in(_run_python, **case)


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


def day_score(address: int, day: kernels.DayInputs,
              out: kernels.DayEvaluation | None) -> float:
    """The oracle of ``kernels.day_score``, with its arguments: the hours
    pass of ``day_hours``, priced by ``economics`` from the constants of
    ``day`` (``operating_cost`` plus the daily fixed O&M,
    ``emissions_total``, ``objective_vector`` and ``weighted_objective``).
    Returns the search value, ``weighted + penalty``, and fills ``out``
    when it is given."""
    h = day_hours(address, day, None)
    gen = SimpleNamespace(
        kind="DE" if day.diesel else "MT", rated_power=day.p_rated,
        fuel_price=day.fuel_price, fuel_coeff_a=day.fuel_a,
        fuel_coeff_b=day.fuel_b, mt_fuel_slope=day.mt_slope,
        emission_factor_total=day.emission)
    costs = SimpleNamespace(
        om_var_dg_per_hour=day.om_hour, om_var_dg_per_kwh=day.om_kwh,
        startup_cost=day.startup, shutdown_cost=day.shutdown)
    c_daily = (economics.operating_cost(gen, costs, h.energy, h.online,
                                        h.starts) + day.fixed_om)
    objectives = economics.objective_vector(
        c_daily / day.load_kwh, economics.emissions_total(h.energy, gen),
        economics.BaselineMetrics(day.base_coe, day.base_em), h.lost,
        day.load_kwh, h.dump, day.res_kwh, h.energy, day.eta_rec)
    lcoe_norm, em_norm, dpsp, repg, one_minus_ref = objectives
    weighted = economics.weighted_objective(
        (lcoe_norm, em_norm, repg, one_minus_ref),
        economics.Weights(tuple(day.w)))
    value = weighted + h.penalty
    if out is not None:
        for name, v in zip(
                (name for name, _ in kernels.DayEvaluation._fields_),
                (*objectives, weighted, c_daily, h.semi, h.rated, h.power,
                 h.soc, h.over, value)):
            setattr(out, name, v)
    return value


def day_hour(address: int, day: kernels.DayInputs, t: int, scale: float,
             bar: ctypes.c_double) -> int:
    """The oracle of ``kernels.day_hour``, with its arguments: hour ``t`` of
    a sweep of ``dispatch._refine_continuous``, in place on the schedule's
    block at ``address``.  The generator's steps come first, in an online
    hour (``p_dg > 0``), within ``[p_min, p_rated]``; the battery's follow
    when it can move (``p_lim > 0``), within ``[-p_lim, p_lim]``.  Each step
    ``d * scale``, for ``d`` in (-4, -1, 1, 4), is clamped to the bounds; a
    step that moves the setpoint is written into the block and scored by
    ``day_score``, kept when its value is below ``bar``, which becomes that
    value - 1e-12, and undone otherwise.  Returns the number of candidates
    scored."""
    dg_row, bs_row = _doubles(address, 48).reshape(2, 24)
    steps = [d * scale for d in (-4.0, -1.0, 1.0, 4.0)]
    moves = [(dg_row, day.p_min, day.p_rated)] if dg_row[t] > 0 else []
    if day.p_lim > 0:
        moves.append((bs_row, -day.p_lim, day.p_lim))
    scored = 0
    for row, lower, upper in moves:
        x = float(row[t])
        for d in steps:
            # min(max(x + d, lower), upper), written out
            cand = x + d
            cand = lower if lower > cand else cand
            cand = upper if upper < cand else cand
            if cand == x:
                continue
            row[t] = cand
            value = day_score(address, day, None)
            scored += 1
            if value < bar.value:
                bar.value = value - 1e-12
                x = cand
            else:
                row[t] = x
    return scored
