/* The package's compiled kernels, its only implementation of them: the
 * package needs a C compiler, and kernels.py builds this file with cc and
 * loads it on import.  kernels.py also defines the ctypes twins of the
 * structs below.
 *   cascade    the load-following priority cascade; over a year it also
 *              forms the renewable feed-in and the annual sums;
 *   day_hours  the pass over the 24 hours of a dispatch schedule and the
 *              constraint residuals and penalty it leaves; the dispatch
 *              search rejects a candidate on the penalty before it prices
 *              it, and prices stay in Python.
 *
 * Each kernel has a Python oracle in tests/reference.py, which the tests
 * compare with it bit for bit: _cascade_python and _year_python for
 * cascade, _day_hours (with dispatch.propagate_soc and day_sum) for
 * day_hours.  Every operation the C code performs is the one the oracle
 * performs, with the same IEEE double operands in the same order.  The C
 * code skips an operation only where a comment next to it shows that the
 * result cannot change any output.  That holds only when the compiler
 * neither fuses a multiply and an add nor reassociates: build with
 * -ffp-contract=off and without -ffast-math.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Battery state carried from one run into the next. */
typedef struct {
    double soc;          /* state of charge [fraction] */
    double cycles;       /* cycles counted so far */
    double throughput;   /* discharged DC energy counted so far [kWh] */
    int discharging;     /* the last battery move was a discharge */
} cascade_state;

/* Python's min(a, b, c): the first of the smallest values. */
static double min3(double a, double b, double c)
{
    double m = a;
    if (b < m)
        m = b;
    if (c < m)
        m = c;
    return m;
}

/* min3(want, p_lim, x / eta) for x = (soc_max - s) * e_c, the room left to
 * charge, or x = (s - soc_min) * e_c, the energy left to discharge, with
 * the division skipped when it cannot change the result.
 *
 * When 0 < eta <= 1 (eta_exact) and x >= m > 0, where m is what min3 holds
 * after its first two operands, the exact quotient x / eta is at least x;
 * rounding to nearest is monotone and x is a double, so the rounded
 * quotient is at least x >= m.  min3 replaces m only on a strict "<", so it
 * returns m, bit for bit.  When x >= m but m <= 0, the result is at most
 * m <= 0 either way, and the callers use it only when it is > 0.  Any
 * compare with a NaN is false, so a NaN x or m takes the division. */
static double min3_by_eta(double want, double p_lim, double x, double eta,
                          int eta_exact)
{
    double m = want;
    if (p_lim < m)
        m = p_lim;
    if (eta_exact && x >= m)
        return m;
    const double room = x / eta;
    if (room < m)
        m = room;
    return m;
}

/* The clamped SOC after an hour that starts at s and moves p_bs [kW] into
 * (p_bs < 0) or out of a bank of capacity e_c [kWh]. */
static double soc_after(double s, double p_bs, double e_c, double eta,
                        double soc_min, double soc_max)
{
    double soc = s - p_bs * eta / e_c;
    if (soc > soc_max)
        soc = soc_max;
    else if (soc < soc_min)
        soc = soc_min;
    return soc;
}

/* The bits of a double: equal bits mean the same double, so a key compared
 * this way tells -0.0 from +0.0, and a NaN matches only the same NaN. */
static uint64_t bits(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u;
}

/* What a run reads besides the design and the start state: the horizon,
 * the hourly inputs and the constants of the battery, the generator and
 * the converter.  The arrays are read by address and stay the caller's.
 * A SimulationContext fills one record for its year (year_inputs in
 * simulate.py); a run over given feed-in (kernels.cascade) fills one per
 * call. */
typedef struct {
    long n;                 /* hours */
    const double *res;      /* DC-bus renewable feed-in [kW], or NULL: formed
                               from the design and the three factors below */
    const double *dem;      /* DC-bus demand [kW] */
    const double *irr;      /* irradiance [kW/m2] */
    const double *pv_eta;   /* PV cell efficiency */
    const double *wt_frac;  /* output of one turbine / its rated power */
    double pv_area;         /* collector area of one PV unit [m2] */
    double wt_rated;        /* rated power of one turbine [kW] */
    double eta_rec;         /* rectifier efficiency of wind and generator */
    double eta_inv;         /* the lost load's factor: inverter efficiency,
                               or 1 to keep it on the DC bus */
    double eta;             /* battery round-trip efficiency */
    double soc_min;
    double soc_max;
    double leak;            /* hourly self-discharge */
    double fade;            /* capacity lost per cycle [fraction] */
    double fade_floor;      /* capacity where fading stops [fraction] */
    double unit_power;      /* power limit of one battery unit [kW] */
    double unit_energy;     /* energy of one battery unit [kWh] */
    double p_rated;         /* generator rated output [kW] */
    double p_min;           /* generator minimum output when online [kW] */
    int fixed_power_limit;  /* the power limit does not fade */
    int dg_may_charge;      /* forced generator surplus charges the bank */
    int by_throughput;      /* count cycles by throughput, not reversals */
} cascade_inputs;

/* What the hours of a run add up to. */
typedef struct {
    double energy;          /* sum of p_dg [kWh] */
    double dump;            /* sum of the dump row [kWh] */
    double lost;            /* sum of the lost row [kWh] */
    double res;             /* sum of the feed-in [kWh] */
    long online;            /* generator online hours */
    long starts;            /* generator starts */
} cascade_totals;

/* numpy's pairwise summation of n contiguous doubles (pairwise_sum in its
 * add loop), for n <= 128: fewer than 8 values are added in order to -0.0;
 * more go into eight interleaved partial sums, combined pairwise, and the
 * values left over are added in order. */
static inline double block_sum(const double *a, long n)
{
    if (n < 8) {
        double s = -0.0;
        for (long i = 0; i < n; i++)
            s += a[i];
        return s;
    }
    double r[8];
    long i;
    for (int j = 0; j < 8; j++)
        r[j] = a[j];
    for (i = 8; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += a[i + j];
    double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        s += a[i];
    return s;
}

/* The same for any n: a stretch longer than 128 is split at half its
 * length rounded down to a multiple of 8. */
static double pairwise(const double *a, long n)
{
    if (n <= 128)
        return block_sum(a, n);
    long half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* np.sum of n contiguous doubles, bit for bit: the pairwise sum added to
 * the reduction's start value 0.0. */
static inline double np_sum(const double *a, long n)
{
    return 0.0 + (n <= 128 ? block_sum(a, n) : pairwise(a, n));
}

/* Run in->n hours from *state, leave the final state there and return the
 * totals.  Without in->res the feed-in is formed from the design's unit
 * counts, as renewable_feed_in forms it, and out is a row-major (8, n)
 * block that receives the per-hour p_pv, p_wt, feed-in, p_dg, p_bs, soc,
 * dump and lost rows; with in->res, out is a (5, n) block of the last
 * five.  The generator's online hours and starts count p_dg > 0: the unit
 * starts the horizon off, so an hour starts it when it is on and the hour
 * before was off.  Every start has its stop (count_transitions in
 * tests/reference.py).  Each sum is np.sum's of its row. */
cascade_totals cascade(const cascade_inputs *in, double pv_units,
                       double wt_units, double e_b_init, cascade_state *state,
                       double *out)
{
    /* The constants as locals: read through in, they would be loaded again
     * after every store to out, which may alias them as far as the
     * compiler knows. */
    const long n = in->n;
    const double *const res = in->res, *const dem = in->dem;
    const double *const irr = in->irr, *const pv_eta = in->pv_eta;
    const double *const wt_frac = in->wt_frac;
    const double pv_area = in->pv_area, eta_rec = in->eta_rec;
    const double eta_inv = in->eta_inv, eta = in->eta;
    const double soc_min = in->soc_min, soc_max = in->soc_max;
    const double leak = in->leak, fade = in->fade;
    const double fade_floor = in->fade_floor;
    const double unit_power = in->unit_power, unit_energy = in->unit_energy;
    const double p_rated = in->p_rated, p_min = in->p_min, dg_eff = eta_rec;
    const int fixed_power_limit = in->fixed_power_limit;
    const int dg_may_charge = in->dg_may_charge;
    const int by_throughput = in->by_throughput;
    /* renewable_feed_in's product n_w * rated, a Python float */
    const double wt_kw = wt_units * in->wt_rated;

    const int has_battery = e_b_init > 0.0;
    double soc = state->soc;
    double cycles = state->cycles;
    double throughput = state->throughput;
    int last_dir = state->discharging ? 1 : -1;
    double *const p_pv_out = out, *const p_wt_out = out + n;
    double *const res_out = out + 2 * n;
    double *const p_dg_out = res ? out : out + 3 * n;
    double *const p_bs_out = p_dg_out + n, *const soc_out = p_dg_out + 2 * n;
    double *const dump_out = p_dg_out + 3 * n;
    double *const lost_out = p_dg_out + 4 * n;
    long online = 0, starts = 0;
    int was_on = 0;
    /* See min3_by_eta. */
    const int eta_exact = eta > 0.0 && eta <= 1.0;
    /* The faded capacity e_c and the power limit p_lim, and the bits of
     * the cycle count they were computed from, which start as the
     * complement of the start count's bits, so the first hour computes
     * them.  Both are functions of the cycle count and of this call's
     * constants, so a count with the same bits gives the same e_c and
     * p_lim, bit for bit, and they are computed again only when the bits
     * of the count change.  Counting reversals, the count moves only in
     * the hour a discharge starts. */
    uint64_t faded_at = ~bits(cycles);
    double e_c = 0.0, p_lim = 0.0;
    /* The inputs (s, p_bs, e_c) of the last SOC update computed, and its
     * result, which starts as the update of (soc_max, 0, 1).  soc_after is
     * a function of its inputs and of this call's constants, so inputs with
     * the same bits give the same SOC, bit for bit, and the memo may stand
     * in for the update.  Bits, not "==", decide, so no case rests on the
     * sign of a zero.  p_bs is never -0.0 here: it is 0.0, -p_ch or p_dis
     * with p_ch, p_dis > 0, or p_dis - ch, which is +0.0 when it is zero.
     * A p_bs of -0.0 would give the SOC of +0.0 for every s but -0.0, whose
     * s - 0.0 * eta / e_c is -0.0 while s - (-0.0) * eta / e_c is +0.0.
     * When the bank sits full or empty the inputs repeat, and a compare the
     * branch predictor gets right takes the place of a multiply, a division
     * and the clamps on the chain from one hour's SOC to the next. */
    uint64_t memo_s = bits(soc_max), memo_p = bits(0.0), memo_e = bits(1.0);
    double memo_soc = soc_after(soc_max, 0.0, 1.0, eta, soc_min, soc_max);
    /* The inputs (throughput, e_c) of the last throughput cycle count
     * computed, and its result, which starts as the count of (0, 1).  The
     * count throughput * eta / e_c is a function of its inputs and of this
     * call's eta, so inputs with the same bits give the same count, bit for
     * bit, and the memo may stand in for it.  The throughput moves only in
     * a discharging hour and e_c only in the hour after the count moved,
     * so in the other hours a predicted compare takes the place of a
     * multiply and a division on the chain from one hour's cycles to the
     * next hour's e_c. */
    uint64_t count_t = bits(0.0), count_e = bits(1.0);
    double count = 0.0 * eta / 1.0;

    for (long t = 0; t < n; t++) {
        double r;
        if (res) {
            r = res[t];
        } else {
            /* renewable_feed_in: ((n_s * eta) * area) * irr,
             * (n_w * rated) * frac and eta_rec * p_wt + p_pv */
            const double p_pv = pv_units * pv_eta[t] * pv_area * irr[t];
            const double p_wt = wt_kw * wt_frac[t];
            r = eta_rec * p_wt + p_pv;
            p_pv_out[t] = p_pv;
            p_wt_out[t] = p_wt;
            res_out[t] = r;
        }
        const double d = dem[t];
        double p_dg = 0.0;
        double p_bs = 0.0;
        double dump = 0.0;
        double lost_dc = 0.0;
        double s;

        if (has_battery) {
            if (bits(cycles) != faded_at) {
                e_c = e_b_init * (1.0 - cycles * fade);
                if (e_c < fade_floor * e_b_init)
                    e_c = fade_floor * e_b_init;
                p_lim = fixed_power_limit ? unit_power
                                          : unit_power * e_c / unit_energy;
                faded_at = bits(cycles);
            }
            s = (1.0 - leak) * soc;
            if (s < soc_min)
                s = soc_min;
        } else {
            s = soc;
        }

        if (r >= d) {
            double surplus = r - d;
            if (has_battery && surplus > 0.0) {
                const double p_ch = min3_by_eta(
                    surplus, p_lim, (soc_max - s) * e_c, eta, eta_exact);
                if (p_ch > 0.0) {
                    p_bs = -p_ch;
                    surplus -= p_ch;
                }
            }
            dump = surplus;
        } else {
            double deficit = d - r;
            if (has_battery) {
                const double p_dis = min3_by_eta(
                    deficit, p_lim, (s - soc_min) * e_c, eta, eta_exact);
                if (p_dis > 0.0) {
                    p_bs = p_dis;
                    deficit -= p_dis;
                }
            }
            if (deficit > 1e-9 && p_rated > 0.0) {
                double want = deficit / dg_eff;
                if (want < p_min)
                    want = p_min;
                if (want > p_rated)
                    want = p_rated;
                p_dg = want;
                double extra = dg_eff * p_dg - deficit;
                if (extra > 0.0) {
                    deficit = 0.0;
                    if (dg_may_charge && has_battery) {
                        const double soc_now = s - p_bs * eta / e_c;
                        const double room = (soc_max - soc_now) * e_c / eta;
                        const double ch = min3(extra, room, p_bs + p_lim);
                        if (ch > 0.0) {
                            p_bs -= ch;
                            extra -= ch;
                        }
                    }
                    dump = extra;
                } else {
                    deficit = -extra;
                }
            }
            lost_dc = deficit > 1e-12 ? deficit : 0.0;
        }

        if (has_battery) {
            if (bits(s) == memo_s && bits(p_bs) == memo_p
                && bits(e_c) == memo_e) {
                soc = memo_soc;
            } else {
                soc = soc_after(s, p_bs, e_c, eta, soc_min, soc_max);
                memo_s = bits(s);
                memo_p = bits(p_bs);
                memo_e = bits(e_c);
                memo_soc = soc;
            }
            if (p_bs > 1e-9) {
                throughput += p_bs;
                if (last_dir < 0 && !by_throughput)
                    cycles += 1.0;
                last_dir = 1;
            } else if (p_bs < -1e-9) {
                last_dir = -1;
            }
            if (by_throughput) {
                if (bits(throughput) != count_t || bits(e_c) != count_e) {
                    count = throughput * eta / e_c;
                    count_t = bits(throughput);
                    count_e = bits(e_c);
                }
                cycles = count;
            }
        }

        p_dg_out[t] = p_dg;
        p_bs_out[t] = p_bs;
        soc_out[t] = soc;
        dump_out[t] = dump;
        /* simulate_year's lost *= eta_inv.  With eta_inv 1 the product is
         * lost_dc itself: x * 1.0 is x for every double but a NaN, and
         * lost_dc is never NaN (a NaN deficit fails the compare). */
        lost_out[t] = lost_dc * eta_inv;

        const int on = p_dg > 0.0;
        online += on;
        starts += on && !was_on;
        was_on = on;
    }

    state->soc = soc;
    state->cycles = cycles;
    state->throughput = throughput;
    state->discharging = last_dir > 0;
    cascade_totals totals = {
        np_sum(p_dg_out, n), np_sum(dump_out, n), np_sum(lost_out, n),
        np_sum(res ? res : res_out, n), online, starts};
    return totals;
}


/* The inputs that every schedule of one dispatch day shares. */
typedef struct {
    double res[24];      /* DC-bus renewable feed-in [kW] */
    double dem[24];      /* DC-bus demand [kW] */
    double eta_rec;      /* rectifier efficiency of the generator output */
    double eta_inv;      /* inverter efficiency, DC shortfall to AC load */
    double p_min;        /* generator minimum output [kW] */
    double tol;          /* an hour is online when its p_dg exceeds this */
    double soc_start;    /* SOC before the first hour */
    double cap;          /* battery capacity [kWh]; none when <= 0 */
    double keep;         /* 1 - hourly self-discharge */
    double eta;          /* battery round-trip efficiency */
    double p_rated;      /* generator rated output [kW] */
    double p_lim;        /* battery power limit [kW]; 0 without a battery */
    double soc_min;      /* the SOC window */
    double soc_max;
    double load_kwh;     /* the day's load [kWh], > 0 */
    double dpsp_max;     /* the largest lost-load share allowed */
    double mu;           /* weight of the residuals in the search value */
} day_inputs;

/* What the hours of a schedule add up to, and the constraint residuals
 * they leave, each max(0, excess) and 0 when the excess is NaN. */
typedef struct {
    double energy;       /* sum of p_dg [kWh] */
    double dump;         /* sum of the DC-bus surplus [kWh] */
    double lost;         /* sum of the AC load not served [kWh] */
    long online;         /* online hours */
    long starts;         /* generator starts */
    double semi;         /* largest shortfall below p_min in an online hour */
    double rated;        /* largest p_dg above p_rated */
    double power;        /* largest |p_bs| above p_lim */
    double soc;          /* largest SOC knot outside the window */
    double over;         /* lost-load share above dpsp_max */
    double penalty;      /* mu * (semi + rated + power + 10 soc + over) */
} day_totals;

/* x if x > 0, else 0.0: Python's max(0.0, x), which keeps the first of
 * the largest, so 0.0 unless x is above it (a NaN x is not). */
static inline double excess(double x)
{
    return x > 0.0 ? x : 0.0;
}

/* One pass over the 24 hours of a schedule, a row-major (2, 24) block of
 * p_dg and p_bs.  Maxima and minima are Python's max and min: the first of
 * the extreme values.  x -> x - c rounds monotonically, so the excess of
 * an extreme value is the largest excess.  When rows is not NULL it
 * receives the 25 SOC knots, then the 24 dump and the 24 lost-load hours. */
day_totals day_hours(const double *schedule, const day_inputs *day,
                     double *rows)
{
    const double *p_dg = schedule, *p_bs = schedule + 24;
    double soc[25], dump[24], lost[24];
    day_totals out = {0};
    int was_on = 0;

    double p_dg_max = p_dg[0];
    double p_bs_max = fabs(p_bs[0]);
    for (int t = 0; t < 24; t++) {
        const double p = p_dg[t];
        const double net = day->res[t] + day->eta_rec * p + p_bs[t]
                           - day->dem[t];
        dump[t] = net > 0.0 ? net : 0.0;
        lost[t] = net < 0.0 ? -net * day->eta_inv : 0.0;
        const int on = p > day->tol;
        out.online += on;
        out.starts += on && !was_on;
        was_on = on;
        if (on && day->p_min - p > out.semi)
            out.semi = day->p_min - p;
        if (p > p_dg_max)
            p_dg_max = p;
        if (fabs(p_bs[t]) > p_bs_max)
            p_bs_max = fabs(p_bs[t]);
    }

    /* propagate_soc in dispatch.py: battery_step with dt = 1 */
    soc[0] = day->soc_start;
    for (int t = 0; t < 24; t++)
        soc[t + 1] = day->cap <= 0.0 ? soc[t]
                     : day->keep * soc[t] - p_bs[t] * day->eta / day->cap;
    double soc_lo = soc[0], soc_hi = soc[0];
    for (int t = 1; t < 25; t++) {
        if (soc[t] < soc_lo)
            soc_lo = soc[t];
        if (soc[t] > soc_hi)
            soc_hi = soc[t];
    }

    /* np.sum of 24 values: day_sum in tests/reference.py */
    out.energy = np_sum(p_dg, 24);
    out.dump = np_sum(dump, 24);
    out.lost = np_sum(lost, 24);

    out.rated = excess(p_dg_max - day->p_rated);
    out.power = excess(p_bs_max - day->p_lim);
    const double high = soc_hi - day->soc_max;
    out.soc = excess(day->soc_min - soc_lo);
    if (high > out.soc)
        out.soc = high;
    /* the DPSP, lost / load as economics.metrics_dpsp divides */
    out.over = excess(out.lost / day->load_kwh - day->dpsp_max);
    out.penalty = day->mu * (out.semi + out.rated + out.power
                             + 10.0 * out.soc + out.over);
    if (rows) {
        memcpy(rows, soc, sizeof soc);
        memcpy(rows + 25, dump, sizeof dump);
        memcpy(rows + 49, lost, sizeof lost);
    }
    return out;
}
