/* Compiled twins of two Python loops, loaded by kernels.py, which also
 * defines the ctypes twins of the structs below:
 *   cascade    the load-following priority cascade (_cascade_python in
 *              simulate.py);
 *   day_hours  the pass over the 24 hours of a dispatch schedule
 *              (_day_hours in dispatch.py, with propagate_soc and day_sum
 *              there).
 *
 * Both kernels give bit-identical results.  Every operation the C code
 * performs is the one the Python loop performs, with the same IEEE double
 * operands in the same order.  The C code skips an operation only where a
 * comment next to it shows that the result cannot change any output.  That
 * holds only when the compiler neither fuses a multiply and an add nor
 * reassociates: build with -ffp-contract=off and without -ffast-math.
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

/* Run n hours from *state and leave the final state there.  res and dem are
 * DC-bus renewable feed-in and demand.  out is a row-major (5, n) block that
 * receives the per-hour p_dg, p_bs, soc, dump and lost rows.  counts
 * receives the generator's online hours and starts: the unit starts the
 * horizon off, so an hour starts it when it is on and the hour before was
 * off.  Every start has its stop (count_transitions in simulate.py). */
void cascade(long n, const double *res, const double *dem,
             double e_b_init, double eta, double soc_min, double soc_max,
             double leak, double fade, double fade_floor,
             int fixed_power_limit, double unit_power, double unit_energy,
             double p_rated, double p_min, double dg_eff, int dg_may_charge,
             int by_throughput, cascade_state *state, double *out,
             long *counts)
{
    const int has_battery = e_b_init > 0.0;
    double soc = state->soc;
    double cycles = state->cycles;
    double throughput = state->throughput;
    int last_dir = state->discharging ? 1 : -1;
    double *p_dg_out = out, *p_bs_out = out + n, *soc_out = out + 2 * n;
    double *dump_out = out + 3 * n, *lost_out = out + 4 * n;
    long online = 0, starts = 0;
    int was_on = 0;
    /* See min3_by_eta. */
    const int eta_exact = eta > 0.0 && eta <= 1.0;
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
        const double r = res[t];
        const double d = dem[t];
        double p_dg = 0.0;
        double p_bs = 0.0;
        double dump = 0.0;
        double lost_dc = 0.0;
        double e_c, p_lim, s;

        if (has_battery) {
            e_c = e_b_init * (1.0 - cycles * fade);
            const double floor = fade_floor * e_b_init;
            if (e_c < floor)
                e_c = floor;
            p_lim = fixed_power_limit ? unit_power
                                      : unit_power * e_c / unit_energy;
            s = (1.0 - leak) * soc;
            if (s < soc_min)
                s = soc_min;
        } else {
            e_c = 0.0;
            p_lim = 0.0;
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
        lost_out[t] = lost_dc;

        const int on = p_dg > 0.0;
        online += on;
        starts += on && !was_on;
        was_on = on;
    }

    state->soc = soc;
    state->cycles = cycles;
    state->throughput = throughput;
    state->discharging = last_dir > 0;
    counts[0] = online;
    counts[1] = starts;
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
} day_inputs;

/* What the hours of a schedule add up to. */
typedef struct {
    double energy;       /* sum of p_dg [kWh] */
    double dump;         /* sum of the DC-bus surplus [kWh] */
    double lost;         /* sum of the AC load not served [kWh] */
    long online;         /* online hours */
    long starts;         /* generator starts */
    double semicont;     /* largest shortfall below p_min in an online hour */
    double p_dg_max;     /* largest p_dg */
    double p_bs_max;     /* largest |p_bs| */
    double soc_min;      /* smallest of the 25 SOC knots */
    double soc_max;      /* largest of the 25 SOC knots */
} day_totals;

/* np.sum of 24 values (day_sum in dispatch.py): eight interleaved partial
 * sums, combined pairwise, the total added to 0.0. */
static double day_sum(const double *h)
{
    double r[8];
    for (int i = 0; i < 8; i++)
        r[i] = (h[i] + h[i + 8]) + h[i + 16];
    return 0.0 + (((r[0] + r[1]) + (r[2] + r[3]))
                  + ((r[4] + r[5]) + (r[6] + r[7])));
}

/* One pass over the 24 hours of a schedule, a row-major (2, 24) block of
 * p_dg and p_bs.  Maxima and minima are Python's max and min: the first of
 * the extreme values.  When rows is not NULL it receives the 25 SOC knots,
 * then the 24 dump and the 24 lost-load hours. */
day_totals day_hours(const double *schedule, const day_inputs *day,
                     double *rows)
{
    const double *p_dg = schedule, *p_bs = schedule + 24;
    double soc[25], dump[24], lost[24];
    day_totals out = {0};
    int was_on = 0;

    out.p_dg_max = p_dg[0];
    out.p_bs_max = fabs(p_bs[0]);
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
        if (on && day->p_min - p > out.semicont)
            out.semicont = day->p_min - p;
        if (p > out.p_dg_max)
            out.p_dg_max = p;
        if (fabs(p_bs[t]) > out.p_bs_max)
            out.p_bs_max = fabs(p_bs[t]);
    }

    /* propagate_soc in dispatch.py: battery_step with dt = 1 */
    soc[0] = day->soc_start;
    for (int t = 0; t < 24; t++)
        soc[t + 1] = day->cap <= 0.0 ? soc[t]
                     : day->keep * soc[t] - p_bs[t] * day->eta / day->cap;
    out.soc_min = out.soc_max = soc[0];
    for (int t = 1; t < 25; t++) {
        if (soc[t] < out.soc_min)
            out.soc_min = soc[t];
        if (soc[t] > out.soc_max)
            out.soc_max = soc[t];
    }

    out.energy = day_sum(p_dg);
    out.dump = day_sum(dump);
    out.lost = day_sum(lost);
    if (rows) {
        memcpy(rows, soc, sizeof soc);
        memcpy(rows + 25, dump, sizeof dump);
        memcpy(rows + 49, lost, sizeof lost);
    }
    return out;
}
