/* Compiled twins of two Python loops, loaded by kernels.py, which also
 * defines the ctypes twins of the structs below:
 *   cascade    the load-following priority cascade (_cascade_python in
 *              simulate.py);
 *   day_hours  the pass over the 24 hours of a dispatch schedule
 *              (_day_hours in dispatch.py, with propagate_soc and day_sum
 *              there).
 *
 * Every statement does the same IEEE double operations in the same order
 * as the Python loop, so both kernels give bit-identical results.  That
 * holds only when the compiler neither fuses a multiply and an add nor
 * reassociates: build with -ffp-contract=off and without -ffast-math.
 */

#include <math.h>
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
                const double room = (soc_max - s) * e_c / eta;
                const double p_ch = min3(surplus, p_lim, room);
                if (p_ch > 0.0) {
                    p_bs = -p_ch;
                    surplus -= p_ch;
                }
            }
            dump = surplus;
        } else {
            double deficit = d - r;
            if (has_battery) {
                const double avail = (s - soc_min) * e_c / eta;
                const double p_dis = min3(deficit, p_lim, avail);
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
            soc = s - p_bs * eta / e_c;
            if (soc > soc_max)
                soc = soc_max;
            else if (soc < soc_min)
                soc = soc_min;
            if (p_bs > 1e-9) {
                throughput += p_bs;
                if (last_dir < 0 && !by_throughput)
                    cycles += 1.0;
                last_dir = 1;
            } else if (p_bs < -1e-9) {
                last_dir = -1;
            }
            if (by_throughput)
                cycles = throughput * eta / e_c;
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
