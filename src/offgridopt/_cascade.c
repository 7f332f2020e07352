/* The package's compiled kernels, its only implementation of them: the
 * package needs a C compiler, and kernels.py builds this file with cc and
 * loads it on import.  kernels.py also defines the ctypes twins of the
 * structs below.
 *   cascade    the load-following priority cascade over any horizon, a
 *              year or a dispatch day: it forms the renewable feed-in from
 *              the design and the hourly profile and sums the hours;
 *   price      the lifecycle price of a horizon's totals, a design's year
 *              or the annual generator-only baseline;
 *   day_prices a dispatch day's share of the fixed O&M and its baseline;
 *   day_hours  the pass over the 24 hours of a dispatch schedule and the
 *              constraint residuals and penalty it leaves;
 *   day_score  day_hours, then the schedule's price, objectives and search
 *              value: one call scores a dispatch candidate;
 *   day_refine the dispatch search's coordinate descent over one ON
 *              pattern: its sweeps, which step each hour's setpoints and
 *              score each candidate with day_score, the early stop and the
 *              refined schedule's evaluation, one call per pattern.
 *
 * This file is the one definition of the pricing: each law (fuel, O&M,
 * switching, capital, the present worths, the objective vector) is one
 * static helper, which price, day_prices and day_score share.  Each kernel
 * has a Python oracle of the same name in tests/reference.py, which the
 * tests compare with it bit for bit (_run_python for cascade, with
 * _day_hours for day_hours).  Every operation
 * the C code performs is the one the oracle performs, with the same IEEE
 * double operands in the same order; pow, log1p and exp are libm's, which
 * Python's float ** and math.log1p and math.exp call.  The C code skips an
 * operation only where a comment next to it shows that the result cannot
 * change any output.  That holds only when the compiler neither fuses a
 * multiply and an add nor reassociates: build with -ffp-contract=off and
 * without -ffast-math.
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
 * A SimulationContext fills one record for its horizon (year_inputs in
 * simulate.py). */
typedef struct {
    long n;                 /* hours */
    const double *dem;      /* DC-bus demand [kW] */
    const double *irr;      /* irradiance [kW/m2] */
    const double *pv_eta;   /* PV cell efficiency */
    const double *wt_frac;  /* output of one turbine / its rated power */
    double pv_area;         /* collector area of one PV unit [m2] */
    double wt_rated;        /* rated power of one turbine [kW] */
    double eta_rec;         /* rectifier efficiency of wind and generator */
    double eta_inv;         /* inverter efficiency, DC shortfall to AC load */
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

/* The faded capacity *e_c of a bank of e_b_init [kWh] after `cycles`
 * cycles, floored at fade_floor * e_b_init, and its power limit *p_lim. */
static inline void fade_to(double cycles, double e_b_init, double fade,
                           double fade_floor, int fixed_power_limit,
                           double unit_power, double unit_energy, double *e_c,
                           double *p_lim)
{
    double e = e_b_init * (1.0 - cycles * fade);
    if (e < fade_floor * e_b_init)
        e = fade_floor * e_b_init;
    *e_c = e;
    *p_lim = fixed_power_limit ? unit_power : unit_power * e / unit_energy;
}

/* Run in->n hours from *state, leave the final state there and return the
 * totals.  The feed-in is formed from the design's unit counts, as
 * renewable_feed_in forms it, and out is a row-major (8, n) block that
 * receives the per-hour p_pv, p_wt, feed-in, p_dg, p_bs, soc, dump and
 * lost rows.  The generator's online hours and starts count p_dg > 0: the
 * unit starts the horizon off, so an hour starts it when it is on and the
 * hour before was off.  Every start has its stop (count_transitions in
 * tests/reference.py).  Each sum is np.sum's of its row. */
cascade_totals cascade(const cascade_inputs *in, double pv_units,
                       double wt_units, double e_b_init, cascade_state *state,
                       double *out)
{
    /* The constants as locals: read through in, they would be loaded again
     * after every store to out, which may alias them as far as the
     * compiler knows. */
    const long n = in->n;
    const double *const dem = in->dem;
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
    double *const p_dg_out = out + 3 * n, *const p_bs_out = out + 4 * n;
    double *const soc_out = out + 5 * n, *const dump_out = out + 6 * n;
    double *const lost_out = out + 7 * n;
    long online = 0, starts = 0;
    int was_on = 0;
    /* See min3_by_eta. */
    const int eta_exact = eta > 0.0 && eta <= 1.0;
    /* The faded capacity e_c and the power limit p_lim.  Both are
     * functions of the cycle count and of this call's constants, so they
     * are computed where the count is set, from the start count here and
     * after each change below, and an hour reads the ones its count gave.
     * Counting reversals, the count moves only in the hour a discharge
     * starts; counting throughput, only in an hour the count is computed
     * again. */
    double e_c = 0.0, p_lim = 0.0;
    if (has_battery)
        fade_to(cycles, e_b_init, fade, fade_floor, fixed_power_limit,
                unit_power, unit_energy, &e_c, &p_lim);
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
     * computed, which the first hour always computes.  The count
     * throughput * eta / e_c is a function of its inputs and of this call's
     * eta, so inputs with the same bits give the same count, bit for bit:
     * an hour whose inputs repeat the last ones keeps the count, which
     * every hour after the first left in cycles.  The throughput moves only
     * in a discharging hour and e_c only in the hour after the count moved,
     * so in the other hours a predicted compare takes the place of a
     * multiply and a division on the chain from one hour's cycles to the
     * next hour's e_c, and of the capacity's fade. */
    uint64_t count_t = 0, count_e = 0;

    for (long t = 0; t < n; t++) {
        /* renewable_feed_in: ((n_s * eta) * area) * irr,
         * (n_w * rated) * frac and eta_rec * p_wt + p_pv */
        const double p_pv = pv_units * pv_eta[t] * pv_area * irr[t];
        const double p_wt = wt_kw * wt_frac[t];
        const double r = eta_rec * p_wt + p_pv;
        p_pv_out[t] = p_pv;
        p_wt_out[t] = p_wt;
        res_out[t] = r;
        const double d = dem[t];
        double p_dg = 0.0;
        double p_bs = 0.0;
        double dump = 0.0;
        double lost_dc = 0.0;
        double s;

        if (has_battery) {
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
                if (last_dir < 0 && !by_throughput) {
                    cycles += 1.0;
                    fade_to(cycles, e_b_init, fade, fade_floor,
                            fixed_power_limit, unit_power, unit_energy, &e_c,
                            &p_lim);
                }
                last_dir = 1;
            } else if (p_bs < -1e-9) {
                last_dir = -1;
            }
            if (by_throughput && (bits(throughput) != count_t
                                  || bits(e_c) != count_e || t == 0)) {
                cycles = throughput * eta / e_c;
                count_t = bits(throughput);
                count_e = bits(e_c);
                fade_to(cycles, e_b_init, fade, fade_floor, fixed_power_limit,
                        unit_power, unit_energy, &e_c, &p_lim);
            }
        }

        p_dg_out[t] = p_dg;
        p_bs_out[t] = p_bs;
        soc_out[t] = soc;
        dump_out[t] = dump;
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
        np_sum(res_out, n), online, starts};
    return totals;
}


/* The design-independent constants that price a horizon, which
 * economics.prices fills from the specs: the financial parameters and
 * their CRF, the cost table and the generator. */
typedef struct {
    double crf, nominal_rate, inflation, years;  /* CRF; i, f per year; T */
    /* capital [$/kW, $/kWh], the converter's [$] and the share of the
     * capital a replacement costs */
    double pv_capital, wt_capital, bs_capital, dg_capital, converter;
    double bs_replacement, dg_replacement;
    double om_pv, om_wt, om_bs, om_dg;  /* fixed O&M [capital share / yr] */
    double om_hour, om_kwh;  /* variable O&M: DE [$/h online], MT [$/kWh] */
    double startup, shutdown;  /* [$] per start, per stop */
    double p_rated;          /* generator rated output [kW] */
    double fuel_price;       /* [$/gal diesel] or [$/MMBtu gas] */
    double fuel_a, fuel_b;   /* diesel burn on output, on rating [L/kWh] */
    double gallon;           /* litres per US gallon */
    double mt_slope;         /* microturbine burn on output [MMBtu/kWh] */
    double emission;         /* kg of pollutants per kWh of generator output */
    double lifetime_hours;   /* online hours between generator replacements */
    int diesel;              /* a diesel engine (DE), else a microturbine */
} prices;

/* The fuel bill of e [kWh] over `online` hours: the diesel engine burns
 * a * e + b * P_rated * online litres, the microturbine mt_slope * e MMBtu. */
static inline double fuel(const prices *p, double e, double online)
{
    if (p->diesel)
        return p->fuel_price * (p->fuel_a * e + p->fuel_b * p->p_rated * online)
               / p->gallon;
    return p->fuel_price * p->mt_slope * e;
}

/* Variable O&M: per online hour for diesel, per kWh for a microturbine. */
static inline double variable_om(const prices *p, double e, double online)
{
    return p->diesel ? p->om_hour * online : p->om_kwh * e;
}

/* c + startup * starts + shutdown * starts: every start has its stop. */
static inline double plus_switching(double c, const prices *p, double starts)
{
    return c + p->startup * starts + p->shutdown * starts;
}

/* The generator's operating cost over a horizon: fuel, variable O&M and
 * switching, added in that order. */
static inline double operating_cost(const prices *p, double e, double online,
                                    double starts)
{
    return plus_switching(fuel(p, e, online) + variable_om(p, e, online), p,
                          starts);
}

/* Installed capital [$] of each component; the baseline has no converter. */
typedef struct { double pv, wt, bs, dg, converter; } capital;

static inline capital capital_of(const prices *p, double pv_kw, double wt_kw,
                                 double bs_kwh, int converter)
{
    return (capital){p->pv_capital * pv_kw, p->wt_capital * wt_kw,
                     p->bs_capital * bs_kwh, p->dg_capital * p->p_rated,
                     converter ? p->converter : 0.0};
}

/* Annual fixed O&M as capital fractions; the converter has none. */
static inline double fixed_om(const prices *p, const capital *c)
{
    return p->om_pv * c->pv + p->om_wt * c->wt + p->om_bs * c->bs
           + p->om_dg * c->dg;
}

/* cost * sum_{t=1..terms} ratio^t, with the ratio -> 1 limit cost * terms.
 * When the power is +inf, so is the present worth, the limit of the
 * closed form: the power overflows only for a ratio > 1, and at a ratio of
 * +inf the IEEE quotient would be inf / inf = NaN. */
static double geometric_pw(double cost, double ratio, double terms)
{
    if (terms <= 0.0 || cost == 0.0)
        return 0.0;
    if (fabs(ratio - 1.0) < 1e-12)
        return cost * terms;
    const double power = pow(ratio, terms);
    if (isinf(power))
        return INFINITY;
    return cost * ratio * (power - 1.0) / (ratio - 1.0);
}

/* Present worth of an annual cost repeating, with inflation, every year of
 * the system lifetime, discounted at the nominal rate. */
static double pw_recurring(const prices *p, double cost)
{
    return geometric_pw(cost, (1.0 + p->inflation) / (1.0 + p->nominal_rate),
                        p->years);
}

/* The adjusted rate (1 + i)^L / (1 + f)^(L - 1) - 1 of a cost recurring
 * every L years, +inf when 1 + i_adj overflows a double. */
static double adjusted_rate(const prices *p, double L)
{
    const double log_ratio = L * log1p(p->nominal_rate)
                             - (L - 1.0) * log1p(p->inflation);
    if (log_ratio > 700.0)
        return INFINITY;
    return exp(log_ratio) - 1.0;
}

/* Present worth of a replacement every `period` years: pw_recurring's form
 * at the adjusted rate, summed over the whole system lifetime.  An
 * infinite period or adjusted rate books nothing.  When exp underflows,
 * 1 + i_adj is 0 and the ratio (1 + f) / 0 is +inf, whose present worth
 * geometric_pw makes +inf (a real rate below zero). */
static double pw_nonrecurring(const prices *p, double cost, double period)
{
    if (isinf(period))
        return 0.0;
    const double i_adj = adjusted_rate(p, period);
    if (isinf(i_adj))
        return 0.0;
    return geometric_pw(cost, (1.0 + p->inflation) / (1.0 + i_adj), p->years);
}

/* The five objectives of a horizon, each nominally in [0, 1]. */
typedef struct {
    double lcoe_norm, em_norm;  /* cost of energy, emissions / baseline's */
    double dpsp;         /* lost-load share */
    double repg;         /* dump share of the DC-side generation */
    double one_minus_ref;
} objectives;

/* The objectives of a horizon's cost of energy coe, emissions and totals:
 * of the DC-side generation res + eta_rec * dg, REPG and REF are 0 when it
 * is <= 0 (a NaN generation divides). */
static inline objectives objective_vector(
    double coe, double emissions, double base_coe, double base_em,
    double lost, double load, double dump, double res, double dg,
    double eta_rec)
{
    const double generated = res + eta_rec * dg;
    return (objectives){coe / base_coe, emissions / base_em, lost / load,
                        generated <= 0.0 ? 0.0 : dump / generated,
                        1.0 - (generated <= 0.0 ? 0.0 : res / generated)};
}

/* What pricing a horizon reads besides its prices and the run's totals. */
typedef struct {
    double pv_kw, wt_kw, bs_kwh;  /* the design's capacities */
    double bs_period;    /* years between battery replacements; inf: none */
    double load;         /* the horizon's load [kWh], > 0 */
    double eta_rec;      /* rectifier efficiency of the generator output */
    double base_lcoe, base_em;  /* the baseline's, which normalize */
    int converter;       /* a converter is installed (not in the baseline) */
} horizon;

/* The price of a horizon: its capital, lifecycle cost, emissions and
 * objectives. */
typedef struct {
    capital cap;
    double annual_recurring;  /* year-1 recurring cost */
    /* present worths of the recurring costs and of the replacements */
    double pw_recurring, pw_nonrecurring;
    double tnpc, tac;         /* total net present, annualized cost */
    double lcoe;              /* levelized cost of energy [$/kWh] */
    double emissions;         /* [kg] */
    objectives obj;
} priced;

/* Price the totals t of a horizon: the capital of h's capacities; the
 * year-1 recurring cost, fixed O&M + variable O&M + fuel + switching in
 * that order (unlike operating_cost); its present worth; the replacements
 * of the battery every h->bs_period years and of the generator after its
 * lifetime hours (never when it is not online); TNPC, TAC = TNPC * CRF and
 * LCOE = TNPC * CRF / load; the emissions and the objective vector.  The
 * generator-only baseline is priced here too, from its own totals, and
 * its objectives are not read. */
void price(const prices *p, const cascade_totals *t, const horizon *h,
           priced *out)
{
    /* Python multiplies and divides by its int counts as doubles, exactly. */
    const double e = t->energy, online = (double)t->online;
    const capital c = out->cap = capital_of(p, h->pv_kw, h->wt_kw, h->bs_kwh,
                                            h->converter);
    out->annual_recurring = plus_switching(
        fixed_om(p, &c) + variable_om(p, e, online) + fuel(p, e, online), p,
        (double)t->starts);
    const double dg_period = t->online > 0 ? p->lifetime_hours / online
                                           : INFINITY;
    out->pw_recurring = pw_recurring(p, out->annual_recurring);
    out->pw_nonrecurring =
        pw_nonrecurring(p, p->bs_replacement * c.bs, h->bs_period)
        + pw_nonrecurring(p, p->dg_replacement * c.dg, dg_period);
    out->tnpc = c.pv + c.wt + c.bs + c.dg + c.converter + out->pw_recurring
                + out->pw_nonrecurring;
    out->tac = out->tnpc * p->crf;
    out->lcoe = out->tac / h->load;
    out->emissions = p->emission * e;
    out->obj = objective_vector(out->lcoe, out->emissions, h->base_lcoe,
                                h->base_em, t->lost, h->load, t->dump, t->res,
                                e, h->eta_rec);
}


/* The inputs that every schedule of one dispatch day shares: its hours,
 * its constraint limits and the constants that price a schedule, its
 * generator's prices and what day_prices derives from them. */
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
    double p_lim;        /* battery power limit [kW]; 0 without a battery */
    double soc_min;      /* the SOC window */
    double soc_max;
    double load_kwh;     /* the day's load [kWh], > 0 */
    double dpsp_max;     /* the largest lost-load share allowed */
    double mu;           /* weight of the residuals in the search value */
    prices price;        /* the day's generator (its rating p_rated bounds
                          * p_dg), costs and finance */
    double fixed_om;     /* the day's share of the annual fixed O&M [$] */
    double base_coe;     /* the daily baseline's cost of energy [$/kWh] */
    double base_em;      /* the daily baseline's emissions [kg] */
    double res_kwh;      /* the day's DC-bus renewable feed-in [kWh] */
    double w[4];         /* weights of COE, emissions, REPG and 1 - REF */
} day_inputs;

/* Fill day's fixed_om, the fixed O&M / 365 of the design's capital (its
 * PV and wind capacities and its battery day->cap), and its baseline: the
 * generator of base serves the day's load by itself, online 24 h with one
 * start, at its operating cost plus om_dg * dg_capital * P_rated / 365. */
void day_prices(day_inputs *day, const prices *base, double pv_kw,
                double wt_kw)
{
    const capital c = capital_of(&day->price, pv_kw, wt_kw, day->cap, 1);
    const double e = day->load_kwh;
    day->fixed_om = fixed_om(&day->price, &c) / 365.0;
    day->base_coe = (operating_cost(base, e, 24.0, 1.0)
                     + base->om_dg * base->dg_capital * base->p_rated / 365.0)
                    / e;
    day->base_em = base->emission * e;
}

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

    out.rated = excess(p_dg_max - day->price.p_rated);
    out.power = excess(p_bs_max - day->p_lim);
    const double high = soc_hi - day->soc_max;
    out.soc = excess(day->soc_min - soc_lo);
    if (high > out.soc)
        out.soc = high;
    /* the DPSP, lost / load as objective_vector divides */
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


/* What day_score reports of a schedule: its five objectives, the weighted
 * sum of four, the day's cost, the five residuals of day_totals and the
 * search value. */
typedef struct {
    objectives obj;      /* normalized by the daily baseline's */
    double weighted;     /* weighted sum of COE, emissions, REPG, 1 - REF */
    double c_daily;      /* operating cost plus the daily fixed O&M [$] */
    double semi, rated, power, soc, over;
    double search_value; /* weighted + penalty */
} day_evaluation;

/* The search value of a schedule (see day_hours): its hours pass, then its
 * price with the helpers of price.  When out is not NULL it also receives
 * the evaluation.
 *   c_daily    operating_cost + the day's fixed O&M;
 *   objectives objective_vector of the cost of energy c_daily / load;
 *   weighted   0.0, then += w[i] * v[i] left to right, as
 *              economics.weighted_objective adds. */
double day_score(const double *schedule, const day_inputs *day,
                 day_evaluation *out)
{
    const day_totals h = day_hours(schedule, day, NULL);
    const prices *p = &day->price;
    /* Python multiplies its int counts as doubles, exactly. */
    const double e = h.energy, online = (double)h.online;
    const double starts = (double)h.starts;
    const double c_daily = operating_cost(p, e, online, starts) + day->fixed_om;
    const objectives o = objective_vector(
        c_daily / day->load_kwh, p->emission * e, day->base_coe, day->base_em,
        h.lost, day->load_kwh, h.dump, day->res_kwh, e, day->eta_rec);
    double weighted = 0.0;
    weighted += day->w[0] * o.lcoe_norm;
    weighted += day->w[1] * o.em_norm;
    weighted += day->w[2] * o.repg;
    weighted += day->w[3] * o.one_minus_ref;
    const double value = weighted + h.penalty;
    if (out) {
        out->obj = o;
        out->weighted = weighted;
        out->c_daily = c_daily;
        out->semi = h.semi;
        out->rated = h.rated;
        out->power = h.power;
        out->soc = h.soc;
        out->over = h.over;
        out->search_value = value;
    }
    return value;
}


/* The steps of the setpoint *x, an hour of the schedule's block, within
 * [lower, upper]: d * scale for d in (-4, -1, 1, 4), in that order, each
 * clamped to the bounds as min(max(*x + step, lower), upper) clamps it.
 * A step that does not move the setpoint is skipped; any other is written
 * into the block and scored, kept when its search value is below *bar,
 * which then becomes that value - 1e-12, and undone otherwise.  Returns
 * the number of candidates scored. */
static int hour_steps(double *schedule, const day_inputs *day, double *x,
                      double lower, double upper, double scale, double *bar)
{
    static const double d[4] = {-4.0, -1.0, 1.0, 4.0};
    int scored = 0;
    for (int i = 0; i < 4; i++) {
        const double old = *x;
        double cand = old + d[i] * scale;
        cand = lower > cand ? lower : cand;
        cand = upper < cand ? upper : cand;
        if (cand == old)
            continue;
        *x = cand;
        const double value = day_score(schedule, day, NULL);
        scored++;
        if (value < *bar)
            *bar = value - 1e-12;
        else
            *x = old;
    }
    return scored;
}

/* The sweeps of day_refine at most; each halves the steps. */
#define REFINE_SWEEPS 6

/* The dispatch search's projected coordinate descent over the setpoints of
 * one ON pattern, in place on the schedule's (2, 24) block: the bar starts
 * at the schedule's search value - 1e-12, and sweep k steps hour by hour,
 * at scale 0.5**k (exact halvings from 1.0), the generator's setpoint
 * within [p_min, p_rated] in an online hour (p_dg > 0), then the battery's
 * within [-p_lim, p_lim] when it can move (p_lim > 0).  The sweeps stop
 * after REFINE_SWEEPS, or after one that leaves the bar where it was: a
 * kept step sets the bar to its value - 1e-12 < bar (a NaN bar stops them
 * too).  The refined schedule's evaluation goes into out.  Every operation
 * is the one of the Python loop it replaced (day_refine in
 * tests/reference.py), in the same order.  Returns the number of schedules
 * scored: the first, every candidate and the refined one. */
int day_refine(double *schedule, const day_inputs *day, day_evaluation *out)
{
    double bar = day_score(schedule, day, NULL) - 1e-12;
    int scored = 1;
    double scale = 1.0;
    for (int sweep = 0; sweep < REFINE_SWEEPS; sweep++, scale *= 0.5) {
        const double start = bar;
        for (int t = 0; t < 24; t++) {
            if (schedule[t] > 0.0)
                scored += hour_steps(schedule, day, schedule + t, day->p_min,
                                     day->price.p_rated, scale, &bar);
            if (day->p_lim > 0.0)
                scored += hour_steps(schedule, day, schedule + 24 + t,
                                     -day->p_lim, day->p_lim, scale, &bar);
        }
        if (!(bar < start))
            break;
    }
    day_score(schedule, day, out);
    return scored + 1;
}
