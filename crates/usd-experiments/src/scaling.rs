//! E6/E7/E10 — stabilization-time scaling experiments.
//!
//! * **E6 (Theorem 3.5)**: measure the stabilization time from the paper's
//!   worst-case initial family (equal minorities, maximum admissible bias)
//!   across a k sweep and compare against the lower-bound curve
//!   (k n/25)·ln(√n/(k ln n)).
//! * **E7 (tightness band)**: the same measurements bracketed between the
//!   lower bound and the Amir et al. upper bound k·n·ln n — the measured
//!   ratios to both must stay bounded, exhibiting the near-tightness.
//! * **E10 (k = 2)**: the classical O(log n) special case (Clementi et
//!   al.); parallel time regressed against ln n.

use crate::cli::ExpArgs;
use crate::report::Report;
use crate::runner;
use sim_stats::regression::{loglog_fit, ols_fit};
use sim_stats::rng::SimRng;
use sim_stats::summary::Summary;
use sim_stats::tables::{fmt_sig, fmt_thousands, TextTable};
use usd_core::backend::Backend;
use usd_core::init::InitialConfigBuilder;
use usd_core::stabilization::ConsensusOutcome;
use usd_core::theory::Bounds;
use usd_core::RunSpec;

/// One measured sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct ScalingCell {
    /// Population size.
    pub n: u64,
    /// Number of opinions.
    pub k: usize,
    /// Initial bias used.
    pub bias: u64,
    /// Mean parallel stabilization time.
    pub parallel_mean: f64,
    /// Standard error of the mean.
    pub parallel_stderr: f64,
    /// Fraction of runs in which the initial plurality won.
    pub plurality_win_rate: f64,
    /// Fraction of runs that stabilized within budget.
    pub stabilized_rate: f64,
}

/// Measure stabilization from the paper's lower-bound family at `(n, k)`
/// on the chosen backend.
pub fn measure_cell(
    backend: Backend,
    n: u64,
    k: usize,
    seeds: u64,
    master_seed: u64,
) -> ScalingCell {
    let builder = InitialConfigBuilder::new(n, k);
    let config = builder.max_admissible_bias();
    let bias = config.bias();
    let results: Vec<(f64, bool, bool)> = runner::repeat(
        master_seed ^ ((k as u64) << 40) ^ n,
        seeds,
        |_rep, rng: &mut SimRng| {
            let budget = crate::fig1::default_budget(n, k);
            let result = RunSpec::new(&config)
                .backend(backend)
                .budget(budget)
                .run(rng);
            (
                result.parallel_time(n),
                result.plurality_won(),
                result.stabilized(),
            )
        },
    );
    let times: Vec<f64> = results.iter().map(|r| r.0).collect();
    let summary = Summary::of(&times);
    let wins = results.iter().filter(|r| r.1).count() as f64;
    let stab = results.iter().filter(|r| r.2).count() as f64;
    ScalingCell {
        n,
        k,
        bias,
        parallel_mean: summary.mean(),
        parallel_stderr: summary.stderr(),
        plurality_win_rate: wins / results.len() as f64,
        stabilized_rate: stab / results.len() as f64,
    }
}

/// Default k sweep for scaling experiments at a given n: geometric grid
/// within the admissible range.
pub fn scaling_k_grid(n: u64) -> Vec<usize> {
    let max_k = ((n as f64).sqrt() / (n as f64).ln()).floor() as usize;
    let mut ks = Vec::new();
    let mut k = 3usize;
    while k <= max_k.max(3) {
        ks.push(k);
        k = (k * 3).div_ceil(2); // ×1.5 grid
    }
    if ks.len() < 2 {
        ks = vec![2, 3];
    }
    ks
}

/// E6 report.
pub fn thm35_report(args: &ExpArgs) -> Report {
    let n = args.unless_quick(args.n, args.n.min(8_000));
    let seeds = args.unless_quick(args.seeds, 2);
    let backend = args.clique_backend_or(Backend::SkipAhead, n);
    let ks = match args.k {
        Some(k) => vec![k],
        None => scaling_k_grid(n),
    };
    let cells = runner::sweep(args.seed, ks, |_, &k, _| {
        measure_cell(backend, n, k, seeds, args.seed)
    });

    let mut report = Report::new();
    report.heading(format!(
        "E6 / Theorem 3.5: stabilization-time scaling, n={}, backend={backend}",
        fmt_thousands(n)
    ));
    report.text(
        "Initial family: equal minorities, maximum admissible bias \
         (sqrt(n)/(k ln n))^(1/4) * sqrt(n ln n) — note this bias is \
         omega(sqrt(n ln n)), yet stabilization still needs \
         Omega(k log(sqrt n/(k log n))) parallel time. 'T/lower' should be \
         bounded below by a constant >= 1 and not explode; its stability \
         across k confirms the Theta(k log(...)) shape.",
    );
    let mut t = TextTable::new(&[
        "k",
        "bias",
        "T parallel (mean +/- se)",
        "lower bound",
        "T/lower",
        "upper k ln n",
        "T/upper",
        "win rate",
    ]);
    let mut k_vals = Vec::new();
    let mut t_vals = Vec::new();
    for c in &cells {
        let b = Bounds::new(c.n, c.k);
        let lower = b.lower_bound_parallel();
        let upper = b.upper_bound_parallel();
        k_vals.push(c.k as f64);
        t_vals.push(c.parallel_mean);
        t.row_owned(vec![
            c.k.to_string(),
            fmt_thousands(c.bias),
            format!(
                "{} +/- {}",
                fmt_sig(c.parallel_mean, 4),
                fmt_sig(c.parallel_stderr, 2)
            ),
            fmt_sig(lower, 4),
            if lower > 0.0 {
                fmt_sig(c.parallel_mean / lower, 3)
            } else {
                "-".to_string()
            },
            fmt_sig(upper, 4),
            fmt_sig(c.parallel_mean / upper, 3),
            fmt_sig(c.plurality_win_rate, 3),
        ]);
    }
    report.table("thm35", t);
    if k_vals.len() >= 2 {
        let fit = loglog_fit(&k_vals, &t_vals);
        report.text(format!(
            "log-log fit of T_parallel vs k: exponent {:.3} (R^2 {:.3}); \
             the bounds predict an exponent of ~1 (both Omega(k·log) and \
             O(k·log n) are linear in k up to the inner log).",
            fit.slope, fit.r_squared
        ));
    }
    report
}

/// E7 report (tightness band).
pub fn tightness_report(args: &ExpArgs) -> Report {
    let n = args.unless_quick(args.n, args.n.min(8_000));
    let seeds = args.unless_quick(args.seeds, 2);
    let backend = args.clique_backend_or(Backend::SkipAhead, n);
    let ks = match args.k {
        Some(k) => vec![k],
        None => scaling_k_grid(n),
    };
    let cells = runner::sweep(args.seed, ks, |_, &k, _| {
        measure_cell(backend, n, k, seeds, args.seed)
    });

    let mut report = Report::new();
    report.heading(format!(
        "E7 / Tightness band: measured time vs lower and upper bounds, n={}, backend={backend}",
        fmt_thousands(n)
    ));
    report.text(
        "The theorem is 'almost tight': Omega(k log(sqrt n/(k log n))) vs \
         O(k log n). For every k the measured time must land between \
         c_low * lower and c_up * upper with constants independent of k.",
    );
    let mut lows = Vec::new();
    let mut ups = Vec::new();
    let mut t = TextTable::new(&["k", "T parallel", "T/lower", "T/upper"]);
    for c in &cells {
        let b = Bounds::new(c.n, c.k);
        let lower = b.lower_bound_parallel();
        let upper = b.upper_bound_parallel();
        let rl = if lower > 0.0 {
            c.parallel_mean / lower
        } else {
            f64::NAN
        };
        let ru = c.parallel_mean / upper;
        if rl.is_finite() {
            lows.push(rl);
        }
        ups.push(ru);
        t.row_owned(vec![
            c.k.to_string(),
            fmt_sig(c.parallel_mean, 4),
            fmt_sig(rl, 3),
            fmt_sig(ru, 3),
        ]);
    }
    report.table("tightness", t);
    if !lows.is_empty() {
        let min_low = lows.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_low = lows.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let max_up = ups.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        report.text(format!(
            "band constants: T/lower in [{:.2}, {:.2}] (spread {:.2}x), \
             max T/upper = {:.3}. A bounded spread in T/lower across k is \
             the empirical signature of the lower bound's k log(...) shape.",
            min_low,
            max_low,
            max_low / min_low,
            max_up
        ));
    }
    report
}

/// E10: the k = 2 special case — O(log n) stabilization.
pub fn k2_report(args: &ExpArgs) -> Report {
    let seeds = args.unless_quick(args.seeds.max(5), 3);
    let max_n = args.unless_quick(args.n.max(64_000), 8_000);
    let backend = args.clique_backend_or(Backend::SkipAhead, max_n);
    // Geometric n grid from 1000 up to max_n.
    let mut ns = Vec::new();
    let mut n = 1_000u64;
    while n <= max_n {
        ns.push(n);
        n *= 2;
    }
    let cells = runner::sweep(args.seed, ns.clone(), |_, &n, _| {
        let builder = InitialConfigBuilder::new(n, 2);
        let config = builder.figure1();
        let times: Vec<f64> = runner::repeat(args.seed ^ n, seeds, |_rep, rng| {
            let result = RunSpec::new(&config)
                .backend(backend)
                .budget(crate::fig1::default_budget(n, 2))
                .run(rng);
            assert!(
                !matches!(result.outcome, ConsensusOutcome::Timeout),
                "k=2 run timed out"
            );
            result.parallel_time(n)
        });
        Summary::of(&times)
    });

    let mut report = Report::new();
    report.heading("E10 / k = 2: O(log n) stabilization (Clementi et al. 2018)");
    report.text(
        "With bias sqrt(n ln n) the two-opinion USD stabilizes in Theta(log n) \
         parallel time; the ratio column must be ~constant and the linear \
         fit in ln n should explain the data (R^2 close to 1).",
    );
    let mut t = TextTable::new(&["n", "T parallel", "ln n", "T/ln n"]);
    let mut lnns = Vec::new();
    let mut ts = Vec::new();
    for (&n, s) in ns.iter().zip(&cells) {
        let lnn = (n as f64).ln();
        lnns.push(lnn);
        ts.push(s.mean());
        t.row_owned(vec![
            fmt_thousands(n),
            fmt_sig(s.mean(), 4),
            fmt_sig(lnn, 4),
            fmt_sig(s.mean() / lnn, 3),
        ]);
    }
    report.table("k2_logn", t);
    if lnns.len() >= 2 {
        let fit = ols_fit(&lnns, &ts);
        report.text(format!(
            "OLS fit T = {:.3}*ln n + {:.3}, R^2 = {:.4}",
            fit.slope, fit.intercept, fit.r_squared
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_grid_admissible() {
        let ks = scaling_k_grid(100_000);
        assert!(ks.len() >= 3);
        let max_k = (100_000f64.sqrt() / 100_000f64.ln()).floor() as usize;
        for &k in &ks {
            assert!(k <= max_k.max(3));
        }
    }

    #[test]
    fn measured_cell_within_band() {
        let cell = measure_cell(Backend::SkipAhead, 4_000, 4, 3, 1);
        assert_eq!(cell.stabilized_rate, 1.0);
        assert!(cell.plurality_win_rate > 0.5, "{cell:?}");
        let b = Bounds::new(4_000, 4);
        // Lower bound must hold (it is a w.h.p. statement; at these sizes
        // allow the constant but the measured time cannot be *below* the
        // bound curve, which has the deliberately weak 1/25 constant).
        assert!(
            cell.parallel_mean >= b.lower_bound_parallel(),
            "measured {} below lower bound {}",
            cell.parallel_mean,
            b.lower_bound_parallel()
        );
        // And within a generous constant of the upper bound.
        assert!(
            cell.parallel_mean <= 5.0 * b.upper_bound_parallel(),
            "measured {} far above upper bound {}",
            cell.parallel_mean,
            b.upper_bound_parallel()
        );
    }

    #[test]
    fn parallel_time_grows_with_k() {
        let c4 = measure_cell(Backend::SkipAhead, 4_000, 4, 3, 2);
        let c12 = measure_cell(Backend::SkipAhead, 4_000, 12, 3, 2);
        assert!(
            c12.parallel_mean > c4.parallel_mean,
            "k=12 ({}) not slower than k=4 ({})",
            c12.parallel_mean,
            c4.parallel_mean
        );
    }

    #[test]
    fn scaling_cell_runs_on_the_leaping_backends() {
        // The scaling sweeps are pure stabilization measurements, so every
        // generic backend drives them; the leaping engines must agree with
        // the per-interaction count engine on the measured scale.
        let reference = measure_cell(Backend::Count, 2_000, 4, 3, 6);
        for backend in [Backend::Batch, Backend::BatchGraph] {
            let cell = measure_cell(backend, 2_000, 4, 3, 6);
            assert_eq!(cell.stabilized_rate, 1.0, "{backend}");
            let ratio = cell.parallel_mean / reference.parallel_mean;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{backend} diverges from count: {ratio}"
            );
        }
    }

    #[test]
    fn reports_render_quick() {
        let args = ExpArgs {
            n: 3_000,
            quick: true,
            seeds: 2,
            ..ExpArgs::default()
        };
        assert!(thm35_report(&args).render().contains("Theorem 3.5"));
        assert!(tightness_report(&args).render().contains("Tightness"));
        assert!(k2_report(&args).render().contains("k = 2"));
    }
}
