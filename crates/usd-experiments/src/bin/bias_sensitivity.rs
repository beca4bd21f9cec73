//! E8: majority win rate and stabilization time across the initial-bias grid.
//!
//! E8 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::comparisons::bias_report(&args);
    report.finish(args.csv.as_deref());
}
