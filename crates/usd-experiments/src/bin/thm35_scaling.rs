//! E6: Theorem 3.5 stabilization-time scaling vs the lower-bound curve.
//!
//! E6 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::scaling::thm35_report(&args);
    report.finish(args.csv.as_deref());
}
