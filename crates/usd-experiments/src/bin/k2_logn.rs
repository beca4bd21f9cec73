//! E10: the k = 2 special case — O(log n) stabilization.
//!
//! E10 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::scaling::k2_report(&args);
    report.finish(args.csv.as_deref());
}
