//! E11: USD vs four-state exact majority, voter, 3-majority, and synchronized USD.
//!
//! E11 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::comparisons::baseline_report(&args);
    report.finish(args.csv.as_deref());
}
