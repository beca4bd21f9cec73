//! E12: distributional equivalence and throughput of the three exact engines.
//!
//! E12 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::comparisons::ablation_report(&args);
    report.finish(args.csv.as_deref());
}
