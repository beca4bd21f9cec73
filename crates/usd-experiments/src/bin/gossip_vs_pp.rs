//! E9: population-protocol vs Gossip-model USD, with per-node flip statistics.
//!
//! E9 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::comparisons::gossip_report(&args);
    report.finish(args.csv.as_deref());
}
