//! E7: tightness band — measured time between the lower bound and the Amir et al. upper bound.
//!
//! E7 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::scaling::tightness_report(&args);
    report.finish(args.csv.as_deref());
}
