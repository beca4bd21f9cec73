//! E2: regenerate Figure 1 (right) — zoom until the majority doubles, with the max difference.
//!
//! E2 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::fig1::fig1_right_report(&args);
    report.finish(args.csv.as_deref());
}
