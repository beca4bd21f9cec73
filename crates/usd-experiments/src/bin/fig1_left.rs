//! E1: regenerate Figure 1 (left) — trajectory of majority, minorities (×k) and undecided count.
//!
//! E1 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::fig1::fig1_left_report(&args);
    report.finish(args.csv.as_deref());
}
