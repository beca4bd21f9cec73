//! E5: verify Lemma 3.4 — max-gap doubling needs ≥ kn/24 interactions.
//!
//! E5 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::lemmas::lemma34_report(&args);
    report.finish(args.csv.as_deref());
}
