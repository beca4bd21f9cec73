//! E4: verify Lemma 3.3 — opinion growth 3n/2k → 2n/k needs ≥ kn/25 interactions.
//!
//! E4 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::lemmas::lemma33_report(&args);
    report.finish(args.csv.as_deref());
}
