//! E3: verify the Lemma 3.1 ceiling on the undecided count.
//!
//! E3 in the README's "Experiments × backends" section lists the
//! backends this binary accepts and its default.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::lemmas::lemma31_report(&args);
    report.finish(args.csv.as_deref());
}
