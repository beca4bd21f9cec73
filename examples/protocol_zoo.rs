//! Protocol zoo: race USD against the baseline consensus protocols.
//!
//! ```text
//! cargo run --release --example protocol_zoo
//! ```
//!
//! Runs every protocol in the workspace on the same two-opinion instance
//! (60/40 split) and on a five-opinion plurality instance, printing how
//! long each takes and whether the initial plurality actually won —
//! a compact tour of the related-work landscape in §1.2 of the paper.

use plurality_consensus::pop_proto::{CountConfig, CountSimulator};
use plurality_consensus::prelude::*;
use plurality_consensus::usd_baselines::{
    FourStateMajority, GossipUsd, SynchronizedUsd, ThreeMajority, VoterDynamics,
};

fn main() {
    let n: u64 = 10_000;
    let mut rng = SimRng::new(3);

    println!("=== two opinions, 60/40 split, n={n} ===");
    println!(
        "{:<24} {:>14} {:>10} {:>18}",
        "protocol", "time", "unit", "plurality won?"
    );
    let config2 = UsdConfig::decided(vec![6 * n / 10, 4 * n / 10]);

    // USD in the population protocol model.
    {
        let result = RunSpec::new(&config2)
            .backend(Backend::SkipAhead)
            .run(&mut rng);
        row(
            "USD (PP)",
            result.parallel_time(n),
            "parallel",
            result.plurality_won(),
        );
    }
    // Four-state exact majority.
    {
        let init = CountConfig::from_counts(vec![config2.x(0), config2.x(1), 0, 0]);
        let mut sim = CountSimulator::new(FourStateMajority, &init);
        sim.run(&mut rng, u64::MAX / 2, |s| s.is_silent());
        let (a, b) = FourStateMajority::sides(sim.counts());
        row(
            "4-state exact (PP)",
            sim.parallel_time(),
            "parallel",
            a == n && b == 0,
        );
    }
    // Voter dynamics.
    {
        let init = CountConfig::from_counts(config2.opinions().to_vec());
        let mut sim = CountSimulator::new(VoterDynamics::new(2), &init);
        sim.run(&mut rng, u64::MAX / 2, |s| s.is_silent());
        row(
            "Voter (PP)",
            sim.parallel_time(),
            "parallel",
            sim.config().consensus_state() == Some(0),
        );
    }
    // Gossip-model USD.
    {
        let mut sim = GossipUsd::new(&config2);
        let (rounds, _) = sim.run(&mut rng, 1_000_000);
        row(
            "USD (Gossip)",
            rounds as f64,
            "rounds",
            sim.winner() == Some(0),
        );
    }
    // 3-majority.
    {
        let mut sim = ThreeMajority::new(&config2);
        let (rounds, _) = sim.run(&mut rng, 1_000_000);
        row(
            "3-majority (Gossip)",
            rounds as f64,
            "rounds",
            sim.winner() == Some(0),
        );
    }
    // Synchronized USD.
    {
        let mut sim = SynchronizedUsd::new(&config2);
        let (rounds, _) = sim.run(&mut rng, 1_000_000);
        row(
            "Synchronized USD",
            rounds as f64,
            "rounds",
            sim.winner() == Some(0),
        );
    }

    println!();
    println!("=== five opinions, paper bias, n={n} ===");
    println!(
        "{:<24} {:>14} {:>10} {:>18}",
        "protocol", "time", "unit", "plurality won?"
    );
    let config5 = InitialConfigBuilder::new(n, 5).figure1();
    {
        let result = RunSpec::new(&config5)
            .backend(Backend::SkipAhead)
            .run(&mut rng);
        row(
            "USD (PP)",
            result.parallel_time(n),
            "parallel",
            result.plurality_won(),
        );
    }
    {
        let init = CountConfig::from_counts(config5.opinions().to_vec());
        let mut sim = CountSimulator::new(VoterDynamics::new(5), &init);
        sim.run(&mut rng, u64::MAX / 2, |s| s.is_silent());
        row(
            "Voter (PP)",
            sim.parallel_time(),
            "parallel",
            sim.config().consensus_state() == Some(0),
        );
    }
    {
        let mut sim = GossipUsd::new(&config5);
        let (rounds, _) = sim.run(&mut rng, 1_000_000);
        row(
            "USD (Gossip)",
            rounds as f64,
            "rounds",
            sim.winner() == Some(0),
        );
    }
    {
        let mut sim = ThreeMajority::new(&config5);
        let (rounds, _) = sim.run(&mut rng, 1_000_000);
        row(
            "3-majority (Gossip)",
            rounds as f64,
            "rounds",
            sim.winner() == Some(0),
        );
    }

    println!();
    println!(
        "takeaways: USD is fast and correct given the bias; voter is slow \
         (Theta(n) parallel) and wins only ~proportionally to support; the \
         4-state protocol is always-correct but pays for exactness; one \
         Gossip round costs n interactions, so rounds and parallel time are \
         directly comparable."
    );
}

fn row(name: &str, time: f64, unit: &str, won: bool) {
    println!(
        "{:<24} {:>14.1} {:>10} {:>18}",
        name,
        time,
        unit,
        if won { "yes" } else { "no" }
    );
}
