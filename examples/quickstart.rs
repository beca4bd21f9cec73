//! Quickstart: run the Undecided State Dynamics once, end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Sets up the paper's canonical scenario — k − 1 equally supported
//! minority opinions plus a majority with an additive √(n ln n) advantage —
//! runs the exact population-protocol simulation to stabilization, and
//! prints what happened.

use plurality_consensus::prelude::*;

fn main() {
    let n: u64 = 50_000;
    let k: usize = 8;

    // The paper's initial family: equal minorities, majority bias √(n ln n).
    let config = InitialConfigBuilder::new(n, k).figure1();
    println!("initial configuration: {config}");
    println!(
        "  bias = {} (≈ sqrt(n ln n)), plurality = opinion {}",
        config.bias(),
        config.plurality().unwrap() + 1
    );

    // Theory reference points for this (n, k).
    let bounds = Bounds::new(n, k);
    println!(
        "  theory: lower bound {:.1}, upper bound O(k ln n) = {:.1} parallel time",
        bounds.lower_bound_parallel(),
        bounds.upper_bound_parallel()
    );

    // Exact simulation with the skip-ahead engine (distribution-identical
    // to per-interaction simulation, but skips no-op meetings).
    let mut rng = SimRng::new(2025);
    let result = RunSpec::new(&config)
        .backend(Backend::SkipAhead)
        .run(&mut rng);

    match result.outcome {
        ConsensusOutcome::Winner(w) => {
            println!(
                "stabilized on opinion {} after {:.1} parallel time ({} interactions)",
                w + 1,
                result.parallel_time(n),
                result.interactions
            );
            println!(
                "  plurality won: {} (expected w.h.p. at this bias)",
                result.plurality_won()
            );
        }
        ConsensusOutcome::AllUndecided => {
            println!("degenerate: every agent became undecided (absorbing)");
        }
        ConsensusOutcome::Frozen => {
            unreachable!("clique runs cannot freeze in a mixed configuration")
        }
        ConsensusOutcome::Timeout => println!("budget exhausted before stabilization"),
    }
}
