//! The USD as a chemical reaction network (CRN).
//!
//! ```text
//! cargo run --release --example chemical_reactions
//! ```
//!
//! Population protocols are equivalent to stochastically simulated CRNs
//! with unit rates (Soloveichik et al.; Chen et al. built them from DNA
//! strand displacement). The Undecided State Dynamics is the network
//!
//! ```text
//!     Xi + Xj  ->  U + U      (i ≠ j: annihilation to the undecided species)
//!     Xi + U   ->  Xi + Xi    (catalytic conversion)
//! ```
//!
//! over species X1…Xk and U in a well-mixed solution of n molecules.
//! This example runs the Gillespie-equivalent exact simulation (each
//! "interaction" = one reaction event over a uniformly random molecule
//! pair) and prints the species time course — including the undecided
//! species' plateau at n/2 − n/4k that the paper characterizes.

use plurality_consensus::prelude::*;
use plurality_consensus::usd_core::record_run;
use sim_stats::timeseries::sparkline;

fn main() {
    let n: u64 = 30_000;
    let k: usize = 4;
    let config = InitialConfigBuilder::new(n, k).figure1();

    println!("CRN: {k} opinion species + undecided, n = {n} molecules");
    println!("reactions: Xi+Xj -> 2U (i != j), Xi+U -> 2Xi");
    println!("initial counts: {:?}", config.opinions());
    println!();

    let mut sim = SkipAheadSimulator::new(&config);
    let mut rng = SimRng::new(11);

    // Record each species roughly once per parallel unit of time.
    let (recorded, _) = record_run(&mut sim, &mut rng, u64::MAX / 2, n);
    let trajectories: Vec<Vec<f64>> = (0..=k)
        .map(|i| {
            recorded
                .snapshots
                .iter()
                .map(|(_, c)| if i < k { c.x(i) } else { c.u() } as f64)
                .collect()
        })
        .collect();

    for (i, traj) in trajectories.iter().enumerate() {
        let name = if i < k {
            format!("X{}", i + 1)
        } else {
            "U ".to_string()
        };
        let last = *traj.last().unwrap() as u64;
        println!("{name} {} final={last}", sparkline(traj));
    }

    let plateau = undecided_plateau(n, k);
    println!();
    println!(
        "undecided plateau predicted at n/2 - n/4k = {:.0}; \
         observed max U = {:.0}",
        plateau,
        trajectories[k].iter().cloned().fold(0.0, f64::max)
    );
    let (_, last) = recorded.snapshots.last().unwrap();
    println!(
        "consensus species: X{} after {:.1} parallel time",
        last.consensus().map(|w| w + 1).unwrap_or(0),
        sim.parallel_time()
    );
}
