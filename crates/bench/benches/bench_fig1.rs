//! End-to-end Figure 1 regeneration cost at reduced n.
//!
//! One sample = one full run of the E1 workload (paper family, bias
//! √(n ln n), run to stabilization) with the skip-ahead engine — the cost
//! a user pays per `fig1_left` invocation at the benched n.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, SamplingMode};
use sim_stats::rng::SimRng;
use std::hint::black_box;
use usd_bench::bench_config;
use usd_core::theory;
use usd_core::{Backend, RunSpec};

fn bench_fig1_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_end_to_end");
    group.sampling_mode(SamplingMode::Flat);
    group.sample_size(10);
    for &n in &[5_000u64, 20_000] {
        let k = theory::figure1_k(n);
        let config = bench_config(n, k);
        group.bench_with_input(
            BenchmarkId::new("paper_family_to_stability", format!("n{n}_k{k}")),
            &config,
            |b, config| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut rng = SimRng::new(seed);
                    let budget = (40.0 * k as f64 * n as f64 * (n as f64).ln()) as u64;
                    let result = RunSpec::new(config)
                        .backend(Backend::SkipAhead)
                        .budget(budget)
                        .run(&mut rng);
                    assert!(result.stabilized());
                    black_box(result.interactions)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig1_runs);
criterion_main!(benches);
