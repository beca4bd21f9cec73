//! Engine throughput: interactions per second for the four exact engines.
//!
//! This is the quantitative backing for the engine trade-offs in the
//! README's "Simulation backends" section:
//! count-based beats agent-based on memory without losing speed, and the
//! skip-ahead engine wins by the no-op fraction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pop_proto::{AgentSimulator, CliqueScheduler, CountSimulator};
use sim_stats::rng::SimRng;
use std::hint::black_box;
use usd_bench::bench_config;
use usd_core::dynamics::{SequentialUsd, SkipAheadUsd, UsdSimulator};
use usd_core::protocol::UndecidedStateDynamics;

const INTERACTIONS: u64 = 100_000;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    group.throughput(Throughput::Elements(INTERACTIONS));
    for &(n, k) in &[(10_000u64, 8usize), (10_000, 32)] {
        let config = bench_config(n, k);

        group.bench_with_input(
            BenchmarkId::new("agentwise", format!("n{n}_k{k}")),
            &config,
            |b, config| {
                b.iter(|| {
                    let proto = UndecidedStateDynamics::new(k);
                    let mut sim = AgentSimulator::from_config(
                        proto,
                        CliqueScheduler::new(n as usize),
                        &config.to_count_config(),
                    );
                    let mut rng = SimRng::new(1);
                    for _ in 0..INTERACTIONS {
                        sim.step(&mut rng);
                    }
                    black_box(sim.counts()[0])
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("countwise_generic", format!("n{n}_k{k}")),
            &config,
            |b, config| {
                b.iter(|| {
                    let proto = UndecidedStateDynamics::new(k);
                    let mut sim = CountSimulator::new(proto, &config.to_count_config());
                    let mut rng = SimRng::new(1);
                    for _ in 0..INTERACTIONS {
                        sim.step(&mut rng);
                    }
                    black_box(sim.counts()[0])
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("sequential_usd", format!("n{n}_k{k}")),
            &config,
            |b, config| {
                b.iter(|| {
                    let mut sim = SequentialUsd::new(config);
                    let mut rng = SimRng::new(1);
                    for _ in 0..INTERACTIONS {
                        sim.step(&mut rng);
                    }
                    black_box(sim.undecided())
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("skip_ahead_usd", format!("n{n}_k{k}")),
            &config,
            |b, config| {
                b.iter(|| {
                    let mut sim = SkipAheadUsd::new(config);
                    let mut rng = SimRng::new(1);
                    while sim.interactions() < INTERACTIONS {
                        if sim.step_effective(&mut rng).is_none() {
                            break;
                        }
                    }
                    black_box(sim.undecided())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
