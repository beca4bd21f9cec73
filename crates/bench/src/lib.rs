//! Shared helpers for the Criterion benchmark suite.
//!
//! The benches measure (the engines are described in the README's
//! "Simulation backends" section):
//!
//! * `bench_simulators` — per-interaction throughput of the four engines
//!   (agentwise, generic countwise, SequentialUsd, SkipAheadUsd) across
//!   (n, k) — the count-based vs agent-based and Fenwick-vs-naive ablation;
//! * `bench_sampling` — Fenwick vs linear-scan vs alias-table categorical
//!   sampling across category counts (the log k vs k vs O(1) crossover);
//! * `bench_fig1` — the end-to-end Figure 1 run at reduced n (E1/E2's
//!   regeneration cost);
//! * `bench_stabilization` — full stabilization measurement at small n
//!   (what one sweep cell of E6 costs);
//! * `bench_baselines` — baseline protocol round/interaction throughput.

use usd_core::init::InitialConfigBuilder;
use usd_core::UsdConfig;

/// A standard benchmark instance: the Figure-1 initial family at `(n, k)`.
pub fn bench_config(n: u64, k: usize) -> UsdConfig {
    InitialConfigBuilder::new(n, k).figure1()
}

/// The (n, k) grid used by the throughput benches.
pub fn grid() -> Vec<(u64, usize)> {
    vec![(10_000, 8), (100_000, 8), (100_000, 32)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_valid() {
        let c = bench_config(10_000, 8);
        assert_eq!(c.n(), 10_000);
        assert_eq!(c.k(), 8);
        assert!(c.bias() > 0);
    }

    #[test]
    fn grid_is_nonempty() {
        assert!(!grid().is_empty());
    }
}
