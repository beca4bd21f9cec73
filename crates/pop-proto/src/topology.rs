//! Graph family generators for topology experiments.
//!
//! The paper analyzes USD under the uniform *clique* scheduler; this module
//! provides the standard interaction-graph families used to probe how its
//! Ω(kn log n) stabilization barrier behaves off the complete graph:
//! cycles, 2D tori, hypercubes, random d-regular graphs, Erdős–Rényi
//! G(n, p), and the complete graph as the degenerate reference topology.
//!
//! Every family is named by the [`TopologyFamily`] enum and built through
//! [`TopologyFamily::build`], which is **deterministic in `(n, seed)`** —
//! random families derive all randomness from a [`SimRng`] seeded with the
//! given seed, so experiment sweeps are reproducible cell by cell.
//!
//! Families with structural constraints on `n` (perfect square for the
//! torus, power of two for the hypercube, parity of `n·d` for d-regular)
//! expose [`TopologyFamily::snap_n`], which rounds a requested size down to
//! the nearest feasible one; sweep grids use it so the same nominal `n`
//! column stays comparable across families.

use crate::graph::{size_violation, Graph};
use sim_stats::rng::SimRng;
use std::collections::HashSet;
use std::str::FromStr;

/// Default degree for the degree-parameterized families (`regular`, `er`).
pub const DEFAULT_DEGREE: usize = 8;

/// A named family of interaction graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyFamily {
    /// The complete graph K_n — the paper's model, materialized as an
    /// explicit Θ(n²) edge list (degenerate reference; keep n modest).
    Complete,
    /// The cycle C_n.
    Cycle,
    /// The √n × √n torus (4-regular); requires a perfect-square n ≥ 9.
    Torus,
    /// The log₂(n)-dimensional hypercube; requires n a power of two.
    Hypercube,
    /// A random simple d-regular graph (configuration model with pair
    /// rejection/repair); requires `n·d` even and `d < n`.
    Regular {
        /// Vertex degree.
        d: usize,
    },
    /// Erdős–Rényi G(n, p) with `p = avg_degree / (n − 1)`.
    ErdosRenyi {
        /// Expected vertex degree (sets `p`).
        avg_degree: f64,
    },
}

impl TopologyFamily {
    /// The degree-parameterized families at degree `d`, plus the fixed
    /// sparse families — the default sweep set (the complete graph is
    /// excluded: its Θ(n²) edge list is a demo, not a sweep cell).
    pub fn sweep_set(d: usize) -> Vec<TopologyFamily> {
        vec![
            TopologyFamily::Cycle,
            TopologyFamily::Torus,
            TopologyFamily::Hypercube,
            TopologyFamily::Regular { d },
            TopologyFamily::ErdosRenyi {
                avg_degree: d as f64,
            },
        ]
    }

    /// Flag-friendly name (`complete`, `cycle`, `torus`, `hypercube`,
    /// `regular:<d>`, `er:<avg>`).
    pub fn name(&self) -> String {
        match self {
            TopologyFamily::Complete => "complete".into(),
            TopologyFamily::Cycle => "cycle".into(),
            TopologyFamily::Torus => "torus".into(),
            TopologyFamily::Hypercube => "hypercube".into(),
            TopologyFamily::Regular { d } => format!("regular:{d}"),
            TopologyFamily::ErdosRenyi { avg_degree } => format!("er:{avg_degree}"),
        }
    }

    /// Whether this family is degree-parameterized (i.e.
    /// [`TopologyFamily::with_degree`] has any effect).
    pub fn takes_degree(&self) -> bool {
        matches!(
            self,
            TopologyFamily::Regular { .. } | TopologyFamily::ErdosRenyi { .. }
        )
    }

    /// Replace the degree parameter of a degree-parameterized family
    /// (`regular`, `er`); other families are returned unchanged.
    #[must_use]
    pub fn with_degree(self, d: usize) -> Self {
        match self {
            TopologyFamily::Regular { .. } => TopologyFamily::Regular { d },
            TopologyFamily::ErdosRenyi { .. } => TopologyFamily::ErdosRenyi {
                avg_degree: d as f64,
            },
            other => other,
        }
    }

    /// The largest feasible population ≤ `n` for this family (all families
    /// need at least the size that makes them well-defined: n ≥ 3 for the
    /// cycle, 9 for the torus, 2 for the hypercube, d + 1 for d-regular).
    pub fn snap_n(&self, n: usize) -> usize {
        match self {
            TopologyFamily::Complete | TopologyFamily::ErdosRenyi { .. } => n.max(2),
            TopologyFamily::Cycle => n.max(3),
            TopologyFamily::Torus => {
                let side = (n.isqrt()).max(3);
                side * side
            }
            TopologyFamily::Hypercube => {
                if n < 2 {
                    2
                } else {
                    // Largest power of two ≤ n.
                    1usize << (usize::BITS - 1 - n.leading_zeros())
                }
            }
            TopologyFamily::Regular { d } => {
                let n = n.max(d + 1);
                if n * d % 2 == 1 {
                    n + 1 // odd n with odd d: bump to make n·d even
                } else {
                    n
                }
            }
        }
    }

    /// Adjacency entries (2m, the CSR size) of this family's graph on `n`
    /// vertices: exact for the deterministic families, the `n·d` bound for
    /// `regular` and `er`.
    fn adjacency_entries(&self, n: usize) -> u128 {
        let n = n as u128;
        match *self {
            TopologyFamily::Complete => n * n.saturating_sub(1),
            TopologyFamily::Cycle => 2 * n,
            TopologyFamily::Torus => 4 * n,
            TopologyFamily::Hypercube => n * u128::from(n.max(1).ilog2()),
            TopologyFamily::Regular { d } => n * d as u128,
            TopologyFamily::ErdosRenyi { avg_degree } => (n as f64 * avg_degree).ceil() as u128,
        }
    }

    /// Reject a (snapped) size whose graph would overflow the `u32` vertex
    /// ids, edge ids or CSR offsets (see
    /// [`MAX_GRAPH_SIZE`](crate::graph::MAX_GRAPH_SIZE)). Checked from
    /// `n` alone, before generation, so an oversized request fails without
    /// allocating; [`Graph`] construction asserts the same limit as the
    /// backstop for random families.
    pub fn check_size(&self, n: usize) -> Result<(), String> {
        match size_violation(n as u64, self.adjacency_entries(n)) {
            None => Ok(()),
            Some(why) => Err(format!("topology {self} on n = {n}: {why}")),
        }
    }

    /// Build the graph on `n` vertices. Deterministic in `(self, n, seed)`;
    /// the seed only matters for the random families. Panics if `n` is
    /// infeasible for the family (use [`TopologyFamily::snap_n`] first).
    pub fn build(&self, n: usize, seed: u64) -> Graph {
        match *self {
            TopologyFamily::Complete => complete(n),
            TopologyFamily::Cycle => Graph::cycle(n),
            TopologyFamily::Torus => torus(n),
            TopologyFamily::Hypercube => hypercube(n),
            TopologyFamily::Regular { d } => {
                let mut rng = SimRng::new(seed);
                random_regular(n, d, &mut rng)
            }
            TopologyFamily::ErdosRenyi { avg_degree } => {
                assert!(n >= 2, "G(n,p) needs n >= 2");
                let p = (avg_degree / (n as f64 - 1.0)).clamp(0.0, 1.0);
                let mut rng = SimRng::new(seed);
                erdos_renyi_sparse(n, p, &mut rng)
            }
        }
    }
}

impl std::fmt::Display for TopologyFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl FromStr for TopologyFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (base, param) = match s.split_once(':') {
            Some((b, p)) => (b, Some(p)),
            None => (s, None),
        };
        let parse_d = |p: Option<&str>| -> Result<usize, String> {
            match p {
                None => Ok(DEFAULT_DEGREE),
                Some(v) => v.parse().map_err(|e| format!("degree '{v}': {e}")),
            }
        };
        match base {
            "complete" | "clique" => Ok(TopologyFamily::Complete),
            "cycle" | "ring" => Ok(TopologyFamily::Cycle),
            "torus" => Ok(TopologyFamily::Torus),
            "hypercube" | "cube" => Ok(TopologyFamily::Hypercube),
            "regular" => {
                let d = parse_d(param)?;
                if d == 0 {
                    return Err("regular needs degree >= 1".to_string());
                }
                Ok(TopologyFamily::Regular { d })
            }
            "er" | "erdos-renyi" => {
                let avg_degree = match param {
                    None => DEFAULT_DEGREE as f64,
                    Some(v) => v.parse().map_err(|e| format!("avg degree '{v}': {e}"))?,
                };
                if !(avg_degree > 0.0 && avg_degree.is_finite()) {
                    return Err("er needs a positive finite average degree".to_string());
                }
                Ok(TopologyFamily::ErdosRenyi { avg_degree })
            }
            other => Err(format!(
                "unknown topology '{other}' \
                 (expected complete|cycle|torus|hypercube|regular[:d]|er[:avg])"
            )),
        }
    }
}

/// The complete graph K_n as an explicit edge list (Θ(n²) memory).
fn complete(n: usize) -> Graph {
    assert!(n >= 2, "complete graph needs n >= 2");
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            edges.push((a as u32, b as u32));
        }
    }
    Graph::from_edges(n, edges)
}

/// The √n × √n torus with wraparound in both dimensions (4-regular).
fn torus(n: usize) -> Graph {
    let side = n.isqrt();
    assert!(
        side * side == n && side >= 3,
        "torus needs a perfect-square n with side >= 3, got n={n}"
    );
    let idx = |r: usize, c: usize| (r * side + c) as u32;
    let mut edges = Vec::with_capacity(2 * n);
    for r in 0..side {
        for c in 0..side {
            edges.push((idx(r, c), idx(r, (c + 1) % side)));
            edges.push((idx(r, c), idx((r + 1) % side, c)));
        }
    }
    Graph::from_edges(n, edges)
}

/// The log₂(n)-dimensional hypercube.
fn hypercube(n: usize) -> Graph {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "hypercube needs a power-of-two n >= 2, got {n}"
    );
    let dim = n.trailing_zeros();
    let mut edges = Vec::with_capacity(n * dim as usize / 2);
    for v in 0..n {
        for b in 0..dim {
            let u = v ^ (1usize << b);
            if v < u {
                edges.push((v as u32, u as u32));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// Unordered-edge key for the simplicity checks.
#[inline]
fn edge_key(a: u32, b: u32) -> u64 {
    ((a.min(b) as u64) << 32) | a.max(b) as u64
}

/// Random simple d-regular graph via the configuration model: d stubs per
/// vertex, a uniform random perfect matching of the stubs, and rejection of
/// conflicting pairs — repaired locally by double-edge swaps against
/// uniformly chosen good edges (re-drawing only the offending pairs instead
/// of the whole matching, which for d ≥ 4 would succeed with probability
/// e^−Ω(d²) per attempt). The result is exactly d-regular and simple; the
/// distribution is the standard asymptotically-uniform repaired
/// configuration model.
fn random_regular(n: usize, d: usize, rng: &mut SimRng) -> Graph {
    assert!(d >= 1 && d < n, "regular graph needs 1 <= d < n");
    assert!((n * d).is_multiple_of(2), "regular graph needs n*d even");
    if d == n - 1 {
        return complete(n); // the unique (n−1)-regular simple graph
    }
    let m = n * d / 2;
    'attempt: for attempt in 0..64 {
        let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
        for v in 0..n {
            stubs.extend(std::iter::repeat_n(v as u32, d));
        }
        rng.shuffle(&mut stubs);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
        let mut seen: HashSet<u64> = HashSet::with_capacity(m * 2);
        let mut bad: Vec<usize> = Vec::new();
        for i in 0..m {
            let (a, b) = (stubs[2 * i], stubs[2 * i + 1]);
            if a == b || !seen.insert(edge_key(a, b)) {
                bad.push(i);
            }
            edges.push((a, b));
        }
        // Repair: swap each bad pair against a random good edge.
        let mut is_bad = vec![false; m];
        for &i in &bad {
            is_bad[i] = true;
        }
        let mut tries = 0usize;
        while let Some(&ei) = bad.last() {
            tries += 1;
            if tries > 64 * m + 4096 {
                continue 'attempt; // pathological matching: rebuild
            }
            let ej = rng.index(m);
            if ej == ei || is_bad[ej] {
                continue;
            }
            let (a, b) = edges[ei];
            let (c, d2) = edges[ej];
            // Rewire (a,b),(c,d2) -> (a,c),(b,d2); both new edges must be
            // simple and fresh.
            if a == c || b == d2 {
                continue;
            }
            let (k1, k2) = (edge_key(a, c), edge_key(b, d2));
            if k1 == k2 || seen.contains(&k1) || seen.contains(&k2) {
                continue;
            }
            seen.remove(&edge_key(c, d2));
            seen.insert(k1);
            seen.insert(k2);
            edges[ei] = (a, c);
            edges[ej] = (b, d2);
            is_bad[ei] = false;
            bad.pop();
        }
        debug_assert!(attempt < 63);
        return Graph::from_edges(n, edges);
    }
    unreachable!("configuration-model repair failed 64 times (n={n}, d={d})");
}

/// Sparse G(n, p) sampler: walks the C(n, 2) potential edges with geometric
/// gaps (O(p·n²) expected work instead of the dense Θ(n²) Bernoulli scan),
/// exactly equivalent in distribution to per-edge Bernoulli(p) trials.
fn erdos_renyi_sparse(n: usize, p: f64, rng: &mut SimRng) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if p <= 0.0 {
        return Graph::from_edges(n, Vec::new());
    }
    if p >= 1.0 {
        return complete(n);
    }
    let total = (n as u64) * (n as u64 - 1) / 2;
    let mut edges = Vec::with_capacity(((total as f64 * p) * 1.1) as usize + 16);
    let mut idx = rng.geometric(p);
    while idx < total {
        edges.push(unrank_pair(idx, n as u64));
        idx = idx.saturating_add(1 + rng.geometric(p));
    }
    Graph::from_edges(n, edges)
}

/// Map a linear index over the row-major upper triangle (a < b) back to the
/// vertex pair: index = a(n−1) − a(a−1)/2 + (b − a − 1).
fn unrank_pair(idx: u64, n: u64) -> (u32, u32) {
    let cum = |a: u64| a * (n - 1) - a * (a.saturating_sub(1)) / 2;
    // f64 inversion of the quadratic, then exact fix-up.
    let disc = ((2 * n - 1) as f64).powi(2) - 8.0 * idx as f64;
    let mut a = (((2 * n - 1) as f64 - disc.max(0.0).sqrt()) / 2.0).floor() as u64;
    a = a.min(n - 2);
    while a > 0 && cum(a) > idx {
        a -= 1;
    }
    while a + 1 < n - 1 && cum(a + 1) <= idx {
        a += 1;
    }
    let b = a + 1 + (idx - cum(a));
    debug_assert!(b < n, "unrank overflow: idx={idx}, n={n} -> ({a},{b})");
    (a as u32, b as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_simple(g: &Graph) {
        let mut seen = HashSet::new();
        for &(a, b) in g.edges() {
            assert_ne!(a, b, "self-loop ({a},{b})");
            assert!(seen.insert(edge_key(a, b)), "duplicate edge ({a},{b})");
        }
    }

    #[test]
    fn complete_structure() {
        let g = TopologyFamily::Complete.build(10, 0);
        assert_eq!(g.num_edges(), 45);
        assert!(g.degrees().iter().all(|&d| d == 9));
        assert_simple(&g);
        assert!(g.is_connected());
    }

    #[test]
    fn torus_structure() {
        let g = TopologyFamily::Torus.build(25, 0);
        assert_eq!(g.num_edges(), 50);
        assert!(g.degrees().iter().all(|&d| d == 4));
        assert_simple(&g);
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_structure() {
        let g = TopologyFamily::Hypercube.build(64, 0);
        assert_eq!(g.num_edges(), 64 * 6 / 2);
        assert!(g.degrees().iter().all(|&d| d == 6));
        assert_simple(&g);
        assert!(g.is_connected());
    }

    #[test]
    fn random_regular_structure() {
        for (n, d, seed) in [(100, 3, 1u64), (1000, 8, 2), (64, 7, 3), (50, 49, 4)] {
            let g = TopologyFamily::Regular { d }.build(n, seed);
            assert_eq!(g.n(), n);
            assert_eq!(g.num_edges(), n * d / 2, "n={n} d={d}");
            assert!(
                g.degrees().iter().all(|&deg| deg == d),
                "degree sequence broken at n={n}, d={d}"
            );
            assert_simple(&g);
        }
    }

    #[test]
    fn random_regular_d3_plus_is_connected_at_test_seeds() {
        // Connectivity holds w.h.p. for d >= 3; the fixed seeds used across
        // the test suite must produce connected graphs.
        for seed in 0..8 {
            let g = TopologyFamily::Regular { d: 8 }.build(512, seed);
            assert!(g.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn erdos_renyi_matches_dense_reference_law() {
        // The sparse geometric-gap sampler must produce the same edge-count
        // scale as the dense Bernoulli scan.
        let n = 200usize;
        let avg = 8.0;
        let mut total = 0usize;
        let reps = 40;
        for seed in 0..reps {
            let g = TopologyFamily::ErdosRenyi { avg_degree: avg }.build(n, seed);
            assert_simple(&g);
            total += g.num_edges();
        }
        let mean = total as f64 / reps as f64;
        let expect = avg / 2.0 * n as f64; // n·avg/2 edges
        assert!(
            (mean - expect).abs() < expect * 0.1,
            "mean edges {mean} vs {expect}"
        );
    }

    #[test]
    fn er_extreme_probabilities() {
        let empty = erdos_renyi_sparse(30, 0.0, &mut SimRng::new(1));
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi_sparse(30, 1.0, &mut SimRng::new(1));
        assert_eq!(full.num_edges(), 435);
    }

    #[test]
    fn unrank_covers_all_pairs_in_order() {
        let n = 9u64;
        let mut expect = Vec::new();
        for a in 0..9u32 {
            for b in (a + 1)..9 {
                expect.push((a, b));
            }
        }
        let got: Vec<(u32, u32)> = (0..n * (n - 1) / 2).map(|i| unrank_pair(i, n)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn seeded_builds_are_deterministic() {
        for fam in [
            TopologyFamily::Regular { d: 6 },
            TopologyFamily::ErdosRenyi { avg_degree: 5.0 },
        ] {
            let a = fam.build(300, 42);
            let b = fam.build(300, 42);
            assert_eq!(a, b, "{fam} not deterministic");
            let c = fam.build(300, 43);
            assert_ne!(a, c, "{fam} ignores the seed");
        }
    }

    #[test]
    fn snap_n_produces_feasible_sizes() {
        for fam in [
            TopologyFamily::Complete,
            TopologyFamily::Cycle,
            TopologyFamily::Torus,
            TopologyFamily::Hypercube,
            TopologyFamily::Regular { d: 3 },
            TopologyFamily::ErdosRenyi { avg_degree: 4.0 },
        ] {
            for n in [2usize, 3, 9, 10, 100, 1000, 1023] {
                let snapped = fam.snap_n(n);
                // Feasible: build must not panic, and snapping is sticky.
                let g = fam.build(snapped, 7);
                assert_eq!(g.n(), snapped);
                assert_eq!(fam.snap_n(snapped), snapped, "{fam} snap not idempotent");
            }
        }
        assert_eq!(TopologyFamily::Torus.snap_n(1000), 961); // 31²
        assert_eq!(TopologyFamily::Hypercube.snap_n(1000), 512);
        assert_eq!(TopologyFamily::Regular { d: 3 }.snap_n(99), 100); // parity
    }

    #[test]
    fn names_roundtrip_through_fromstr() {
        for fam in [
            TopologyFamily::Complete,
            TopologyFamily::Cycle,
            TopologyFamily::Torus,
            TopologyFamily::Hypercube,
            TopologyFamily::Regular { d: 12 },
            TopologyFamily::ErdosRenyi { avg_degree: 6.0 },
        ] {
            let parsed: TopologyFamily = fam.name().parse().unwrap();
            assert_eq!(parsed, fam);
        }
        assert_eq!(
            "regular".parse::<TopologyFamily>().unwrap(),
            TopologyFamily::Regular { d: DEFAULT_DEGREE }
        );
        assert!("moebius".parse::<TopologyFamily>().is_err());
        assert!("regular:x".parse::<TopologyFamily>().is_err());
        // Degenerate parameters are parse errors, not downstream panics.
        assert!("regular:0".parse::<TopologyFamily>().is_err());
        assert!("er:0".parse::<TopologyFamily>().is_err());
        assert!("er:-3".parse::<TopologyFamily>().is_err());
        assert!("er:nan".parse::<TopologyFamily>().is_err());
    }

    #[test]
    fn with_degree_applies_only_to_parameterized_families() {
        assert_eq!(
            TopologyFamily::Regular { d: 8 }.with_degree(4),
            TopologyFamily::Regular { d: 4 }
        );
        assert_eq!(
            TopologyFamily::ErdosRenyi { avg_degree: 8.0 }.with_degree(4),
            TopologyFamily::ErdosRenyi { avg_degree: 4.0 }
        );
        assert_eq!(TopologyFamily::Cycle.with_degree(4), TopologyFamily::Cycle);
    }

    #[test]
    #[should_panic(expected = "perfect-square")]
    fn torus_rejects_non_square() {
        TopologyFamily::Torus.build(10, 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hypercube_rejects_non_power() {
        TopologyFamily::Hypercube.build(12, 0);
    }

    #[test]
    #[should_panic(expected = "n*d even")]
    fn regular_rejects_odd_product() {
        TopologyFamily::Regular { d: 3 }.build(9, 0);
    }

    #[test]
    fn check_size_rejects_the_first_size_past_the_u32_offsets() {
        // reg8: 2m = 8n reaches 2^32 at n = 2^29.
        let reg8 = TopologyFamily::Regular { d: 8 };
        assert!(reg8.check_size((1 << 29) - 1).is_ok());
        let err = reg8.check_size(1 << 29).unwrap_err();
        assert!(err.contains("CSR offsets"), "{err}");
        assert!(reg8.check_size(600_000_000).is_err());
        // Exact counts for the deterministic families.
        let max = crate::graph::MAX_GRAPH_SIZE as usize;
        assert!(TopologyFamily::Cycle.check_size(max / 2).is_ok());
        assert!(TopologyFamily::Cycle.check_size(max / 2 + 1).is_err());
        assert!(TopologyFamily::Torus.check_size(max / 4).is_ok());
        assert!(TopologyFamily::Torus.check_size(max / 4 + 1).is_err());
        assert!(TopologyFamily::Hypercube.check_size(1 << 27).is_ok());
        assert!(TopologyFamily::Hypercube.check_size(1 << 28).is_err());
        assert!(TopologyFamily::Complete.check_size(65_536).is_ok());
        assert!(TopologyFamily::Complete.check_size(65_537).is_err());
        let er = TopologyFamily::ErdosRenyi { avg_degree: 2.0 };
        assert!(er.check_size(max / 2).is_ok());
        assert!(er.check_size(max / 2 + 1).is_err());
        // The built graphs match the up-front count.
        for family in [
            TopologyFamily::Complete,
            TopologyFamily::Cycle,
            TopologyFamily::Torus,
            TopologyFamily::Hypercube,
            TopologyFamily::Regular { d: 4 },
        ] {
            let n = family.snap_n(64);
            assert_eq!(
                family.adjacency_entries(n),
                2 * family.build(n, 1).num_edges() as u128,
                "{family}"
            );
        }
    }
}
