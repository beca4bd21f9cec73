//! Interaction graphs for the general population-protocol model.
//!
//! The paper's results are for the clique (any two agents may interact), but
//! Angluin et al.'s original model restricts interactions to the edges of a
//! graph; we provide the standard topologies so the substrate covers the
//! general model and the experiment suite can contrast clique behaviour with
//! restricted topologies.

use sim_stats::rng::SimRng;

/// Largest vertex count, and largest adjacency-entry count (2m), a
/// [`Graph`] can hold: vertex ids, edge ids and the CSR offsets of
/// [`Graph::csr_adjacency`] are all `u32`.
pub const MAX_GRAPH_SIZE: u64 = u32::MAX as u64;

/// Why a graph on `n` vertices with `adjacency_entries` (= 2m) CSR entries
/// would overflow the `u32` ids and offsets, or `None` if it fits.
pub(crate) fn size_violation(n: u64, adjacency_entries: u128) -> Option<String> {
    if n > MAX_GRAPH_SIZE {
        Some(format!(
            "n = {n} exceeds the {MAX_GRAPH_SIZE}-vertex limit of the u32 vertex ids"
        ))
    } else if adjacency_entries > u128::from(MAX_GRAPH_SIZE) {
        Some(format!(
            "2m = {adjacency_entries} adjacency entries exceed the \
             {MAX_GRAPH_SIZE}-entry limit of the u32 CSR offsets"
        ))
    } else {
        None
    }
}

/// An undirected interaction graph on `n` vertices, stored as an edge list.
///
/// The clique is deliberately *not* materialized as an edge list (that would
/// be Θ(n²) memory); use [`crate::scheduler::CliqueScheduler`] for the
/// paper's model instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Build from an explicit edge list. Self-loops and out-of-range
    /// endpoints are rejected; duplicate edges are kept (they bias the
    /// scheduler toward that pair, which callers may intend).
    pub fn from_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        for &(a, b) in &edges {
            assert!(a != b, "self-loop ({a},{b})");
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range for n={n}"
            );
        }
        Self::sized(n, edges)
    }

    /// The one constructor: the backstop for sizes no caller checked up
    /// front (random families can exceed their `n·d` estimate) — a graph
    /// past [`MAX_GRAPH_SIZE`] would wrap its `u32` offsets silently.
    fn sized(n: usize, edges: Vec<(u32, u32)>) -> Self {
        if let Some(why) = size_violation(n as u64, 2 * edges.len() as u128) {
            panic!("graph too large: {why}");
        }
        Graph { n, edges }
    }

    /// Cycle C_n (ring). Requires n ≥ 3.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycle needs at least 3 vertices");
        let edges = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
        Self::sized(n, edges)
    }

    /// Path P_n. Requires n ≥ 2.
    pub fn path(n: usize) -> Self {
        assert!(n >= 2, "path needs at least 2 vertices");
        let edges = (0..n - 1).map(|i| (i as u32, (i + 1) as u32)).collect();
        Self::sized(n, edges)
    }

    /// Star K_{1,n−1} with vertex 0 at the center. Requires n ≥ 2.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2, "star needs at least 2 vertices");
        let edges = (1..n).map(|i| (0u32, i as u32)).collect();
        Self::sized(n, edges)
    }

    /// rows × cols grid with 4-neighbour connectivity.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows * cols >= 2, "grid needs at least 2 vertices");
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Self::sized(rows * cols, edges)
    }

    /// Erdős–Rényi G(n, p): each of the C(n,2) edges present independently
    /// with probability `p`.
    pub fn erdos_renyi(n: usize, p: f64, rng: &mut SimRng) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.bernoulli(p) {
                    edges.push((a as u32, b as u32));
                }
            }
        }
        Self::sized(n, edges)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Compressed-sparse-row adjacency: returns `(offsets, entries)` where
    /// vertex `v` owns `entries[offsets[v]..offsets[v + 1]]`, each entry a
    /// `(neighbor, edge index)` pair. The `u32` offsets count up to 2m,
    /// which construction keeps within [`MAX_GRAPH_SIZE`]. The simulation engines
    /// ([`GraphSimulator`](crate::simulator::GraphSimulator),
    /// [`BatchGraphSimulator`](crate::simulator::BatchGraphSimulator)) build
    /// this once at construction to re-weight the ≤ d edges incident to a
    /// changed agent without scanning the edge list.
    pub fn csr_adjacency(&self) -> (Vec<u32>, Vec<(u32, u32)>) {
        let n = self.n;
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &self.edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![(0u32, 0u32); 2 * self.edges.len()];
        for (e, &(a, b)) in self.edges.iter().enumerate() {
            adj[cursor[a as usize] as usize] = (b, e as u32);
            cursor[a as usize] += 1;
            adj[cursor[b as usize] as usize] = (a, e as u32);
            cursor[b as usize] += 1;
        }
        (offsets, adj)
    }

    /// Per-vertex degrees.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for &(a, b) in &self.edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        deg
    }

    /// BFS connectivity check. The empty and single-vertex graphs count as
    /// connected.
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut adj = vec![Vec::new(); self.n];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b as usize);
            adj[b as usize].push(a as usize);
        }
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        let mut visited = 1usize;
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    visited += 1;
                    queue.push_back(w);
                }
            }
        }
        visited == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_structure() {
        let g = Graph::cycle(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.num_edges(), 5);
        assert!(g.degrees().iter().all(|&d| d == 2));
        assert!(g.is_connected());
    }

    #[test]
    fn path_structure() {
        let g = Graph::path(4);
        assert_eq!(g.num_edges(), 3);
        let deg = g.degrees();
        assert_eq!(deg[0], 1);
        assert_eq!(deg[3], 1);
        assert_eq!(deg[1], 2);
        assert!(g.is_connected());
    }

    #[test]
    fn star_structure() {
        let g = Graph::star(6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degrees()[0], 5);
        assert!(g.degrees()[1..].iter().all(|&d| d == 1));
        assert!(g.is_connected());
    }

    #[test]
    fn grid_structure() {
        let g = Graph::grid(3, 4);
        assert_eq!(g.n(), 12);
        // Edge count: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8.
        assert_eq!(g.num_edges(), 17);
        assert!(g.is_connected());
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = SimRng::new(8);
        let empty = Graph::erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.num_edges(), 0);
        assert!(!empty.is_connected());
        let full = Graph::erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.num_edges(), 45);
        assert!(full.is_connected());
    }

    #[test]
    fn erdos_renyi_edge_count_concentrates() {
        let mut rng = SimRng::new(9);
        let g = Graph::erdos_renyi(100, 0.3, &mut rng);
        let expect = 0.3 * 4950.0;
        assert!(
            (g.num_edges() as f64 - expect).abs() < 160.0,
            "edges {}",
            g.num_edges()
        );
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Graph::from_edges(3, vec![(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        Graph::from_edges(3, vec![(0, 3)]);
    }

    #[test]
    fn size_limit_sits_exactly_at_the_u32_boundary() {
        let max = MAX_GRAPH_SIZE;
        assert!(size_violation(max, u128::from(max)).is_none());
        assert!(size_violation(max + 1, 0).unwrap().contains("vertex ids"));
        assert!(size_violation(2, u128::from(max) + 1)
            .unwrap()
            .contains("CSR offsets"));
    }

    #[test]
    #[should_panic(expected = "graph too large")]
    fn construction_backstop_rejects_oversized_graphs() {
        // No edges, so nothing is allocated before the check fires.
        Graph::from_edges(MAX_GRAPH_SIZE as usize + 1, Vec::new());
    }
}
