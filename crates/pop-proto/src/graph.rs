//! Interaction graphs for the general population-protocol model.
//!
//! The paper's results are for the clique (any two agents may interact), but
//! Angluin et al.'s original model restricts interactions to the edges of a
//! graph; we provide the standard topologies so the substrate covers the
//! general model and the experiment suite can contrast clique behaviour with
//! restricted topologies.

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

/// Compressed-sparse-row adjacency `(offsets, entries)`; see
/// [`Graph::csr_adjacency`].
type Csr = (Vec<u32>, Vec<(u32, u32)>);

/// An undirected interaction graph on `n` vertices, stored as an edge list.
///
/// The clique is deliberately *not* materialized as an edge list (that would
/// be Θ(n²) memory); use [`crate::scheduler::CliqueScheduler`] for the
/// paper's model instead.
///
/// Equality compares `n` and the edge list only: a graph that carries its
/// generator's CSR adjacency equals its [`Graph::from_edges`] copy.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    edges: Vec<(u32, u32)>,
    /// The CSR adjacency, when the generator built it on the way (random
    /// regular graphs); `None` means [`Graph::csr_adjacency`] scatters it
    /// from the edge list on demand.
    csr: Option<Csr>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

impl Eq for Graph {}

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
        Graph {
            n,
            edges,
            csr: None,
        }
    }

    /// A `d`-regular graph together with its CSR entries, which must be
    /// exactly [`Graph::csr_adjacency`]'s output for `edges`: vertex `v`'s
    /// `d` entries at `adj[v·d..(v+1)·d]`, in edge-index order. The
    /// random-regular generator builds them anyway, so the engines take
    /// them instead of scattering the edge list a second time.
    pub(crate) fn regular_with_csr(
        n: usize,
        d: usize,
        edges: Vec<(u32, u32)>,
        adj: Vec<(u32, u32)>,
    ) -> Self {
        assert_eq!(adj.len(), n * d, "CSR entries do not match n·d");
        assert_eq!(2 * edges.len(), adj.len(), "CSR entries do not match 2m");
        let mut graph = Self::sized(n, edges);
        // `sized` bounds n·d = 2m by MAX_GRAPH_SIZE, so the offsets fit.
        let offsets = (0..=n).map(|v| (v * d) as u32).collect();
        graph.csr = Some((offsets, adj));
        graph
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
    /// `(neighbor, edge index)` pair in edge-index order. The `u32`
    /// offsets count up to 2m, which construction keeps within
    /// [`MAX_GRAPH_SIZE`]. The simulation engines
    /// ([`GraphSimulator`](crate::simulator::GraphSimulator),
    /// [`BatchGraphSimulator`](crate::simulator::BatchGraphSimulator)) hold
    /// it (through [`CsrGraph`]) to re-weight the ≤ d edges incident to a
    /// changed agent without scanning the edge list.
    ///
    /// Random regular graphs carry the CSR from generation: the
    /// generator's per-vertex dedup rows, sorted by edge index, are exactly
    /// this output, so it is returned as a copy. Every other graph builds
    /// it here with a counting pass and a scatter pass over the edge list.
    pub fn csr_adjacency(&self) -> (Vec<u32>, Vec<(u32, u32)>) {
        match &self.csr {
            Some(csr) => csr.clone(),
            None => scatter_csr(self.n, &self.edges),
        }
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

/// The scatter-pass CSR build behind [`Graph::csr_adjacency`].
fn scatter_csr(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut offsets = vec![0u32; n + 1];
    for &(a, b) in edges {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut cursor = offsets.clone();
    let mut adj = vec![(0u32, 0u32); 2 * edges.len()];
    for (e, &(a, b)) in edges.iter().enumerate() {
        adj[cursor[a as usize] as usize] = (b, e as u32);
        cursor[a as usize] += 1;
        adj[cursor[b as usize] as usize] = (a, e as u32);
        cursor[b as usize] += 1;
    }
    (offsets, adj)
}

/// A graph in the form the graph engines hold it: the edge list plus its
/// CSR adjacency ([`Graph::csr_adjacency`]). Engine constructors take
/// `impl Into<CsrGraph>`, so they accept either
///
/// - an owned [`Graph`], whose edge list and generator-built CSR (if any)
///   move in without a copy, or
/// - a `&Graph`, which copies the edge list and the CSR and leaves the
///   graph with the caller.
#[derive(Debug)]
pub struct CsrGraph {
    pub(crate) n: usize,
    pub(crate) edges: Vec<(u32, u32)>,
    pub(crate) offsets: Vec<u32>,
    pub(crate) adj: Vec<(u32, u32)>,
}

impl From<Graph> for CsrGraph {
    fn from(graph: Graph) -> Self {
        let (offsets, adj) = match graph.csr {
            Some(csr) => csr,
            None => scatter_csr(graph.n, &graph.edges),
        };
        CsrGraph {
            n: graph.n,
            edges: graph.edges,
            offsets,
            adj,
        }
    }
}

impl From<&Graph> for CsrGraph {
    fn from(graph: &Graph) -> Self {
        let (offsets, adj) = graph.csr_adjacency();
        CsrGraph {
            n: graph.n,
            edges: graph.edges.clone(),
            offsets,
            adj,
        }
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
