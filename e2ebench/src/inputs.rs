//! Seeded inputs: graphs, query lists and their reference answers. The
//! same seed always gives the same inputs.

use graph::serve::{GraphQuery, QueryAnswer};
use sparse::generate::{rmat, RmatParams, SuiteGraph};
use sparse::{CooMatrix, CsrMatrix, Idx};

/// SplitMix64: a small, seedable generator for the query streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// PageRank teleport probability of every PageRank query.
pub const PR_ALPHA: f32 = 0.15;

/// One generated graph: the adjacency (edge `u -> v` at `(u, v)`), the
/// transposed operand the engines run on, and the CSR the references
/// walk.
#[derive(Debug)]
pub struct Graph {
    /// What the graph is, for the report.
    pub name: String,
    /// The operand engines run on: the transposed adjacency.
    pub operand: CooMatrix,
    /// Row-major adjacency for the host references.
    pub csr: CsrMatrix,
    /// Vertices with at least one out-edge, ascending.
    pub sources: Vec<Idx>,
}

impl Graph {
    fn new(name: String, adjacency: CooMatrix) -> Self {
        let sources = adjacency
            .row_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, _)| v as Idx)
            .collect();
        Graph {
            name,
            operand: adjacency.transpose(),
            csr: CsrMatrix::from(&adjacency),
            sources,
        }
    }

    /// Vertex count.
    pub fn vertices(&self) -> usize {
        self.csr.rows()
    }

    /// A seeded source with at least one out-edge.
    pub fn source(&self, rng: &mut Rng) -> Idx {
        self.sources[rng.below(self.sources.len())]
    }

    /// A seeded source from which BFS reaches at least half the
    /// vertices. On the R-MAT analogues most sources with out-edges do;
    /// the rest reach a handful of vertices, never build a dense
    /// frontier, and would make a query list's work a draw of how many
    /// of them it holds.
    pub fn far_source(&self, rng: &mut Rng) -> Idx {
        (0..1000)
            .map(|_| self.source(rng))
            .find(|&s| {
                let (parents, _) = graph::bfs::reference(&self.csr, s);
                2 * parents
                    .iter()
                    .filter(|&&p| p != graph::bfs::UNVISITED)
                    .count()
                    >= self.vertices()
            })
            .expect("the generated graphs have a component spanning half their vertices")
    }
}

/// The R-MAT analogue of the paper's pokec graph, scaled down by
/// `divisor` (vertices and edges alike).
pub fn pokec(divisor: usize, seed: u64) -> Graph {
    let spec = SuiteGraph::Pokec.spec().scaled(divisor);
    let adjacency = spec.generate(seed).expect("pokec spec is valid");
    Graph::new(format!("pokec/{divisor}"), adjacency)
}

/// An R-MAT graph of 2^13 vertices with Graph500 skew.
pub fn rmat13(seed: u64) -> Graph {
    let adjacency = rmat(13, 100_000, RmatParams::GRAPH500, seed).expect("R-MAT params are valid");
    Graph::new("rmat13".to_string(), adjacency)
}

/// Vertices per dense block of [`community`].
const BLOCK: usize = 32;

/// Share of the pairs within a block that are edges.
const BLOCK_DENSITY: f64 = 0.4;

/// A community-structured graph: 128 blocks of 32 consecutive ids, 40%
/// of the pairs within a block connected, plus two random cross edges
/// per vertex. Its entries cluster in 32-column segments too thinly for
/// blocked CSR, which is the bitmap format's case.
pub fn community(seed: u64) -> Graph {
    let n = 128 * BLOCK;
    let mut rng = Rng::new(seed, 0xC0);
    let mut triplets = Vec::with_capacity(n * BLOCK / 2);
    for u in 0..n {
        let block = u / BLOCK * BLOCK;
        for v in block..block + BLOCK {
            if v != u && rng.chance(BLOCK_DENSITY) {
                triplets.push((u as Idx, v as Idx, 1.0));
            }
        }
        for _ in 0..2 {
            let v = rng.below(n);
            if v / BLOCK != u / BLOCK {
                triplets.push((u as Idx, v as Idx, 1.0));
            }
        }
    }
    let adjacency = CooMatrix::from_triplets(n, n, triplets).expect("entries are in range");
    Graph::new("community".to_string(), adjacency)
}

/// The reference answer of `query` on `graph`, from the host
/// implementations the repository's tests compare against.
pub fn reference(query: GraphQuery, graph: &Graph) -> QueryAnswer {
    match query {
        GraphQuery::Bfs { source } => QueryAnswer::Bfs(graph::bfs::reference(&graph.csr, source).0),
        GraphQuery::Sssp { source } => {
            QueryAnswer::Sssp(graph::sssp::reference(&graph.csr, source))
        }
        GraphQuery::PageRank {
            damping,
            iterations,
        } => QueryAnswer::PageRank(graph::pagerank::reference(&graph.csr, damping, iterations)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn community_blocks_are_dense() {
        let g = community(3);
        assert_eq!(g.vertices(), 128 * BLOCK);
        let intra = g.csr.nnz() - 2 * g.vertices();
        let pairs = (128 * BLOCK * (BLOCK - 1)) as f64;
        assert!((intra as f64 / pairs - BLOCK_DENSITY).abs() < 0.02);
        assert_eq!(g.sources.len(), g.vertices());
    }
}
