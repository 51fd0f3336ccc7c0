//! The typed query vocabulary and its oracle: every query kind, its result
//! shape, and [`execute`] — the fresh-from-snapshot computation that both
//! serves cache misses and *defines* correctness for cache hits (the
//! exactness proptest holds every cache-served answer to this function's
//! output on the same epoch).

use std::cmp::Ordering;
use std::sync::Arc;

use gpma_analytics::{bfs_host, cc_host, component_count, pagerank_host, UNREACHED};
use gpma_core::framework::GraphSnapshot;

/// One typed query against the latest published snapshot.
///
/// `Copy + Eq + Hash` by design: a query is part of the result-cache key
/// `(tenant, query, epoch)`, and the admission/lookup hot paths must stay
/// allocation-free (`gpma-lint`'s `hot-path-alloc` rule covers them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// BFS hop distances from `src` to every vertex.
    Bfs {
        /// Traversal root.
        src: u32,
    },
    /// Connected-component labels (undirected semantics) plus the count.
    Cc,
    /// The `top_k` highest-PageRank vertices with their ranks
    /// (parameters come from the server's
    /// [`PageRankParams`]; rank descending, vertex id ascending on ties).
    PageRank {
        /// How many top-ranked vertices to return.
        top_k: u32,
    },
    /// Out-degree of vertex `v`.
    Degree {
        /// Vertex queried.
        v: u32,
    },
    /// Whether directed edge `(u, v)` is live.
    EdgeExists {
        /// Source endpoint.
        u: u32,
        /// Destination endpoint.
        v: u32,
    },
    /// The sorted out-neighbor list of vertex `v`.
    Neighbors {
        /// Vertex queried.
        v: u32,
    },
}

impl Query {
    /// Stable lowercase kind name for metrics/exposition labels.
    pub fn kind(self) -> &'static str {
        match self {
            Query::Bfs { .. } => "bfs",
            Query::Cc => "cc",
            Query::PageRank { .. } => "pagerank",
            Query::Degree { .. } => "degree",
            Query::EdgeExists { .. } => "edge_exists",
            Query::Neighbors { .. } => "neighbors",
        }
    }

    /// Whether the query is a point lookup (degree, edge test, neighbor
    /// list): it reads one vertex's adjacency, never the whole graph.
    pub fn is_point(self) -> bool {
        matches!(
            self,
            Query::Degree { .. } | Query::EdgeExists { .. } | Query::Neighbors { .. }
        )
    }
}

/// A query's answer. Bulk payloads are `Arc`-wrapped so cache hits clone a
/// pointer, not a vector.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// [`Query::Bfs`]: hop distance per vertex
    /// ([`UNREACHED`] where unreachable).
    Distances(Arc<Vec<u32>>),
    /// [`Query::Cc`]: per-vertex component labels and the component count.
    Components {
        /// Representative label per vertex.
        labels: Arc<Vec<u32>>,
        /// Number of distinct components.
        count: usize,
    },
    /// [`Query::PageRank`]: `(vertex, rank)` pairs, rank descending.
    TopRanks(Arc<Vec<(u32, f64)>>),
    /// [`Query::Degree`]: the out-degree.
    Degree(usize),
    /// [`Query::EdgeExists`]: whether the edge is live.
    Exists(bool),
    /// [`Query::Neighbors`]: sorted out-neighbor vertex ids.
    Neighbors(Arc<Vec<u32>>),
}

/// Server-wide PageRank execution parameters (part of the oracle: two
/// executions agree only when run with the same parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankParams {
    /// Damping factor (the paper's 0.85).
    pub damping: f64,
    /// L1 convergence threshold.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for PageRankParams {
    fn default() -> Self {
        PageRankParams {
            damping: 0.85,
            epsilon: 1e-9,
            max_iters: 100_000,
        }
    }
}

/// Execute `query` against `snap` from scratch — the correctness oracle.
///
/// Deterministic: same snapshot + same parameters ⇒ bitwise-identical
/// result (PageRank ties order by ascending vertex id). Out-of-range
/// vertices are answered structurally (empty neighbors, degree 0, absent
/// edge, all-unreachable distances) rather than panicking, so arbitrary
/// tenant input is safe.
pub fn execute(query: Query, snap: &GraphSnapshot, pr: PageRankParams) -> QueryResult {
    match query {
        Query::Bfs { src } => {
            if src >= snap.num_vertices() {
                let nv = snap.num_vertices() as usize;
                QueryResult::Distances(Arc::new(vec![UNREACHED; nv]))
            } else {
                QueryResult::Distances(Arc::new(bfs_host(snap, src)))
            }
        }
        Query::Cc => {
            let labels = cc_host(snap);
            let count = component_count(&labels);
            QueryResult::Components {
                labels: Arc::new(labels),
                count,
            }
        }
        Query::PageRank { top_k } => QueryResult::TopRanks(Arc::new(top_ranks(snap, top_k, pr))),
        Query::Degree { v } => QueryResult::Degree(snap.out_degree(v)),
        Query::EdgeExists { u, v } => QueryResult::Exists(snap.contains(u, v)),
        Query::Neighbors { v } => {
            QueryResult::Neighbors(Arc::new(snap.neighbors(v).iter().map(|e| e.dst).collect()))
        }
    }
}

/// Full PageRank, then the deterministic top-k selection: rank descending,
/// vertex id ascending on exact ties.
fn top_ranks(snap: &GraphSnapshot, top_k: u32, pr: PageRankParams) -> Vec<(u32, f64)> {
    let ranks = pagerank_host(snap, pr.damping, pr.epsilon, pr.max_iters).ranks;
    let mut order: Vec<u32> = (0..ranks.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        ranks[b as usize]
            .partial_cmp(&ranks[a as usize])
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    order.truncate(top_k as usize);
    order.into_iter().map(|v| (v, ranks[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_graph::Edge;

    fn snap() -> GraphSnapshot {
        // 0→1→2, 2→0, isolated 3; vertex 1 also →3.
        GraphSnapshot::from_edges(
            7,
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(1, 3),
                Edge::new(2, 0),
            ],
        )
    }

    #[test]
    fn execute_matches_host_oracles() {
        let s = snap();
        let pr = PageRankParams::default();
        assert_eq!(
            execute(Query::Bfs { src: 0 }, &s, pr),
            QueryResult::Distances(Arc::new(bfs_host(&s, 0)))
        );
        let labels = cc_host(&s);
        assert_eq!(
            execute(Query::Cc, &s, pr),
            QueryResult::Components {
                count: component_count(&labels),
                labels: Arc::new(labels),
            }
        );
        assert_eq!(execute(Query::Degree { v: 1 }, &s, pr), QueryResult::Degree(2));
        assert_eq!(
            execute(Query::EdgeExists { u: 1, v: 3 }, &s, pr),
            QueryResult::Exists(true)
        );
        assert_eq!(
            execute(Query::EdgeExists { u: 3, v: 1 }, &s, pr),
            QueryResult::Exists(false)
        );
        assert_eq!(
            execute(Query::Neighbors { v: 1 }, &s, pr),
            QueryResult::Neighbors(Arc::new(vec![2, 3]))
        );
    }

    #[test]
    fn top_ranks_are_sorted_and_deterministic() {
        let s = snap();
        let pr = PageRankParams::default();
        let QueryResult::TopRanks(top) = execute(Query::PageRank { top_k: 4 }, &s, pr) else {
            panic!("wrong result shape");
        };
        assert_eq!(top.len(), 4);
        for w in top.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "order violated: {w:?}"
            );
        }
        // Determinism: re-executing yields the identical vector.
        assert_eq!(
            execute(Query::PageRank { top_k: 4 }, &s, pr),
            QueryResult::TopRanks(top)
        );
        // top_k larger than |V| truncates to |V|.
        let QueryResult::TopRanks(all) = execute(Query::PageRank { top_k: 99 }, &s, pr) else {
            panic!("wrong result shape");
        };
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn out_of_range_vertices_answer_structurally() {
        let s = snap();
        let pr = PageRankParams::default();
        assert_eq!(
            execute(Query::Bfs { src: 99 }, &s, pr),
            QueryResult::Distances(Arc::new(vec![UNREACHED; 4]))
        );
        assert_eq!(execute(Query::Degree { v: 99 }, &s, pr), QueryResult::Degree(0));
        assert_eq!(
            execute(Query::Neighbors { v: 99 }, &s, pr),
            QueryResult::Neighbors(Arc::new(Vec::new()))
        );
        assert_eq!(
            execute(Query::EdgeExists { u: 99, v: 0 }, &s, pr),
            QueryResult::Exists(false)
        );
    }
}
