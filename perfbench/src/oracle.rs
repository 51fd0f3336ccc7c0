//! Oracle checks. Each returns `Err` with a description on the first
//! mismatch; a workload that gets one stops, and the run exits non-zero
//! without counting the mismatched operation as a latency sample.

use std::collections::HashSet;

use gpma_graph::Edge;
use gpma_serving::{Query, QueryResult};

/// The window oracle of a sliding stream: the edges `stream[start..end]`
/// live after every slide up to `end` (the edges of one stream are
/// distinct, so arrival order within the window does not matter).
pub fn window_edges(stream: &[Edge], start: usize, end: usize) -> Vec<Edge> {
    let mut v = stream[start..end].to_vec();
    v.sort_unstable_by_key(Edge::key);
    v
}

/// `actual` holds exactly the `expected` edges, weights included.
pub fn check_edge_set(what: &str, actual: &[Edge], expected: &[Edge]) -> Result<(), String> {
    let key = |e: &Edge| (e.key(), e.weight);
    let a: HashSet<(u64, u64)> = actual.iter().map(key).collect();
    let e: HashSet<(u64, u64)> = expected.iter().map(key).collect();
    if a.len() != actual.len() {
        return Err(format!(
            "{what}: {} duplicate edges",
            actual.len() - a.len()
        ));
    }
    if a == e {
        return Ok(());
    }
    let missing = e.difference(&a).count();
    let extra = a.difference(&e).count();
    Err(format!(
        "{what}: edge set differs from the oracle ({missing} missing, {extra} extra, {} live vs {} expected)",
        a.len(),
        e.len()
    ))
}

/// Device BFS distances equal the host reference, vertex by vertex.
pub fn check_bfs(what: &str, device: &[u32], host: &[u32]) -> Result<(), String> {
    if device.len() != host.len() {
        return Err(format!(
            "{what}: {} vs {} vertices",
            device.len(),
            host.len()
        ));
    }
    match device.iter().zip(host).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what}: vertex {v} at distance {} on device, {} on host",
            device[v], host[v]
        )),
    }
}

/// Relabel components by first occurrence, so two labelings of the same
/// partition compare equal whatever representative each picked.
pub fn canonical_components(labels: &[u32]) -> Vec<u32> {
    let mut seen = std::collections::HashMap::new();
    labels
        .iter()
        .map(|l| {
            let next = seen.len() as u32;
            *seen.entry(*l).or_insert(next)
        })
        .collect()
}

/// Device CC labels describe the same partition as the host reference.
pub fn check_cc(what: &str, device: &[u32], host: &[u32]) -> Result<(), String> {
    let (a, b) = (canonical_components(device), canonical_components(host));
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} vertices", a.len(), b.len()));
    }
    match a.iter().zip(&b).position(|(x, y)| x != y) {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what}: vertex {v} is in a different component than on host"
        )),
    }
}

/// A served answer equals the oracle's (`gpma_serving::execute` on the
/// same snapshot): exact, since `execute` is deterministic.
pub fn check_query(q: Query, served: &QueryResult, oracle: &QueryResult) -> Result<(), String> {
    if served == oracle {
        Ok(())
    } else {
        Err(format!("query {q:?}: served answer differs from execute()"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect()
    }

    #[test]
    fn window_oracle_keeps_the_slice() {
        let s = edges(&[(3, 1), (0, 1), (2, 2), (1, 0)]);
        assert_eq!(window_edges(&s, 1, 3), edges(&[(0, 1), (2, 2)]));
    }

    #[test]
    fn edge_set_check_rejects_missing_extra_reweighted_and_duplicated_edges() {
        let expected = edges(&[(0, 1), (1, 2), (2, 3)]);
        assert!(check_edge_set("ok", &edges(&[(2, 3), (0, 1), (1, 2)]), &expected).is_ok());
        assert!(check_edge_set("missing", &edges(&[(0, 1), (1, 2)]), &expected).is_err());
        assert!(check_edge_set(
            "extra",
            &edges(&[(0, 1), (1, 2), (2, 3), (3, 4)]),
            &expected
        )
        .is_err());
        let mut reweighted = expected.clone();
        reweighted[1] = Edge::weighted(1, 2, 9);
        assert!(check_edge_set("weight", &reweighted, &expected).is_err());
        let dup = edges(&[(0, 1), (1, 2), (2, 3), (2, 3)]);
        assert!(check_edge_set("dup", &dup, &expected).is_err());
    }

    #[test]
    fn bfs_check_rejects_a_corrupted_distance() {
        let host = vec![0, 1, 2, u32::MAX];
        assert!(check_bfs("ok", &host, &host).is_ok());
        let mut bad = host.clone();
        bad[2] = 3;
        assert!(check_bfs("bad", &bad, &host).is_err());
        assert!(check_bfs("short", &host[..3], &host).is_err());
    }

    #[test]
    fn cc_check_accepts_relabelling_but_rejects_a_moved_vertex() {
        let host = vec![0, 0, 2, 2, 4];
        assert!(check_cc("relabelled", &[7, 7, 1, 1, 9], &host).is_ok());
        assert!(check_cc("moved", &[0, 0, 2, 0, 4], &host).is_err());
        assert!(check_cc("merged", &[0, 0, 0, 0, 4], &host).is_err());
    }

    #[test]
    fn query_check_rejects_a_corrupted_answer() {
        let q = Query::Neighbors { v: 1 };
        let oracle = QueryResult::Neighbors(Arc::new(vec![2, 3]));
        assert!(check_query(q, &oracle.clone(), &oracle).is_ok());
        let bad = QueryResult::Neighbors(Arc::new(vec![2]));
        assert!(check_query(q, &bad, &oracle).is_err());
        assert!(check_query(q, &QueryResult::Degree(2), &oracle).is_err());
    }
}
