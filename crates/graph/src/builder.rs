//! Parallel CSR construction from edge lists.
//!
//! Pipeline: symmetrize into directed entries, parallel radix sort by
//! `(u, v)` key, drop self-loops and duplicate entries (keeping the first
//! occurrence's weight), then derive offsets by binary searching vertex
//! boundaries. All phases are flat data-parallel, so construction itself
//! follows the paper's work/span discipline.

use crate::csr::{CsrGraph, VertexId};
use parscan_parallel::filter::filter_map_index;
use parscan_parallel::primitives::{par_map, reduce};
use parscan_parallel::radix::par_radix_sort_by_key;

#[derive(Clone, Copy)]
struct Entry {
    key: u64, // u << 32 | v
    weight: f32,
}

/// Build an unweighted simple undirected graph on `n` vertices.
///
/// Self-loops and duplicate edges in the input are dropped; edges are
/// symmetrized, so `(u, v)` and `(v, u)` denote the same edge.
///
/// # Panics
/// Panics if an endpoint is `>= n`.
pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> CsrGraph {
    build(n, edges.len(), |i| (edges[i].0, edges[i].1, 1.0), false)
}

/// Build a weighted simple undirected graph on `n` vertices. When the
/// input lists an edge more than once the first occurrence's weight wins.
pub fn from_weighted_edges(n: usize, edges: &[(VertexId, VertexId, f32)]) -> CsrGraph {
    build(n, edges.len(), |i| edges[i], true)
}

fn build<F>(n: usize, n_edges: usize, edge: F, weighted: bool) -> CsrGraph
where
    F: Fn(usize) -> (VertexId, VertexId, f32) + Sync,
{
    assert!(n <= u32::MAX as usize, "vertex ids are u32");
    if n_edges > 0 {
        let max_id = reduce(
            n_edges,
            4096,
            0u32,
            |i| {
                let (u, v, _) = edge(i);
                u.max(v)
            },
            |a, b| a.max(b),
        );
        assert!(
            (max_id as usize) < n,
            "edge endpoint {max_id} out of range (n = {n})"
        );
    }

    // Symmetrize: 2 directed entries per input edge; self-loops dropped.
    let mut entries: Vec<Entry> = filter_map_index(2 * n_edges, |i| {
        let (u, v, w) = edge(i / 2);
        if u == v {
            return None;
        }
        let (a, b) = if i % 2 == 0 { (u, v) } else { (v, u) };
        Some(Entry {
            key: ((a as u64) << 32) | b as u64,
            weight: w,
        })
    });

    let max_key = if n == 0 {
        0
    } else {
        (((n - 1) as u64) << 32) | (n - 1) as u64
    };
    par_radix_sort_by_key(&mut entries, |e| e.key, Some(max_key));

    // Drop duplicates (adjacent after the sort; stability keeps the first
    // occurrence of each directed entry first).
    let deduped: Vec<Entry> = filter_map_index(entries.len(), |i| {
        (i == 0 || entries[i - 1].key != entries[i].key).then(|| entries[i])
    });
    drop(entries);

    // Offsets: first position of each vertex's key range.
    let offsets: Vec<usize> = par_map(n + 1, 1024, |v| {
        let bound = (v as u64) << 32;
        deduped.partition_point(|e| e.key < bound)
    });

    let neighbors: Vec<VertexId> = par_map(deduped.len(), 8192, |i| {
        (deduped[i].key & 0xffff_ffff) as VertexId
    });
    let weights = weighted.then(|| par_map(deduped.len(), 8192, |i| deduped[i].weight));

    CsrGraph::try_from_parts(offsets, neighbors, weights)
        .expect("sorted, deduplicated, symmetrized entries form a valid CSR graph")
}

/// Relabel a graph so vertex `v` becomes `perm[v]` (a bijection).
/// Used by tests to check label-invariance of clustering.
pub fn relabel(g: &CsrGraph, perm: &[VertexId]) -> CsrGraph {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n);
    let edges: Vec<(VertexId, VertexId, f32)> = g
        .canonical_edges()
        .map(|(u, v, slot)| (perm[u as usize], perm[v as usize], g.slot_weight(slot)))
        .collect();
    if g.is_weighted() {
        from_weighted_edges(n, &edges)
    } else {
        let unweighted: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        from_edges(n, &unweighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_triangle() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn weighted_first_occurrence_wins() {
        let g = from_weighted_edges(2, &[(0, 1, 0.5), (1, 0, 0.9)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.slot_weight(0), 0.5);
        assert_eq!(g.slot_weight(1), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_inputs() {
        let g = from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        let g = from_edges(5, &[]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn large_random_build_is_valid() {
        // Deterministic pseudo-random multigraph input.
        let n = 5000u32;
        let edges: Vec<(u32, u32)> = (0..40_000u64)
            .map(|i| {
                let h = parscan_parallel::utils::hash64(i);
                ((h % n as u64) as u32, ((h >> 32) % n as u64) as u32)
            })
            .collect();
        let g = from_edges(n as usize, &edges);
        assert_eq!(g.validate(), Ok(()));
        assert!(g.num_edges() > 30_000);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let perm = vec![3, 2, 1, 0];
        let h = relabel(&g, &perm);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.neighbors(3), &[2]); // old 0-1 becomes 3-2
        assert_eq!(h.neighbors(0), &[1]);
    }
}
