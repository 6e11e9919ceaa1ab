//! The core order CO (§3.2, Algorithm 2): for every `μ ≥ 2`, the list of
//! vertices whose closed neighborhood has at least `μ` members
//! (`deg(v) ≥ μ - 1`), sorted by non-increasing *core threshold* — the
//! largest ε at which the vertex is still a core for that μ. Thresholds
//! come straight out of the neighbor order: `threshold(v, μ) = NO[v][μ]`
//! (counting the implicit self entry).
//!
//! The flattened structure holds `Σ_v deg(v) = 2m` entries total, matching
//! GS*-Index's `O(m)` space bound. Like the neighbor order, it can be
//! built with one global integer sort (Thm 4.2) or comparison sorts.
//! After a batch update, `CoreOrder::update` derives the new order from
//! the old one by a per-μ merge, with no global sort.

use crate::index::SortStrategy;
use crate::neighbor_order::NeighborOrder;
use parscan_graph::{CsrGraph, VertexId};
use parscan_parallel::prefix::exclusive_scan_usize;
use parscan_parallel::primitives::{par_for, par_map};
use parscan_parallel::radix::par_radix_sort_by_key;
use parscan_parallel::sort::par_sort_unstable_by;
use parscan_parallel::utils::SyncMutPtr;
use std::cmp::Reverse;

/// Core order: concatenated `CO[μ]` lists for `μ ∈ [2, max_mu]`.
#[derive(Clone, Debug)]
pub struct CoreOrder {
    /// `mu_offsets[μ - 2] .. mu_offsets[μ - 1]` bounds `CO[μ]`'s entries.
    mu_offsets: Vec<usize>,
    /// Vertices, per μ sorted by (threshold desc, id asc).
    vertices: Vec<VertexId>,
    /// Core thresholds aligned with `vertices`.
    thresholds: Vec<f32>,
}

#[derive(Clone, Copy)]
struct Entry {
    mu: u32,
    threshold: f32,
    v: VertexId,
}

impl CoreOrder {
    /// Largest μ with a non-empty `CO[μ]` (`max closed degree`); 1 if the
    /// graph has no edges (so every `CO[μ]`, μ ≥ 2, is empty).
    pub fn max_mu(&self) -> u32 {
        self.mu_offsets.len() as u32
    }

    /// Build the core order from the neighbor order.
    // clippy::uninit_vec: the entries buffer is Copy and every slot is
    // written by the disjoint per-vertex ranges before any read.
    #[allow(clippy::uninit_vec)]
    pub fn build(g: &CsrGraph, no: &NeighborOrder, strategy: SortStrategy) -> Self {
        let n = g.num_vertices();
        let max_mu = g.max_degree() as u32 + 1; // closed degree
        if max_mu < 2 {
            return Self::empty();
        }

        // Emit one entry per (v, μ) pair, μ ∈ [2, deg(v) + 1]; vertex-major
        // order makes ties id-ordered under a stable sort.
        let per_vertex: Vec<usize> = par_map(n, 2048, |v| g.degree(v as VertexId));
        let (starts, total) = exclusive_scan_usize(&per_vertex);
        debug_assert_eq!(total, g.num_slots());
        let mut entries: Vec<Entry> = Vec::with_capacity(total);
        // SAFETY: all elements written below; Entry is Copy.
        unsafe { entries.set_len(total) };
        let ptr = SyncMutPtr::new(&mut entries);
        par_for(n, 256, |v| {
            let vid = v as VertexId;
            let mut pos = starts[v];
            for mu in 2..=(g.degree(vid) as u32 + 1) {
                let threshold = no
                    .core_threshold(g, vid, mu)
                    .expect("mu within closed degree");
                // SAFETY: per-vertex output ranges are disjoint.
                unsafe {
                    ptr.write(
                        pos,
                        Entry {
                            mu,
                            threshold,
                            v: vid,
                        },
                    )
                };
                pos += 1;
            }
        });

        // Sort by (μ asc, threshold desc, id asc).
        match strategy {
            SortStrategy::Integer => {
                // Stable radix keeps the vertex-major id order on ties.
                let max_key = ((max_mu as u64) << 32) | 0xffff_ffff;
                par_radix_sort_by_key(
                    &mut entries,
                    |e| ((e.mu as u64) << 32) | (!(e.threshold.to_bits()) as u64 & 0xffff_ffff),
                    Some(max_key),
                );
            }
            SortStrategy::Comparison => {
                par_sort_unstable_by(&mut entries, |a, b| {
                    a.mu.cmp(&b.mu)
                        .then(
                            b.threshold
                                .partial_cmp(&a.threshold)
                                .expect("finite thresholds"),
                        )
                        .then(a.v.cmp(&b.v))
                });
            }
        }

        // Per-μ offsets by binary search (μ range is small: max degree).
        let n_mus = (max_mu - 1) as usize; // μ = 2 ..= max_mu
        let mu_offsets: Vec<usize> = par_map(n_mus + 1, 64, |i| {
            let mu = i as u32 + 2;
            entries.partition_point(|e| e.mu < mu)
        });
        let vertices = par_map(total, 8192, |i| entries[i].v);
        let thresholds = par_map(total, 8192, |i| entries[i].threshold);
        CoreOrder {
            mu_offsets,
            vertices,
            thresholds,
        }
    }

    /// The core order of an edgeless graph.
    fn empty() -> Self {
        CoreOrder {
            mu_offsets: vec![0],
            vertices: Vec::new(),
            thresholds: Vec::new(),
        }
    }

    /// Derive the core order of `new_g` from this order of `old_g` after a
    /// batch update ([`crate::dynamic`]), without a global sort. A vertex
    /// outside `dirty` keeps its degree and its `NO` segment, hence every
    /// one of its `(μ, threshold)` entries. So each new `CO[μ]` is the old
    /// one with the dirty vertices filtered out, merged with their fresh
    /// entries from `new_no`; the merges run in parallel over μ. The order
    /// is the radix key of [`Self::build`] (threshold bits descending, id
    /// ascending), so the result is bitwise identical to a full build.
    ///
    /// `dirty_list` holds exactly the vertices flagged in `dirty`.
    pub(crate) fn update(
        &self,
        old_g: &CsrGraph,
        new_g: &CsrGraph,
        new_no: &NeighborOrder,
        dirty: &[bool],
        dirty_list: &[VertexId],
    ) -> Self {
        let max_mu = new_g.max_degree() as u32 + 1;
        if max_mu < 2 {
            return Self::empty();
        }
        let n_mus = (max_mu - 1) as usize; // μ = 2 ..= max_mu

        let mut fresh: Vec<Entry> = dirty_list
            .iter()
            .flat_map(|&v| {
                (2..=new_g.degree(v) as u32 + 1).map(move |mu| Entry {
                    mu,
                    threshold: new_no
                        .core_threshold(new_g, v, mu)
                        .expect("mu within closed degree"),
                    v,
                })
            })
            .collect();
        fresh.sort_unstable_by_key(|e| (e.mu, Reverse(e.threshold.to_bits()), e.v));
        // fresh[fresh_offsets[i] .. fresh_offsets[i + 1]] are CO[i + 2]'s.
        let fresh_offsets: Vec<usize> = (0..=n_mus)
            .map(|i| fresh.partition_point(|e| (e.mu as usize) < i + 2))
            .collect();

        // New sizes: old size, minus the dirty vertices' old entries, plus
        // their fresh ones. Old entries above the new max μ all belong to
        // dirty vertices (their degree fell), so they vanish with CO[μ].
        let mut counts: Vec<usize> = (0..n_mus)
            .map(|i| {
                let old = self
                    .mu_offsets
                    .get(i + 1)
                    .map_or(0, |&e| e - self.mu_offsets[i]);
                old + fresh_offsets[i + 1] - fresh_offsets[i]
            })
            .collect();
        for &v in dirty_list {
            for count in &mut counts[..old_g.degree(v).min(n_mus)] {
                *count -= 1;
            }
        }
        let (mut mu_offsets, total) = exclusive_scan_usize(&counts);
        mu_offsets.push(total);
        debug_assert_eq!(total, new_g.num_slots());

        let mut vertices = vec![0 as VertexId; total];
        let mut thresholds = vec![0f32; total];
        let v_ptr = SyncMutPtr::new(&mut vertices);
        let t_ptr = SyncMutPtr::new(&mut thresholds);
        par_for(n_mus, 1, |i| {
            let out = mu_offsets[i]..mu_offsets[i + 1];
            // SAFETY: per-μ output ranges are disjoint.
            let (out_v, out_t) = unsafe {
                (
                    v_ptr.slice_mut(out.start, out.len()),
                    t_ptr.slice_mut(out.start, out.len()),
                )
            };
            let (old_v, old_t) = self.candidates(i as u32 + 2);
            let mut fresh = fresh[fresh_offsets[i]..fresh_offsets[i + 1]]
                .iter()
                .peekable();
            let mut k = 0;
            for (&v, &t) in old_v.iter().zip(old_t) {
                if dirty[v as usize] {
                    continue;
                }
                let key = (Reverse(t.to_bits()), v);
                while let Some(e) = fresh.next_if(|e| (Reverse(e.threshold.to_bits()), e.v) < key) {
                    (out_v[k], out_t[k]) = (e.v, e.threshold);
                    k += 1;
                }
                (out_v[k], out_t[k]) = (v, t);
                k += 1;
            }
            for e in fresh {
                (out_v[k], out_t[k]) = (e.v, e.threshold);
                k += 1;
            }
            debug_assert_eq!(k, out.len());
        });
        CoreOrder {
            mu_offsets,
            vertices,
            thresholds,
        }
    }

    /// `CO[μ]`: candidate cores and their thresholds, sorted by
    /// non-increasing threshold. Empty when `μ` exceeds every closed degree.
    pub fn candidates(&self, mu: u32) -> (&[VertexId], &[f32]) {
        assert!(mu >= 2, "SCAN requires μ ≥ 2");
        let i = (mu - 2) as usize;
        if i + 1 >= self.mu_offsets.len() {
            return (&[], &[]);
        }
        let range = self.mu_offsets[i]..self.mu_offsets[i + 1];
        (&self.vertices[range.clone()], &self.thresholds[range])
    }

    /// The cores for `(μ, ε)`: the prefix of `CO[μ]` with threshold ≥ ε,
    /// located by doubling search (Algorithm 3).
    pub fn cores(&self, mu: u32, epsilon: f32) -> &[VertexId] {
        let (vs, ths) = self.candidates(mu);
        let len = crate::doubling::doubling_search_prefix(ths, |&t| t >= epsilon);
        &vs[..len]
    }

    /// The raw flattened arrays (μ offsets, vertices, thresholds) — used by
    /// the index persistence code.
    pub fn parts(&self) -> (&[usize], &[VertexId], &[f32]) {
        (&self.mu_offsets, &self.vertices, &self.thresholds)
    }

    /// Rebuild from raw parts (the inverse of [`Self::parts`]). The caller
    /// is responsible for structural validity; [`Self::validate`] checks it.
    ///
    /// # Panics
    /// Panics on misaligned arrays or non-monotone offsets.
    pub fn from_parts(
        mu_offsets: Vec<usize>,
        vertices: Vec<VertexId>,
        thresholds: Vec<f32>,
    ) -> Self {
        assert_eq!(
            vertices.len(),
            thresholds.len(),
            "misaligned core-order parts"
        );
        assert!(!mu_offsets.is_empty(), "core order needs ≥ 1 offset");
        assert!(
            mu_offsets.windows(2).all(|w| w[0] <= w[1]),
            "core-order offsets must be non-decreasing"
        );
        assert_eq!(
            *mu_offsets.last().unwrap(),
            vertices.len(),
            "core-order offsets must end at the entry count"
        );
        CoreOrder {
            mu_offsets,
            vertices,
            thresholds,
        }
    }

    /// Validate invariants against the graph and neighbor order.
    pub fn validate(&self, g: &CsrGraph, no: &NeighborOrder) -> Result<(), String> {
        for mu in 2..=self.max_mu().max(1) {
            let (vs, ths) = self.candidates(mu);
            let expect_members = (0..g.num_vertices() as VertexId)
                .filter(|&v| g.degree(v) + 1 >= mu as usize)
                .count();
            if vs.len() != expect_members {
                return Err(format!(
                    "CO[{mu}] has {} entries, expected {expect_members}",
                    vs.len()
                ));
            }
            for k in 0..vs.len() {
                if k > 0 && ths[k - 1] < ths[k] {
                    return Err(format!("CO[{mu}] thresholds increase at {k}"));
                }
                if k > 0 && ths[k - 1] == ths[k] && vs[k - 1] >= vs[k] {
                    return Err(format!("CO[{mu}] tie not id-ordered at {k}"));
                }
                let want = no
                    .core_threshold(g, vs[k], mu)
                    .ok_or_else(|| format!("CO[{mu}] member {} too small", vs[k]))?;
                if want != ths[k] {
                    return Err(format!(
                        "CO[{mu}] threshold mismatch for {}: {} vs {want}",
                        vs[k], ths[k]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::SimilarityMeasure;
    use crate::similarity_exact::compute_merge_based;
    use parscan_graph::generators;

    fn build(g: &CsrGraph, strategy: SortStrategy) -> (NeighborOrder, CoreOrder) {
        let sims = compute_merge_based(g, SimilarityMeasure::Cosine);
        let no = NeighborOrder::build(g, &sims, strategy);
        let co = CoreOrder::build(g, &no, strategy);
        (no, co)
    }

    #[test]
    fn figure1_core_order() {
        let g = generators::paper_figure1();
        let (no, co) = build(&g, SortStrategy::Integer);
        assert_eq!(co.validate(&g, &no), Ok(()));
        assert_eq!(co.max_mu(), 5); // vertex 3 has closed degree 5

        // Paper Figure 3: CO[5] contains only paper-vertex 4 (ours: 3)
        // with threshold .52.
        let (vs, ths) = co.candidates(5);
        assert_eq!(vs, &[3]);
        assert!((ths[0] - 0.516).abs() < 0.005);

        // CO[3] members: vertices with closed degree ≥ 3 (deg ≥ 2): all
        // but paper 10 and 11 (ours 9, 10) — nine vertices.
        let (vs, _) = co.candidates(3);
        assert_eq!(vs.len(), 9);
        assert!(!vs.contains(&9) && !vs.contains(&10));
    }

    #[test]
    fn figure1_cores_at_paper_params() {
        let g = generators::paper_figure1();
        let (_, co) = build(&g, SortStrategy::Integer);
        // (μ, ε) = (3, 0.6): cores are paper {1,2,3,4,6,7,8} → ours shifted.
        let mut cores = co.cores(3, 0.6).to_vec();
        cores.sort_unstable();
        assert_eq!(cores, vec![0, 1, 2, 3, 5, 6, 7]);
    }

    #[test]
    fn strategies_identical() {
        let g = generators::erdos_renyi(300, 2500, 12);
        let (_, a) = build(&g, SortStrategy::Comparison);
        let (_, b) = build(&g, SortStrategy::Integer);
        assert_eq!(a.mu_offsets, b.mu_offsets);
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.thresholds, b.thresholds);
    }

    #[test]
    fn cores_monotone_in_epsilon_and_mu() {
        let g = generators::rmat(9, 10, 6);
        let (_, co) = build(&g, SortStrategy::Integer);
        for mu in [2u32, 3, 5, 8] {
            let mut prev = usize::MAX;
            for eps in [0.0f32, 0.2, 0.4, 0.6, 0.8, 1.0] {
                let count = co.cores(mu, eps).len();
                assert!(count <= prev, "cores not monotone in ε");
                prev = count;
            }
        }
        // More selective μ never yields more cores at fixed ε.
        for eps in [0.1f32, 0.5] {
            let mut prev = usize::MAX;
            for mu in 2..10u32 {
                let count = co.cores(mu, eps).len();
                assert!(count <= prev, "cores not monotone in μ at ε={eps}");
                prev = count;
            }
        }
    }

    #[test]
    fn empty_when_mu_exceeds_degrees() {
        let g = generators::path(5); // max degree 2 → max μ = 3
        let (_, co) = build(&g, SortStrategy::Integer);
        assert_eq!(co.cores(4, 0.0), &[] as &[u32]);
        assert_eq!(co.cores(100, 0.0), &[] as &[u32]);
        // μ = 2 at ε = 0: every vertex with ≥ 1 neighbor qualifies.
        assert_eq!(co.cores(2, 0.0).len(), 5);
    }

    #[test]
    fn edgeless_graph() {
        let g = parscan_graph::from_edges(4, &[]);
        let (no, co) = build(&g, SortStrategy::Integer);
        assert_eq!(co.validate(&g, &no), Ok(()));
        assert_eq!(co.cores(2, 0.0), &[] as &[u32]);
    }
}
