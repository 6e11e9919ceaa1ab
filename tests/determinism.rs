//! Seeded inputs and the index built on them are identical at every
//! thread count. Each test sweeps the global pool from one thread to its
//! full width with `set_active_threads`, so this file is its own test
//! binary, and the tests in it take turns through [`width_lock`].

use parscan::core::index::{ExactStrategy, SortStrategy};
use parscan::graph::generators;
use parscan::parallel::pool;
use parscan::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests here: each one changes the pool's global width.
fn width_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything the index derives from a graph, compared bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    graph: CsrGraph,
    sims: Vec<u32>,
    no: (Vec<u32>, Vec<u32>),
    co: (Vec<usize>, Vec<u32>, Vec<u32>),
    snapshot: Vec<u8>,
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn fingerprint(graph: CsrGraph, config: IndexConfig) -> Fingerprint {
    let index = ScanIndex::build(graph.clone(), config);
    let (no_nbr, no_sim) = index.neighbor_order().parts();
    let (co_offsets, co_vertices, co_thresholds) = index.core_order().parts();
    Fingerprint {
        graph,
        sims: bits(index.similarities().as_slice()),
        no: (no_nbr.to_vec(), bits(no_sim)),
        co: (
            co_offsets.to_vec(),
            co_vertices.to_vec(),
            bits(co_thresholds),
        ),
        snapshot: index.to_snapshot_bytes(),
    }
}

/// Generate a graph and index it at every width from 1 to the pool's
/// maximum, and require each result to equal the one-thread result.
/// Each generator draws well over 8 × 4,096 edges, so a chunk layout
/// that scaled with the thread count would change the graph.
fn assert_identical_at_every_width(generate: impl Fn() -> CsrGraph) {
    let _lock = width_lock();
    pool::set_active_threads(1);
    let want = fingerprint(generate(), IndexConfig::default());
    for width in 2..=pool::max_threads() {
        pool::set_active_threads(width);
        let got = fingerprint(generate(), IndexConfig::default());
        assert_eq!(
            got.graph.num_edges(),
            want.graph.num_edges(),
            "edge count differs at {width} threads"
        );
        assert!(got == want, "index differs at {width} threads");
    }
    pool::set_active_threads(usize::MAX);
}

#[test]
fn erdos_renyi_is_identical_at_every_thread_count() {
    assert_identical_at_every_width(|| generators::erdos_renyi(16_384, 40_000, 3));
}

#[test]
fn rmat_is_identical_at_every_thread_count() {
    assert_identical_at_every_width(|| generators::rmat(12, 10, 5));
}

#[test]
fn planted_partition_is_identical_at_every_thread_count() {
    assert_identical_at_every_width(|| generators::planted_partition(8_000, 8, 10.0, 2.0, 7).0);
}

#[test]
fn weighted_planted_partition_is_identical_at_every_thread_count() {
    assert_identical_at_every_width(|| {
        generators::weighted_planted_partition(8_000, 8, 10.0, 2.0, 9).0
    });
}

/// The index half on its own: one graph, every construction strategy.
#[test]
fn every_construction_strategy_is_identical_at_every_thread_count() {
    let _lock = width_lock();
    pool::set_active_threads(1);
    let graph = generators::rmat(11, 8, 13);
    for exact in [
        ExactStrategy::MergeBased,
        ExactStrategy::HashBased,
        ExactStrategy::FullMerge,
    ] {
        for sort in [SortStrategy::Integer, SortStrategy::Comparison] {
            let config = IndexConfig {
                exact,
                sort,
                ..Default::default()
            };
            pool::set_active_threads(1);
            let want = fingerprint(graph.clone(), config);
            for width in 2..=pool::max_threads() {
                pool::set_active_threads(width);
                let got = fingerprint(graph.clone(), config);
                assert!(got == want, "{exact:?}/{sort:?} differs at {width} threads");
            }
        }
    }
    pool::set_active_threads(usize::MAX);
}
