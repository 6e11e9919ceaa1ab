//! Workload inputs, made from the seed alone.
//!
//! The library's seeded generators currently return different graphs at
//! different pool widths (they seed one RNG per chunk, and the chunk
//! count follows the active thread count). Every graph here is therefore
//! generated with the pool narrowed to one active thread, and checked
//! against the (n, m, CSR checksum) pinned for its seed in `pins.txt`,
//! so a run at any thread count measures the same graph.

use parscan_graph::{generators, CsrGraph};
use parscan_parallel::pool;

/// R-MAT scale and edge factor for `build` and `explore`: n = 131,072
/// with a heavy-tailed degree distribution (m ≈ 1.86M after dedup).
pub const RMAT_SCALE: u32 = 17;
pub const RMAT_EDGE_FACTOR: usize = 16;
/// Planted-partition graph for `serve`: n = 20,000, average degree 16.
pub const SBM_N: usize = 20_000;
pub const SBM_COMMUNITIES: usize = 16;
pub const SBM_DEG: f64 = 16.0;

const PINS: &str = include_str!("../pins.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Rmat,
    Sbm,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rmat => "rmat",
            Kind::Sbm => "sbm",
        }
    }

    /// The graph size parameter recorded as `env.scale`.
    pub fn scale(self) -> String {
        match self {
            Kind::Rmat => format!("rmat-{RMAT_SCALE}x{RMAT_EDGE_FACTOR}"),
            Kind::Sbm => format!("sbm-{SBM_N}x{SBM_DEG}"),
        }
    }
}

pub struct Input {
    pub graph: CsrGraph,
    pub checksum: u64,
    /// Whether `pins.txt` has an entry for this (kind, seed).
    pub pinned: bool,
}

/// Generate the workload graph for `seed` on one pool thread, restoring
/// the pool width afterwards. Errors when the graph differs from the
/// values pinned for that seed.
pub fn generate(kind: Kind, seed: u64) -> Result<Input, String> {
    let width = pool::num_threads();
    pool::set_active_threads(1);
    let graph = match kind {
        Kind::Rmat => generators::rmat(RMAT_SCALE, RMAT_EDGE_FACTOR, seed),
        Kind::Sbm => {
            generators::planted_partition(
                SBM_N,
                SBM_COMMUNITIES,
                SBM_DEG * 0.85,
                SBM_DEG * 0.15,
                seed,
            )
            .0
        }
    };
    pool::set_active_threads(width);
    let checksum = csr_checksum(&graph);
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let pinned = match pin(kind, seed) {
        None => false,
        Some(want) if want == (n, m, checksum) => true,
        Some((pn, pm, pc)) => {
            return Err(format!(
                "{} seed {seed}: generated n={n} m={m} checksum={checksum:016x}, \
                 pinned n={pn} m={pm} checksum={pc:016x}",
                kind.name()
            ))
        }
    };
    Ok(Input {
        graph,
        checksum,
        pinned,
    })
}

/// Record the input's size and whether it was checked against a pin.
pub fn record(r: &mut crate::report::Report, input: &Input) {
    r.metric("graph.edges", input.graph.num_edges() as f64, "count");
    r.check(
        "input.pinned",
        true,
        if input.pinned {
            "n, m and CSR checksum match pins.txt"
        } else {
            "no pin for this seed"
        },
    );
}

fn pin(kind: Kind, seed: u64) -> Option<(usize, usize, u64)> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 5 || f[0] != kind.name() || f[1].parse::<u64>().ok()? != seed {
                return None;
            }
            Some((
                f[2].parse().ok()?,
                f[3].parse().ok()?,
                u64::from_str_radix(f[4], 16).ok()?,
            ))
        })
}

/// FNV-1a over the CSR arrays (offsets, neighbors, weights).
pub fn csr_checksum(g: &CsrGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let (offsets, neighbors, weights) = g.parts();
    for &o in offsets {
        eat(&(o as u64).to_le_bytes());
    }
    for &x in neighbors {
        eat(&x.to_le_bytes());
    }
    for &w in weights.unwrap_or(&[]) {
        eat(&w.to_bits().to_le_bytes());
    }
    h
}

/// Print `pins.txt` lines for seeds `from..=to` of both graph kinds.
pub fn print_pins(from: u64, to: u64) -> Result<(), String> {
    for kind in [Kind::Rmat, Kind::Sbm] {
        for seed in from..=to {
            let input = generate(kind, seed)?;
            println!(
                "{} {seed} {} {} {:016x}",
                kind.name(),
                input.graph.num_vertices(),
                input.graph.num_edges(),
                input.checksum
            );
        }
    }
    Ok(())
}

/// A small deterministic generator for the request streams (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
