//! `build`: in-process, closed loop. Repeatedly builds the index of a
//! skewed R-MAT graph, saves it as a snapshot and loads it back. Nearly
//! all time is in the similarity kernel, the two orders, the parallel
//! substrate under them, and persistence; none is in the server.

use crate::inputs::{self, Kind};
use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::{Ctx, ACCOUNTING_TOLERANCE};
use parscan_core::persist::atomic_write;
use parscan_core::similarity_exact::compute_merge_based;
use parscan_core::{CoreOrder, IndexConfig, NeighborOrder, ScanIndex, SortStrategy};
use parscan_graph::{io, CsrGraph};
use parscan_parallel::pool;
use std::path::Path;
use std::time::Instant;

/// One operation of a cycle: its name, the layer spans on its blocking
/// path, and its untraced time.
type BlockingPath = (&'static str, &'static [&'static str], fn(&Cycle) -> f64);

/// Input reads timed before the first cycle, on top of the one each cycle
/// makes, so the set-up median rests on enough samples.
const SETUP_READS: usize = 6;

/// Times of one build → save → load cycle, in seconds.
struct Cycle {
    build: f64,
    save: f64,
    load: f64,
}

pub fn run(ctx: &Ctx, r: &mut Report, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
    let input = inputs::generate(Kind::Rmat, ctx.seed)?;
    inputs::record(r, &input);
    let graph_file = ctx.work.join("graph.bin");
    io::write_binary(&input.graph, &graph_file).map_err(|e| e.to_string())?;
    // Flush it to disk now, so write-back does not overlap the timed reads.
    std::fs::File::open(&graph_file)
        .and_then(|f| f.sync_all())
        .map_err(|e| e.to_string())?;
    drop(input.graph);

    // Set-up: read the input graph, as `parscan index <graph>` does. Every
    // cycle reads its own copy, and `SETUP_READS` more are taken up front;
    // `setup_s` is the median of all of them.
    let mut reads = Vec::new();
    let mut read_input = || -> Result<CsrGraph, String> {
        let t = Instant::now();
        let g = io::read_binary(&graph_file).map_err(|e| e.to_string())?;
        reads.push(t.elapsed().as_secs_f64());
        Ok(g)
    };
    for _ in 0..SETUP_READS {
        drop(read_input()?);
    }
    let graph = read_input()?;
    r.check(
        "input.roundtrip",
        inputs::csr_checksum(&graph) == input.checksum,
        "graph file reads back to the generated CSR",
    );

    let snapshot = ctx.work.join("index.pscidx");
    // With tracing, untraced and traced cycles alternate for two thirds of
    // the run, so both see the same machine conditions; the 1-thread pass
    // for parallel efficiency takes the rest.
    let budget = if tracer.is_some() {
        ctx.seconds * 2 / 3
    } else {
        ctx.seconds
    };
    let mut cycles = Vec::new();
    let mut snapshot_ok = true;
    let mut traced_ok = true;
    let mut traced_s = Vec::new();
    let loop_start = Instant::now();
    let min_cycles = if tracer.is_some() { 3 } else { 2 };
    while cycles.len() < min_cycles || loop_start.elapsed() < budget {
        let (cycle, ok) = untraced_cycle(read_input()?, &snapshot, r)?;
        snapshot_ok &= ok;
        cycles.push(cycle);
        if let Some(t) = tracer.as_deref_mut() {
            let (ok, secs) = traced_cycle(t, read_input()?, &snapshot, cycles.len() as u64)?;
            traced_ok &= ok;
            traced_s.push(secs);
        }
    }
    r.metric("setup_s", median(&reads), "s");
    r.metric("graph.io.read_s", median(&reads), "s");
    r.metric("input_reads", reads.len() as f64, "count");
    r.check(
        "build.snapshot_roundtrip",
        snapshot_ok,
        format!(
            "loaded snapshot bytes equal the built index's on {} cycles",
            cycles.len()
        ),
    );
    r.attempted = cycles.len() as u64;
    r.failed = if snapshot_ok { 0 } else { cycles.len() as u64 };
    let builds: Vec<f64> = cycles.iter().map(|c| c.build).collect();
    let saves: Vec<f64> = cycles.iter().map(|c| c.save).collect();
    let loads: Vec<f64> = cycles.iter().map(|c| c.load).collect();
    let (build_s, save_s, load_s) = (median(&builds), median(&saves), median(&loads));
    r.metric("builds", cycles.len() as f64, "count");
    r.metric("build_s", build_s, "s");
    r.metric("save_s", save_s, "s");
    r.metric("load_s", load_s, "s");
    r.metric("op_p50_ms", build_s * 1e3, "ms");
    let busy: f64 = cycles.iter().map(|c| c.build + c.save + c.load).sum();
    r.metric("ops_per_s", cycles.len() as f64 / busy, "1/s");
    r.metric(
        "failed_frac",
        r.failed as f64 / r.attempted as f64,
        "fraction",
    );
    let pid = std::process::id().to_string();
    r.metric(
        "peak_rss_mib",
        crate::server::peak_rss_mib(&pid).unwrap_or(0.0),
        "MiB",
    );

    if let Some(t) = tracer {
        r.check(
            "build.traced_roundtrip",
            traced_ok,
            "the decomposed build saves and reloads to identical bytes",
        );
        layers(r, t, &graph, &cycles, &traced_s);
    }
    Ok(())
}

/// One untraced cycle: build (with its ε-breakpoints, which
/// every served index needs), save, load; then check the loaded index
/// encodes to the very bytes that were saved.
fn untraced_cycle(g: CsrGraph, snapshot: &Path, r: &mut Report) -> Result<(Cycle, bool), String> {
    let t = Instant::now();
    let index = ScanIndex::build(g, IndexConfig::default());
    std::hint::black_box(index.similarities().breakpoints().len());
    let build = t.elapsed().as_secs_f64();
    let t = Instant::now();
    index.save(snapshot).map_err(|e| e.to_string())?;
    let save = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = ScanIndex::load(snapshot).map_err(|e| e.to_string())?;
    let load = t.elapsed().as_secs_f64();

    // One snapshot-sized buffer at a time, so verification does not set
    // the peak memory the run reports.
    let built = checksum(&index.to_snapshot_bytes());
    let file = std::fs::read(snapshot).map_err(|e| e.to_string())?;
    r.metric("core.persist.snapshot_bytes", file.len() as f64, "bytes");
    let on_disk = checksum(&file);
    drop(file);
    let reloaded = checksum(&loaded.to_snapshot_bytes());
    r.metric(
        "core.index.memory_bytes",
        index.memory_bytes() as f64,
        "bytes",
    );
    Ok((
        Cycle { build, save, load },
        built == on_disk && on_disk == reloaded,
    ))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn checksum(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), parscan_core::persist::checksum64(bytes))
}

/// One traced cycle: the build, save and load decomposed into the public
/// calls `ScanIndex::build`, `save` and `load` make, each in a span, with
/// the same round-trip check as the untraced cycle. Returns the check and
/// the cycle's traced time in seconds.
fn traced_cycle(
    t: &mut Tracer,
    g: CsrGraph,
    snapshot: &Path,
    rid: u64,
) -> Result<(bool, f64), String> {
    let measure = IndexConfig::default().measure;
    let root = t.begin("build", rid);
    let sims = t.time("core.similarity_exact", rid, || {
        compute_merge_based(&g, measure)
    });
    let no = t.time("core.neighbor_order", rid, || {
        NeighborOrder::build(&g, &sims, SortStrategy::Integer)
    });
    let co = t.time("core.core_order", rid, || {
        CoreOrder::build(&g, &no, SortStrategy::Integer)
    });
    t.time("core.similarity_exact.breakpoints", rid, || {
        std::hint::black_box(sims.breakpoints().len())
    });
    let index = ScanIndex::from_existing_parts(g, sims, no, co, measure);
    t.end(root);
    let mut secs = t.span_ms(root) / 1e3;

    let root = t.begin("save", rid);
    let bytes = t.time("core.persist.encode", rid, || index.to_snapshot_bytes());
    t.time("core.persist.write", rid, || atomic_write(snapshot, &bytes))
        .map_err(|e| e.to_string())?;
    t.end(root);
    secs += t.span_ms(root) / 1e3;
    let saved = checksum(&bytes);
    drop(bytes);

    let root = t.begin("load", rid);
    let file = t
        .time("core.persist.read", rid, || std::fs::read(snapshot))
        .map_err(|e| e.to_string())?;
    let loaded = t
        .time("core.persist.decode", rid, || {
            ScanIndex::from_snapshot_bytes(&file)
        })
        .map_err(|e| e.to_string())?;
    t.end(root);
    secs += t.span_ms(root) / 1e3;
    drop(file);
    Ok((checksum(&loaded.to_snapshot_bytes()) == saved, secs))
}

/// Per-layer metrics from the traced cycles, the accounting check, and
/// the three construction phases again at one thread for parallel
/// efficiency.
fn layers(r: &mut Report, t: &Tracer, graph: &CsrGraph, untraced: &[Cycle], traced_s: &[f64]) {
    let measure = IndexConfig::default().measure;
    let s = |name: &str| median(&t.self_ms(name)) / 1e3;
    let phases = [
        ("core.similarity_exact", "core.similarity_exact.busy_s"),
        ("core.neighbor_order", "core.neighbor_order.busy_s"),
        ("core.core_order", "core.core_order.busy_s"),
    ];
    for (span, metric) in phases {
        r.metric(metric, s(span), "s");
    }
    for span in [
        "core.similarity_exact.breakpoints",
        "core.persist.encode",
        "core.persist.write",
        "core.persist.read",
        "core.persist.decode",
    ] {
        r.metric(&format!("{span}_s"), s(span), "s");
    }

    // Accounting. A cycle's blocking path is build → save → load; each
    // traced cycle runs right after an untraced one, and the layers' self
    // times in the traced cycle must add up to the untraced cycle's time:
    // the median over cycle pairs of layers / untraced is 1 within the
    // tolerance. The per-operation ratios are printed too; a single
    // ~0.2 s save or load swings by up to 16% between neighbouring runs on
    // a shared 2-core host, so only the whole cycle is checked.
    let paths: [BlockingPath; 3] = [
        (
            "build",
            &[
                "core.similarity_exact",
                "core.neighbor_order",
                "core.core_order",
                "core.similarity_exact.breakpoints",
            ],
            |c| c.build,
        ),
        (
            "save",
            &["core.persist.encode", "core.persist.write"],
            |c| c.save,
        ),
        ("load", &["core.persist.read", "core.persist.decode"], |c| {
            c.load
        }),
    ];
    let mut layer_sum = vec![0.0; untraced.len()];
    for (op, names, e2e) in paths {
        let per_layer: Vec<Vec<f64>> = names.iter().map(|n| t.self_ms(n)).collect();
        let ratios: Vec<f64> = untraced
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let layers = per_layer.iter().map(|v| v[i] / 1e3).sum::<f64>();
                layer_sum[i] += layers;
                layers / e2e(c)
            })
            .collect();
        r.metric(&format!("accounting.{op}_ratio"), median(&ratios), "ratio");
    }
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(&layer_sum)
        .map(|(c, layers)| layers / (c.build + c.save + c.load))
        .collect();
    let worst = (median(&ratios) - 1.0).abs();
    r.check(
        "accounting.cycle",
        worst <= ACCOUNTING_TOLERANCE,
        format!(
            "layers / untraced build+save+load over {} cycle pairs: median {:.3} \
             (tolerance {ACCOUNTING_TOLERANCE})",
            ratios.len(),
            median(&ratios)
        ),
    );
    r.metric("trace.accounting_gap", worst, "fraction");

    // Parallel efficiency: T(1) / (p · T(p)) per construction phase, on
    // the identical graph.
    let p = pool::num_threads();
    pool::set_active_threads(1);
    let (sims, t1_sims) = timed(|| compute_merge_based(graph, measure));
    let (no, t1_no) = timed(|| NeighborOrder::build(graph, &sims, SortStrategy::Integer));
    let (_, t1_co) = timed(|| CoreOrder::build(graph, &no, SortStrategy::Integer));
    pool::set_active_threads(p);
    for (((_, busy), t1), eff) in phases.iter().zip([t1_sims, t1_no, t1_co]).zip([
        "core.similarity_exact.par_eff",
        "core.neighbor_order.par_eff",
        "core.core_order.par_eff",
    ]) {
        let tp = r.get(busy).unwrap_or(0.0);
        r.metric(eff, t1 / (p as f64 * tp), "ratio");
    }

    // Tracing overhead: each traced cycle against the untraced one just
    // before it.
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(traced_s)
        .map(|(c, traced)| {
            let bare = c.build + c.save + c.load;
            (traced - bare) / bare
        })
        .collect();
    r.metric("trace.spans", t.len() as f64, "count");
    r.metric("trace.overhead", median(&overhead), "fraction");
}
