//! `explore`: the analyst from the paper. One connection runs a closed
//! loop of `CLUSTER μ ε` against `parscan serve` on the R-MAT snapshot,
//! over μ ∈ powers of two and ε at quantiles of the index's similarity
//! breakpoints, in a stratified order. Every request is a distinct
//! (μ, ε-class), so none can hit the result cache: the load lands on the
//! query layer (CO prefix lookups, core connectivity, borders), with
//! outputs from empty to most of the graph.

use crate::inproc::{Paired, Stack};
use crate::inputs::{self, Kind};
use crate::report::{self, median, Report};
use crate::server::{self, Server};
use crate::trace::{self, Tracer};
use crate::Ctx;
use parscan_core::{BorderAssignment, IndexConfig, QueryOptions, QueryParams, ScanIndex};
use parscan_server::{EngineConfig, GraphRegistry, QueryEngine, RegistryConfig};
use std::sync::Arc;
use std::time::Instant;

const MUS: [u32; 8] = [2, 4, 8, 16, 32, 64, 128, 256];
/// ε quantiles per μ (a power of two): far more (μ, ε) pairs than a 10 s
/// run sends. A run that sends them all ends early rather than repeat one.
const EPS_POINTS: usize = 2048;
/// Result-cache capacity of the explore server. Every request is distinct,
/// so the cache never hits; a small one keeps the server's peak memory to
/// the index and the query working set, instead of allocator slack around
/// the default 128 cached O(n) results (which spread 12% across seeds).
const CACHE: usize = 16;
/// How many times set-up (spawn to first PONG) is measured per run.
const SETUPS: usize = 3;

/// One answered request: when it was sent and answered, and the reply.
struct Answer {
    mu: u32,
    eps: f32,
    sent: Instant,
    done: Instant,
    reply: String,
}

pub fn run(ctx: &Ctx, r: &mut Report, tracer: Option<&mut Tracer>) -> Result<(), String> {
    let input = inputs::generate(Kind::Rmat, ctx.seed)?;
    inputs::record(r, &input);
    let index = ScanIndex::build(input.graph, IndexConfig::default());
    let snapshot = ctx.work.join("explore.pscidx");
    index.save(&snapshot).map_err(|e| e.to_string())?;
    let breakpoints = index.similarities().breakpoints();
    if breakpoints.len() < EPS_POINTS {
        return Err(format!(
            "only {} ε-breakpoints; the grid needs {EPS_POINTS}",
            breakpoints.len()
        ));
    }
    let requests = grid(breakpoints);
    drop(index);

    let path = snapshot.to_str().ok_or("snapshot path is not UTF-8")?;
    let cache = CACHE.to_string();
    let (server, setup_s) = Server::spawn_median(&ctx.parscan, &[path, "--cache", &cache], SETUPS)?;
    r.metric("setup_s", setup_s, "s");
    let pid = server.pid().to_string();
    let before = server.stats()?;
    let mut conn = server.connect()?;
    let mut answers = Vec::new();
    let start = Instant::now();
    for &(mu, eps) in &requests {
        if start.elapsed() >= ctx.seconds {
            break;
        }
        let line = format!("CLUSTER {mu} {eps}");
        let sent = Instant::now();
        let reply = conn.call(&line)?;
        answers.push(Answer {
            mu,
            eps,
            sent,
            done: Instant::now(),
            reply,
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = server::peak_rss_mib(&pid).unwrap_or(0.0);
    drop(conn);
    let after = server.stats()?;
    server.shutdown()?;

    // End-to-end metrics.
    let n = answers.len();
    let replies: Vec<Option<crate::json::Json>> = answers
        .iter()
        .map(|a| crate::json::parse(&a.reply).ok())
        .collect();
    let ok = |j: &Option<crate::json::Json>| {
        j.as_ref()
            .is_some_and(|j| j.boolean("ok") == Some(true) && j.str("op") == Some("cluster"))
    };
    let failed = replies.iter().filter(|j| !ok(j)).count();
    r.attempted = n as u64;
    r.failed = failed as u64;
    let rtt_ms: Vec<f64> = answers
        .iter()
        .map(|a| (a.done - a.sent).as_secs_f64() * 1e3)
        .collect();
    report::latency(r, "query", "ms", &rtt_ms, &[(0.9, "p90"), (0.99, "p99")]);
    r.metric("op_p50_ms", median(&rtt_ms), "ms");
    r.metric("explore_qps", n as f64 / elapsed, "1/s");
    r.metric("ops_per_s", n as f64 / elapsed, "1/s");
    r.metric("failed_frac", failed as f64 / n as f64, "fraction");
    r.metric("peak_rss_mib", rss, "MiB");
    r.metric("loadgen.sent", n as f64, "count");
    r.metric("loadgen.completed", (n - failed) as f64, "count");
    let delta = |k: &str| after.num(k).unwrap_or(0.0) - before.num(k).unwrap_or(0.0);
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    r.metric("server.engine.hits", hits, "count");
    r.metric("server.engine.misses", misses, "count");
    r.metric(
        "server.engine.coalesced_waits",
        delta("coalesced_waits"),
        "count",
    );
    r.metric(
        "server.engine.invalidated",
        delta("cache_invalidated"),
        "count",
    );
    r.check(
        "explore.no_cache_hits",
        hits == 0.0 && misses == n as f64,
        format!("STATS: {hits} hits, {misses} misses for {n} distinct requests"),
    );

    // Output check, after the timed run: every reply against an in-process
    // query on the same snapshot. With tracing, the same pass replays each
    // request through the serving layers' public calls.
    let opts = QueryOptions {
        border: BorderAssignment::MostSimilar,
        ..Default::default()
    };
    let mismatches = match tracer {
        None => {
            let index = ScanIndex::load(&snapshot).map_err(|e| e.to_string())?;
            answers
                .iter()
                .zip(&replies)
                .filter(|(a, j)| {
                    let c = index.cluster_with_opts(QueryParams::new(a.mu, a.eps), opts);
                    !same(j, c.num_clusters(), c.num_clustered())
                })
                .count()
        }
        Some(t) => replay(r, t, &snapshot, &answers, &replies, opts)?,
    };
    r.check(
        "explore.replies_match",
        mismatches == 0,
        format!("{mismatches} of {n} replies differ from in-process cluster_with_opts"),
    );
    Ok(())
}

/// The (μ, ε) grid in a stratified order: request `s` takes μ =
/// `MUS[s mod 8]` and the ε quantile at the bit-reversed index of
/// `s / 8`, so any prefix of the sequence covers every μ and spreads
/// evenly over the ε range. A run's median therefore does not depend on
/// which requests happened to fit into it. ε values are breakpoints
/// themselves, so each pair names its own (μ, ε-class).
fn grid(breakpoints: &[f32]) -> Vec<(u32, f32)> {
    let len = breakpoints.len();
    let bits = EPS_POINTS.trailing_zeros();
    (0..MUS.len() * EPS_POINTS)
        .map(|s| {
            let k = ((s / MUS.len()) as u32).reverse_bits() >> (32 - bits);
            let at = (k as f64 + 0.5) / EPS_POINTS as f64 * len as f64;
            (MUS[s % MUS.len()], breakpoints[at as usize])
        })
        .collect()
}

fn same(reply: &Option<crate::json::Json>, clusters: usize, clustered: usize) -> bool {
    reply.as_ref().is_some_and(|j| {
        j.num("clusters") == Some(clusters as f64) && j.num("clustered") == Some(clustered as f64)
    })
}

/// The traced pass: load the snapshot, then for every answered request
/// the server's blocking path in-process (see `inproc`; on fresh engines,
/// so each request misses as it did on the server), traced and untraced,
/// then the core query the engine runs, `cores` and `cluster_with_opts`,
/// which also checks the reply. Returns the number of mismatching replies.
fn replay(
    r: &mut Report,
    t: &mut Tracer,
    snapshot: &std::path::Path,
    answers: &[Answer],
    replies: &[Option<crate::json::Json>],
    opts: QueryOptions,
) -> Result<usize, String> {
    let root = t.begin("load", 0);
    let file = t
        .time("core.persist.read", 0, || std::fs::read(snapshot))
        .map_err(|e| e.to_string())?;
    let index = t
        .time("core.persist.decode", 0, || {
            ScanIndex::from_snapshot_bytes(&file)
        })
        .map_err(|e| e.to_string())?;
    t.end(root);
    r.metric("core.persist.snapshot_bytes", file.len() as f64, "bytes");
    drop(file);
    r.metric(
        "core.persist.read_s",
        median(&t.dur_ms("core.persist.read")) / 1e3,
        "s",
    );
    r.metric(
        "core.persist.decode_s",
        median(&t.dur_ms("core.persist.decode")) / 1e3,
        "s",
    );
    r.metric(
        "core.index.memory_bytes",
        index.memory_bytes() as f64,
        "bytes",
    );
    let index = Arc::new(index);
    // Two stacks over the one index, each with the server's cache size.
    let stack = || -> Result<Stack, String> {
        let config = EngineConfig {
            cache_capacity: CACHE,
            ..Default::default()
        };
        let registry = GraphRegistry::new("default", RegistryConfig::default());
        let engine = Arc::new(QueryEngine::new(Arc::clone(&index), config));
        registry
            .install_engine("default", engine)
            .map_err(|e| e.to_string())?;
        Ok(Stack {
            registry,
            store: None,
        })
    };
    let (traced, bare) = (stack()?, stack()?);
    let (g, no) = (index.graph(), index.neighbor_order());

    let mut paired = Paired::new();
    let mut mismatches = 0;
    let mut prefix_edges = 0u64;
    let mut prefix_ns = 0f64;
    let mut ratio = Vec::with_capacity(answers.len());
    let mut residual_us = Vec::with_capacity(answers.len());
    for (i, (a, j)) in answers.iter().zip(replies).enumerate() {
        let rid = i as u64;
        t.record("request", rid, None, a.sent, a.done);
        let line = format!("CLUSTER {} {}", a.mu, a.eps);
        let inproc = paired.handle(t, rid, &traced, &bare, &line)?;
        let rtt = (a.done - a.sent).as_secs_f64() * 1e3;
        ratio.push(inproc / rtt);
        residual_us.push((rtt - inproc) * 1e3);

        let params = QueryParams::new(a.mu, a.eps);
        let root = t.begin("check", rid);
        let ncores = t.time("core.core_order.cores", rid, || index.cores(params).len());
        let query = t.begin("core.query.cluster", rid);
        let c = index.cluster_with_opts(params, opts);
        t.end(query);
        t.end(root);
        mismatches += usize::from(!same(j, c.num_clusters(), c.num_clustered()));
        if ncores > 0 {
            let edges: usize = index
                .cores(params)
                .iter()
                .map(|&v| no.epsilon_prefix(g, v, params.epsilon).0.len())
                .sum();
            prefix_edges += edges as u64;
            prefix_ns += t.span_ms(query) * 1e6;
        }
    }

    // An empty-output query: μ above every closed-neighborhood size.
    let empty = QueryParams::new(g.max_degree() as u32 + 2, 0.5);
    let empty_ms: Vec<f64> = (0..5)
        .map(|k| {
            let id = t.begin("core.query.empty", k);
            std::hint::black_box(index.cluster_with_opts(empty, opts));
            t.end(id);
            t.span_ms(id)
        })
        .collect();

    let us = |name: &str| median(&t.self_ms(name)) * 1e3;
    r.metric(
        "core.core_order.cores_us",
        us("core.core_order.cores"),
        "us",
    );
    // A 10 s run sends too few queries for a p99 with ten samples beyond
    // it; p50 and p90 are what it supports.
    let cluster_ms = report::sorted(t.self_ms("core.query.cluster"));
    r.metric("core.query.cluster_p50_ms", median(&cluster_ms), "ms");
    if let Some(v) = report::tail(&cluster_ms, 0.9) {
        r.metric("core.query.cluster_p90_ms", v, "ms");
    }
    r.metric("core.query.empty_ms", median(&empty_ms), "ms");
    r.metric("core.query.prefix_edges", prefix_edges as f64, "count");
    if prefix_edges > 0 {
        r.metric(
            "core.query.ns_per_prefix_edge",
            prefix_ns / prefix_edges as f64,
            "ns",
        );
    }
    r.metric(
        "server.engine.miss_ms",
        us("server.engine.miss") / 1e3,
        "ms",
    );
    r.metric("server.registry.get_us", us("server.registry.get"), "us");
    r.metric(
        "server.protocol.parse_us",
        us("server.protocol.parse"),
        "us",
    );
    r.metric(
        "server.protocol.render_us",
        us("server.protocol.render"),
        "us",
    );
    r.metric("server.reactor.residual_us", median(&residual_us), "us");
    trace::request_accounting(r, t, &ratio);
    r.metric("trace.spans", t.len() as f64, "count");
    r.metric("trace.overhead", paired.overhead(), "fraction");
    Ok(mismatches)
}
