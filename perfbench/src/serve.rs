//! `serve`: many users, open loop at a fixed offered rate against
//! `parscan serve --store-dir` on a planted-partition graph, warm-booted
//! from its durable store. One load-generator thread sends on two
//! connections:
//!
//! - readers: hot `CLUSTER` over a small (μ, ε) set that fits the result
//!   cache, plus `PROBE` of random vertices;
//! - writers: `INSERT u,v` then `DELETE u,v` of a non-edge, one request in
//!   `WRITE_EVERY`, so the graph ends each run as it started.
//!
//! Writes have their own connection: on one connection a reply waits for
//! the request before it, so reads would measure per-connection ordering
//! instead of contention inside the server. Latency is timed from each
//! request's scheduled send time, so a stall is charged to every request
//! it delays. The throughput reported is goodput: replies that arrive
//! within `GOODPUT_BUDGET_MS` of their scheduled send, per second. A read
//! held up behind a write's order rebuild falls out of it, so a slower
//! write path shows in the goodput even though the offered rate is fixed.
//!
//! The request mix (the probe share, the hot set, the write ratio) is a
//! stand-in chosen for this benchmark, not taken from observed traffic;
//! see `perfbench/README.md`.

use crate::inproc::{Paired, Stack};
use crate::inputs::{self, Kind, Rng};
use crate::json::{self, Json};
use crate::report::{self, median, Report};
use crate::server::{self, Conn, Server};
use crate::trace::{self, Tracer};
use crate::Ctx;
use parscan_core::{IndexConfig, QueryParams, ScanIndex};
use parscan_server::{EngineConfig, GraphRegistry, RegistryConfig};
use parscan_store::{AuditKind, IndexStore};
use std::collections::HashSet;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, requests per second over both connections.
const RATE: u64 = 2000;
/// One request in this many is a write.
const WRITE_EVERY: u64 = 1000;
/// Share of reads that are PROBEs (the rest are hot CLUSTERs), in percent.
const PROBE_PERCENT: u64 = 30;
const HOT_MUS: [u32; 3] = [2, 4, 8];
/// ε for the hot set, as quantiles of the similarity breakpoints.
const HOT_EPS_QUANTILES: [f64; 3] = [0.5, 0.75, 0.9];
/// A reply later than this after its scheduled send does not count
/// toward goodput: 25 times the ~0.2 ms a cached read takes unloaded.
const GOODPUT_BUDGET_MS: f64 = 5.0;
/// Name of the served graph in the store.
const GRAPH: &str = "default";
const SETUPS: usize = 5;
/// How long to wait for the last replies after the schedule ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Write,
}

struct Planned {
    op: Op,
    line: String,
}

/// A reply as the receiver saw it: request index, arrival, text.
type Reply = (usize, Instant, String);

pub fn run(ctx: &Ctx, r: &mut Report, tracer: Option<&mut Tracer>) -> Result<(), String> {
    let input = inputs::generate(Kind::Sbm, ctx.seed)?;
    inputs::record(r, &input);
    let index = ScanIndex::build(input.graph, IndexConfig::default());
    // The store the server warm-boots from: one pinned graph, with the
    // server's default cache capacity.
    let store_dir = ctx.work.join("store");
    IndexStore::open(&store_dir)
        .and_then(|s| s.save(GRAPH, &index, true, EngineConfig::default().cache_capacity))
        .map_err(|e| format!("store {}: {e}", store_dir.display()))?;
    let bp = index.similarities().breakpoints();
    let hot: Vec<(u32, f32)> = HOT_MUS
        .iter()
        .flat_map(|&mu| {
            HOT_EPS_QUANTILES
                .iter()
                .map(move |&q| (mu, bp[(q * (bp.len() - 1) as f64) as usize]))
        })
        .collect();
    let schedule = schedule(&index, &hot, ctx);
    let m0 = index.graph().num_edges();
    drop(index);

    let dir = store_dir.to_str().ok_or("store path is not UTF-8")?;
    let (server, setup_s) = Server::spawn_median(&ctx.parscan, &["--store-dir", dir], SETUPS)?;
    r.metric("setup_s", setup_s, "s");
    let pid = server.pid().to_string();
    // Warm the cache with the hot set and take the reference labels.
    let mut control = server.connect()?;
    let labels_before = full_labels(&mut control, &hot)?;
    let before = server.stats()?;

    let reader = server.connect()?;
    let writer = server.connect()?;
    let Observed { sends, replies, t0 } = drive(&schedule, reader, writer)?;
    let done_at = replies.iter().map(|x| x.1).max().unwrap_or(t0);
    let after = server.stats()?;
    let labels_after = full_labels(&mut control, &hot)?;
    let rss = server::peak_rss_mib(&pid).unwrap_or(0.0);
    drop(control);
    // SHUTDOWN snapshots the graph the writes marked dirty.
    server.shutdown()?;
    let (saved_checksum, audit) = IndexStore::open(&store_dir)
        .and_then(|s| {
            let (saved, _) = s.load(GRAPH)?;
            Ok((inputs::csr_checksum(saved.graph()), s.replay()?))
        })
        .map_err(|e| format!("store {}: {e}", store_dir.display()))?;
    let last = |kind| audit.iter().rposition(|e| e.kind == kind);
    let mutations = audit.iter().filter(|e| e.kind == AuditKind::Mutate).count();

    // End-to-end metrics.
    let mut read_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut failed = schedule.len() - replies.len();
    let mut last_m = None;
    let mut writes_ok = 0usize;
    let mut answered = vec![None; schedule.len()];
    let mut good = 0usize;
    for (i, at, text) in &replies {
        let reply = json::parse(text).ok();
        let ok = reply
            .as_ref()
            .is_some_and(|j| j.boolean("ok") == Some(true));
        let latency = (*at - sends[*i].0).as_secs_f64() * 1e3;
        answered[*i] = Some(latency);
        if !ok {
            failed += 1;
            continue;
        }
        good += usize::from(latency <= GOODPUT_BUDGET_MS);
        match schedule[*i].op {
            Op::Read => read_ms.push(latency),
            Op::Write => {
                write_ms.push(latency);
                let j = reply.as_ref().expect("ok implies parsed");
                writes_ok += usize::from(j.boolean("changed") == Some(true));
                last_m = j.num("m");
            }
        }
    }
    let sent = schedule.len();
    r.attempted = sent as u64;
    r.failed = failed as u64;
    report::latency(r, "read", "ms", &read_ms, &[(0.99, "p99")]);
    report::latency(r, "write", "ms", &write_ms, &[(0.9, "p90")]);
    let completed = sent - failed;
    let span = (done_at - t0).as_secs_f64();
    let goodput = good as f64 / span;
    r.metric("offered_rps", RATE as f64, "1/s");
    r.metric("achieved_rps", completed as f64 / span, "1/s");
    r.metric("goodput_rps", goodput, "1/s");
    r.metric("goodput_budget_ms", GOODPUT_BUDGET_MS, "ms");
    r.metric("op_p50_ms", median(&read_ms), "ms");
    r.metric("ops_per_s", goodput, "1/s");
    r.metric("failed_frac", failed as f64 / sent as f64, "fraction");
    r.metric("peak_rss_mib", rss, "MiB");
    r.metric("loadgen.sent", sent as f64, "count");
    r.metric("loadgen.completed", completed as f64, "count");
    let late_max = sends.iter().map(|s| s.1).fold(0.0, f64::max);
    r.metric("loadgen.late_max_ms", late_max, "ms");
    let delta =
        |path: &[&str]| after.path_num(path).unwrap_or(0.0) - before.path_num(path).unwrap_or(0.0);
    r.metric("server.engine.hits", delta(&["cache_hits"]), "count");
    r.metric("server.engine.misses", delta(&["cache_misses"]), "count");
    r.metric(
        "server.engine.invalidated",
        delta(&["cache_invalidated"]),
        "count",
    );
    r.metric(
        "server.engine.coalesced_waits",
        delta(&["coalesced_waits"]),
        "count",
    );
    r.metric(
        "server.reactor.shed",
        delta(&["reactor", "shed_requests"]),
        "count",
    );
    r.metric(
        "server.reactor.deadline_expired",
        delta(&["faults", "deadline_expired"]),
        "count",
    );

    // Output checks.
    let writes = schedule.iter().filter(|q| q.op == Op::Write).count();
    r.check(
        "serve.writes_applied",
        writes_ok == writes && delta(&["epoch"]) == writes as f64,
        format!(
            "{writes_ok} of {writes} writes changed the graph; epoch advanced {}",
            delta(&["epoch"])
        ),
    );
    r.check(
        "serve.graph_restored",
        last_m == Some(m0 as f64) && labels_before == labels_after,
        format!(
            "m {m0} → {last_m:?}; CLUSTER … FULL labels of {} hot queries identical before and after",
            hot.len()
        ),
    );
    r.check(
        "serve.store_restored",
        mutations == writes
            && last(AuditKind::Save) > last(AuditKind::Mutate)
            && saved_checksum == input.checksum,
        format!(
            "store audit: {mutations} MUTATE lines, then a SAVE at SHUTDOWN; \
             the saved snapshot holds the starting graph (CSR checksum)"
        ),
    );
    r.check(
        "serve.all_answered",
        replies.len() == sent,
        format!("{} of {sent} requests answered", replies.len()),
    );

    if let Some(t) = tracer {
        replay(r, t, &store_dir, &schedule, &hot, &answered)?;
    }
    Ok(())
}

/// The request stream: `RATE × seconds` requests, every `WRITE_EVERY`-th
/// a write. Writes come in INSERT/DELETE pairs of distinct non-edges, and
/// their count is even, so every inserted edge is deleted again.
fn schedule(index: &ScanIndex, hot: &[(u32, f32)], ctx: &Ctx) -> Vec<Planned> {
    let g = index.graph();
    let n = g.num_vertices() as u64;
    let total = RATE * ctx.seconds.as_secs();
    let mut rng = Rng::new(ctx.seed, 2);
    let mut used = HashSet::new();
    let mut pending: Option<(u64, u64)> = None;
    let mut out = Vec::with_capacity(total as usize);
    for i in 0..total {
        if i % WRITE_EVERY == WRITE_EVERY / 2 {
            let line = match pending.take() {
                Some((u, v)) => format!("DELETE {u},{v}"),
                None => {
                    let (u, v) = loop {
                        let (u, v) = (rng.below(n), rng.below(n));
                        if u != v
                            && g.slot_of(u as u32, v as u32).is_none()
                            && used.insert((u.min(v), u.max(v)))
                        {
                            break (u, v);
                        }
                    };
                    pending = Some((u, v));
                    format!("INSERT {u},{v}")
                }
            };
            out.push(Planned {
                op: Op::Write,
                line,
            });
            continue;
        }
        let (mu, eps) = hot[rng.below(hot.len() as u64) as usize];
        let line = if rng.below(100) < PROBE_PERCENT {
            format!("PROBE {} {mu} {eps}", rng.below(n))
        } else {
            format!("CLUSTER {mu} {eps}")
        };
        out.push(Planned { op: Op::Read, line });
    }
    if let Some((u, v)) = pending {
        out.push(Planned {
            op: Op::Write,
            line: format!("DELETE {u},{v}"),
        });
    }
    out
}

/// `CLUSTER μ ε FULL` for each hot query: the label and core arrays.
fn full_labels(conn: &mut Conn, hot: &[(u32, f32)]) -> Result<Vec<(Json, Json)>, String> {
    hot.iter()
        .map(|&(mu, eps)| {
            let reply = json::parse(&conn.call(&format!("CLUSTER {mu} {eps} FULL"))?)?;
            match (reply.get("labels"), reply.get("cores")) {
                (Some(l), Some(c)) => Ok((l.clone(), c.clone())),
                _ => Err(format!("CLUSTER {mu} {eps} FULL returned no labels")),
            }
        })
        .collect()
}

/// What the open loop observed.
struct Observed {
    /// Per request: its scheduled send time and how late it went out (ms).
    sends: Vec<(Instant, f64)>,
    replies: Vec<Reply>,
    /// When the schedule started.
    t0: Instant,
}

/// Run the open loop: reads on `reader`, writes on `writer`.
fn drive(schedule: &[Planned], reader: Conn, writer: Conn) -> Result<Observed, String> {
    let mut outs = Vec::new();
    let mut queues = Vec::new();
    let mut receivers = Vec::new();
    for conn in [reader, writer] {
        let Conn {
            writer: out,
            mut reader,
        } = conn;
        reader
            .get_ref()
            .set_read_timeout(Some(DRAIN_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel::<usize>();
        outs.push(out);
        queues.push(tx);
        receivers.push(std::thread::spawn(move || {
            let mut got = Vec::new();
            for i in rx {
                let mut line = String::new();
                match std::io::BufRead::read_line(&mut reader, &mut line) {
                    Ok(n) if n > 0 => got.push((i, Instant::now(), line)),
                    _ => break,
                }
            }
            got
        }));
    }

    let step = Duration::from_nanos(1_000_000_000 / RATE);
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut sends = Vec::with_capacity(schedule.len());
    let mut send_error = None;
    for (i, q) in schedule.iter().enumerate() {
        let due = t0 + step * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let which = usize::from(q.op == Op::Write);
        let late = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        sends.push((due, late));
        let _ = queues[which].send(i);
        let mut line = String::with_capacity(q.line.len() + 1);
        line.push_str(&q.line);
        line.push('\n');
        if let Err(e) = std::io::Write::write_all(&mut outs[which], line.as_bytes()) {
            send_error = Some(e.to_string());
            break;
        }
    }
    drop(queues);
    let mut replies = Vec::new();
    for h in receivers {
        replies.extend(h.join().map_err(|_| "receiver thread panicked")?);
    }
    if let Some(e) = send_error {
        return Err(format!("send failed: {e}"));
    }
    Ok(Observed { sends, replies, t0 })
}

/// The traced pass. Boot two identical in-process stacks from the store
/// the way the server's warm boot does (open the store, read and decode
/// the snapshot, install it in a registry), warm their caches with the
/// hot set, then replay the same request stream, in order, through both:
/// one traced, one not (see `inproc`). A read's reactor share is its
/// end-to-end latency minus its in-process layers.
fn replay(
    r: &mut Report,
    t: &mut Tracer,
    store_dir: &Path,
    schedule: &[Planned],
    hot: &[(u32, f32)],
    answered: &[Option<f64>],
) -> Result<(), String> {
    let traced = boot(r, t, store_dir)?;
    let bare = boot(r, &mut Tracer::off(), store_dir)?;
    for stack in [&traced, &bare] {
        let (_, engine) = stack.registry.get(None).map_err(|e| e.to_string())?;
        for &(mu, eps) in hot {
            engine.cluster(QueryParams::new(mu, eps));
        }
    }

    let mut paired = Paired::new();
    let mut ratio = Vec::new();
    let mut residual_us = Vec::new();
    for (i, q) in schedule.iter().enumerate() {
        let inproc = paired.handle(t, i as u64, &traced, &bare, &q.line)?;
        if let (Op::Read, Some(e2e)) = (q.op, answered[i]) {
            ratio.push(inproc / e2e);
            residual_us.push((e2e - inproc) * 1e3);
        }
    }

    let ms = |name: &str| median(&t.dur_ms(name));
    r.metric("store.open_ms", ms("store.open"), "ms");
    r.metric("core.persist.read_s", ms("core.persist.read") / 1e3, "s");
    r.metric(
        "core.persist.decode_s",
        ms("core.persist.decode") / 1e3,
        "s",
    );
    r.metric(
        "server.registry.install_ms",
        ms("server.registry.install"),
        "ms",
    );
    let us = |name: &str| median(&t.self_ms(name)) * 1e3;
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
    r.metric("server.engine.hit_us", us("server.engine.hit"), "us");
    r.metric(
        "server.engine.miss_ms",
        us("server.engine.miss") / 1e3,
        "ms",
    );
    r.metric("server.engine.probe_us", us("server.engine.probe"), "us");
    r.metric(
        "core.dynamic.apply_ms",
        us("core.dynamic.apply") / 1e3,
        "ms",
    );
    r.metric("store.audit_us", us("store.audit"), "us");
    r.metric("server.reactor.residual_us", median(&residual_us), "us");
    trace::request_accounting(r, t, &ratio);
    r.metric("trace.spans", t.len() as f64, "count");
    r.metric("trace.overhead", paired.overhead(), "fraction");
    Ok(())
}

/// The warm boot's load path for the served graph, call by call, each in
/// a span under a `boot` root.
fn boot(r: &mut Report, t: &mut Tracer, dir: &Path) -> Result<Stack, String> {
    let root = t.begin("boot", 0);
    let store = t
        .time("store.open", 0, || IndexStore::open(dir))
        .map_err(|e| format!("store {}: {e}", dir.display()))?;
    let entry = store
        .entry(GRAPH)
        .ok_or_else(|| format!("no {GRAPH:?} graph in the store"))?;
    let path = store.snapshot_path(&entry);
    let file = t
        .time("core.persist.read", 0, || std::fs::read(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let index = t
        .time("core.persist.decode", 0, || {
            ScanIndex::from_snapshot_bytes(&file)
        })
        .map_err(|e| e.to_string())?;
    r.metric("core.persist.snapshot_bytes", file.len() as f64, "bytes");
    drop(file);
    r.metric(
        "core.index.memory_bytes",
        index.memory_bytes() as f64,
        "bytes",
    );
    let engine = EngineConfig {
        cache_capacity: entry.cache_capacity,
        ..Default::default()
    };
    let registry = GraphRegistry::new(GRAPH, RegistryConfig::default());
    t.time("server.registry.install", 0, || {
        registry.install_with_config(GRAPH, index, engine)
    })
    .map_err(|e| e.to_string())?;
    t.end(root);
    Ok(Stack {
        registry,
        store: Some(store),
    })
}
