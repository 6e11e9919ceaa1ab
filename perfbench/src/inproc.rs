//! The server's blocking path for one request, run in-process: the calls
//! the server makes, `parse_request` → `GraphRegistry::get` →
//! `QueryEngine` → (for an effective write, the store's dirty mark and
//! audit line) → `Response::render_json`, each in a span. The traced
//! `explore` and `serve` runs replay their requests through it twice, on
//! two identical stacks, once traced and once with a disabled tracer; the
//! difference between the two is the tracing overhead.

use crate::trace::Tracer;
use parscan_server::{parse_request, GraphRegistry, Request, Response};
use parscan_store::{AuditKind, IndexStore};
use std::time::Instant;

/// What the server holds: its registry and, when it has one, its store.
pub struct Stack {
    pub registry: GraphRegistry,
    pub store: Option<IndexStore>,
}

/// Serve `line` on `s` inside a `replay` root span; returns the time its
/// layer spans cover, in milliseconds (0 with a disabled tracer).
pub fn handle(t: &mut Tracer, rid: u64, s: &Stack, line: &str) -> Result<f64, String> {
    let root = t.begin("replay", rid);
    let parse = t.begin("server.protocol.parse", rid);
    let request = parse_request(line).map_err(|e| format!("{line:?}: {e}"))?;
    t.end(parse);
    let get = t.begin("server.registry.get", rid);
    let (graph, engine) = s.registry.get(None).map_err(|e| e.to_string())?;
    t.end(get);
    let call = t.begin("server.engine", rid);
    let mut audit = None;
    let response = match request {
        Request::Cluster { params, full, .. } => {
            let outcome = engine.cluster(params);
            let name = if outcome.cached {
                "server.engine.hit"
            } else {
                "server.engine.miss"
            };
            t.rename(call, name);
            Response::Cluster {
                graph: graph.clone(),
                params,
                outcome,
                full,
            }
        }
        Request::Probe { vertex, params, .. } => {
            t.rename(call, "server.engine.probe");
            let probe = engine.probe(vertex, params)?;
            Response::Probe {
                graph: graph.clone(),
                vertex,
                params,
                probe,
            }
        }
        Request::Apply { batch, .. } => {
            t.rename(call, "core.dynamic.apply");
            let o = engine.apply_update(&batch)?;
            if o.changed {
                // The detail line the server writes for a mutation.
                audit = Some(format!(
                    "epoch={} ins={} del={} rew={} changed={} n={} m={}",
                    o.epoch, o.inserted, o.deleted, o.reweighted, o.changed_edges, o.n, o.m
                ));
            }
            Response::Applied {
                graph: graph.clone(),
                outcome: o,
            }
        }
        other => return Err(format!("unexpected request {other:?}")),
    };
    t.end(call);
    let mut covered = t.span_ms(parse) + t.span_ms(get) + t.span_ms(call);
    if let (Some(detail), Some(store)) = (audit, &s.store) {
        let id = t.begin("store.audit", rid);
        store.mark_dirty(&graph);
        let _ = store.record(AuditKind::Mutate, Some(&graph), &detail);
        t.end(id);
        covered += t.span_ms(id);
    }
    let render = t.begin("server.protocol.render", rid);
    std::hint::black_box(response.render_json());
    t.end(render);
    t.end(root);
    Ok(covered + t.span_ms(render))
}

/// Replays each request on a traced and an untraced stack, alternating
/// which goes first so neither pass always runs on the caches the other
/// warmed, and sums the wall time of each.
pub struct Paired {
    off: Tracer,
    traced_s: f64,
    bare_s: f64,
}

impl Paired {
    pub fn new() -> Paired {
        Paired {
            off: Tracer::off(),
            traced_s: 0.0,
            bare_s: 0.0,
        }
    }

    /// Serve `line` on both stacks; returns the traced run's layer time.
    pub fn handle(
        &mut self,
        t: &mut Tracer,
        rid: u64,
        traced: &Stack,
        bare: &Stack,
        line: &str,
    ) -> Result<f64, String> {
        let mut layers = 0.0;
        let traced_first = rid.is_multiple_of(2);
        for traced_pass in [traced_first, !traced_first] {
            let start = Instant::now();
            if traced_pass {
                layers = handle(t, rid, traced, line)?;
                self.traced_s += start.elapsed().as_secs_f64();
            } else {
                handle(&mut self.off, rid, bare, line)?;
                self.bare_s += start.elapsed().as_secs_f64();
            }
        }
        Ok(layers)
    }

    /// (traced − untraced) / untraced, over every request replayed.
    pub fn overhead(&self) -> f64 {
        (self.traced_s - self.bare_s) / self.bare_s
    }
}
