//! The traced run: per-layer numbers, taken from outside.
//!
//! Single-threaded. Each sampled request is first *replayed* through the
//! public functions the server calls for it — wire codec, plan-cache
//! lookup, parser, planner, executor, DML apply, WAL append — one timed
//! span per call, and then sent through the live server for the parent
//! span `server.request`. The replayed spans are laid end to end inside
//! the parent's interval in call order (they were measured just before
//! it, not during it), so a span's self time is its duration minus its
//! children, and what is left of `server.request` after its children —
//! socket, framing, queueing, dispatch, thread hand-off — is
//! `server.overhead_us`. Nothing inside the engine is instrumented;
//! spans inside the program are a later change.
//!
//! Spans are kept in memory and written to `trace_<workload>.json` when
//! the run ends. The tracing overhead is the parent's median against the
//! median of an untraced pass over as many requests of the same stream.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlpp::{DurabilityConfig, DurableStore, Engine, Prepared, SyncMode};
use sqlpp_durability::CatalogImage;
use sqlpp_formats::wire::{self, Response};
use sqlpp_plan::{lower_query, optimize, PlanConfig};
use sqlpp_server::{Client, PlanCache};
use sqlpp_syntax::ast::Statement;
use sqlpp_value::Value;

use crate::check;
use crate::drive::{self, Scale, CHECKPOINT_WAL_BYTES};
use crate::gen::{self, DurableClient, Request, Workload};
use crate::report::{self, PER_LAYER};
use crate::stats::{self, Span};

/// Requests sampled per second of `--seconds`, capped at 2 000: enough
/// for the traced run to take about as long as a gated one.
fn sample_size(w: Workload, seconds: f64) -> usize {
    let per_second = match w {
        Workload::ShortCached => 400.0,
        Workload::AdhocPlan => 200.0,
        Workload::AnalyticScan => 8.0,
        Workload::DurableWrites => 60.0,
    };
    ((per_second * seconds) as usize).clamp(16, 2000)
}

/// Requests sent before the sample, so the live server's plan cache and
/// the replay's private one are as warm as they get in a gated run.
const WARM: usize = 64;

/// A timed call of the replay: its span name, how long it took, and the
/// call (of the same request) it ran inside.
struct Call {
    name: &'static str,
    ns: u64,
    parent: Option<usize>,
}

/// The replay of one request: the calls, in order.
#[derive(Default)]
struct Replay {
    calls: Vec<Call>,
}

impl Replay {
    fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let ns = t.elapsed().as_nanos() as u64;
        self.calls.push(Call { name, ns, parent });
        (out, self.calls.len() - 1)
    }
}

/// Totals the traced pass accumulates beside the spans.
#[derive(Default)]
struct Counts {
    requests: u64,
    response_bytes: u64,
    parsed_bytes: u64,
    rows_scanned: u64,
    result_rows: u64,
    exprs_fallback: u64,
    spill_bytes: u64,
    commits: u64,
    wal_bytes: u64,
    syncs: u64,
    checkpoints: Vec<Duration>,
    /// Requests whose replayed children outlasted the live parent.
    overruns: u64,
    /// The live server's plan-cache lookups over the traced pass.
    cache_hits: u64,
    cache_lookups: u64,
    recovery_ms: f64,
}

/// Live requests sent (warm-up and both passes) and how many failed.
#[derive(Default)]
struct Sent {
    attempted: u64,
    failed: u64,
}

/// What the replay calls into: the engine the live server serves (reads
/// replay against the same catalog), a private plan cache, and for
/// `durable-writes` an in-memory twin of `ev.log` plus a scratch WAL.
struct Layers {
    engine: Engine,
    cache: PlanCache,
    twin: Option<(Engine, DurableStore)>,
}

impl Layers {
    /// Replays `req` through the layers, call by call.
    fn replay(&mut self, req: &Request, counts: &mut Counts) -> Result<Replay, String> {
        let mut r = Replay::default();
        let wire_req = wire::Request {
            query: req.text.clone(),
            params: req.params.clone(),
        };
        let (bytes, _) = r.timed("formats.encode_request", None, || {
            wire::encode_request(&wire_req)
        });
        let (decoded, _) = r.timed("formats.decode_request", None, || {
            wire::decode_request(&bytes)
        });
        let decoded = decoded.map_err(|e| e.to_string())?;

        let compat = self.engine.config().compat;
        let ((text, hit), _) = r.timed("server.cache_lookup", None, || {
            let text = PlanCache::normalize(&decoded.query);
            let hit = self
                .cache
                .get(&text, compat, self.engine.catalog().schema_epoch());
            (text, hit)
        });

        let value = match hit {
            Some(plan) => self.execute(&mut r, &plan, decoded.params)?,
            None => {
                counts.parsed_bytes += decoded.query.len() as u64;
                let (stmt, _) = r.timed("syntax.parse_statement", None, || {
                    sqlpp_syntax::parse_statement(&decoded.query)
                });
                match stmt.map_err(|e| e.to_string())? {
                    Statement::Query(_) => {
                        let (plan, prepare) = r.timed("server.prepare_and_insert", None, || {
                            self.cache.prepare_and_insert(&self.engine, &text, compat)
                        });
                        let plan = plan.map_err(|e| e.to_string())?;
                        // The front-end calls `prepare` just made, one
                        // by one, to split that span by layer.
                        counts.parsed_bytes += text.len() as u64;
                        let (ast, _) = r.timed("syntax.parse_query", Some(prepare), || {
                            sqlpp_syntax::parse_query(&text)
                        });
                        let ast = ast.map_err(|e| e.to_string())?;
                        let config = PlanConfig {
                            compat,
                            schemas: self.engine.catalog().schema_snapshot(),
                        };
                        let (core, _) =
                            r.timed("plan.lower", Some(prepare), || lower_query(&ast, &config));
                        let core = core.map_err(|e| e.to_string())?;
                        r.timed("plan.optimize", Some(prepare), || optimize(core));
                        self.execute(&mut r, &plan, decoded.params)?
                    }
                    _ => self.apply_dml(&mut r, &decoded.query)?,
                }
            }
        };

        let resp = Response::Rows(value);
        let (bytes, _) = r.timed("formats.encode_response", None, || {
            wire::encode_response(&resp)
        });
        counts.response_bytes += bytes.len() as u64;
        let (back, _) = r.timed("formats.decode_response", None, || {
            wire::decode_response(&bytes)
        });
        back.map_err(|e| e.to_string())?;
        Ok(r)
    }

    fn execute(
        &self,
        r: &mut Replay,
        plan: &Arc<Prepared>,
        params: Vec<Value>,
    ) -> Result<Value, String> {
        let (rows, _) = r.timed("eval.execute", None, || {
            plan.execute_with_params(&self.engine, params)
        });
        Ok(rows.map_err(|e| e.to_string())?.into_value())
    }

    /// A DML statement: applied to the in-memory twin (the cost of
    /// `core::dml` alone), then its post-image appended to the scratch
    /// WAL (the cost of `durability` alone).
    fn apply_dml(&mut self, r: &mut Replay, text: &str) -> Result<Value, String> {
        let (twin, store) = self.twin.as_ref().ok_or("DML outside durable-writes")?;
        let (outcome, _) = r.timed("core.dml_apply", None, || twin.execute(text));
        let summary = match outcome.map_err(|e| e.to_string())? {
            sqlpp::ExecOutcome::Inserted { count } => ("inserted", count),
            sqlpp::ExecOutcome::Updated { count } => ("updated", count),
            sqlpp::ExecOutcome::Deleted { count } => ("deleted", count),
            other => return Err(format!("unexpected DML outcome {other:?}")),
        };
        let post = twin
            .catalog()
            .get_str("ev.log")
            .map_err(|e| e.to_string())?;
        let (lsn, _) = r.timed("durability.append", None, || {
            store.append_commit("ev.log", &post)
        });
        lsn.map_err(|e| e.to_string())?;
        if store.status().wal_bytes >= CHECKPOINT_WAL_BYTES {
            let image = CatalogImage {
                values: vec![("ev.log".to_string(), (*post).clone())],
                ..CatalogImage::default()
            };
            store.checkpoint(&image).map_err(|e| e.to_string())?;
        }
        Ok(Value::Tuple(sqlpp_value::Tuple::from_pairs([(
            summary.0,
            Value::Int(summary.1 as i64),
        )])))
    }
}

/// Where the sampled requests come from: a fixed stream walked
/// cyclically, or the stateful `durable-writes` generator.
enum Source {
    Fixed { stream: Vec<Request>, next: usize },
    Durable(Box<DurableClient>),
}

impl Source {
    fn next(&mut self) -> (Request, gen::Effect) {
        match self {
            Source::Fixed { stream, next } => {
                let req = stream[*next % stream.len()].clone();
                *next += 1;
                (req, gen::Effect::None)
            }
            Source::Durable(model) => model.next(),
        }
    }

    fn ack(&mut self, effect: gen::Effect) {
        if let Source::Durable(model) = self {
            model.ack(effect);
        }
    }
}

/// Sends one request live, checks the answer in full, and returns the
/// round trip's interval.
fn live(
    client: &mut Client,
    source: &mut Source,
    req: &Request,
    effect: gen::Effect,
    sent: &mut Sent,
) -> (Instant, Instant) {
    let (resp, start, done) = drive::send(client, req);
    sent.attempted += 1;
    match resp {
        Ok(Response::Rows(value)) if check::full(&value, &req.expect) => source.ack(effect),
        Ok(_) | Err(_) => {
            sent.failed += 1;
            println!("  FAILED {}", req.text);
        }
    }
    (start, done)
}

/// Appends the spans of one request: the live parent over
/// `[start_ns, end_ns]`, and the replayed calls laid end to end from the
/// start of whatever they ran inside. Returns where the parent's
/// children end.
fn lay_out(
    replay: &Replay,
    start_ns: u64,
    end_ns: u64,
    request_id: u64,
    spans: &mut Vec<Span>,
) -> u64 {
    let parent = spans.len();
    spans.push(Span {
        name: "server.request",
        start_ns,
        end_ns,
        parent: None,
        request_id,
    });
    // `next_child[i]` is where call i's next child starts; `top` is the
    // same for the parent.
    let mut next_child: Vec<u64> = Vec::with_capacity(replay.calls.len());
    let mut top = start_ns;
    for call in &replay.calls {
        let cursor = match call.parent {
            None => &mut top,
            Some(p) => &mut next_child[p],
        };
        let start_ns = *cursor;
        *cursor += call.ns;
        next_child.push(start_ns);
        spans.push(Span {
            name: call.name,
            start_ns,
            end_ns: start_ns + call.ns,
            parent: Some(call.parent.map_or(parent, |p| parent + 1 + p)),
            request_id,
        });
    }
    top
}

/// Runs the traced run of one workload and prints its result line.
pub fn run(w: Workload, seed: u64, scale: &Scale) -> Result<(), String> {
    report::header(w, seed, scale, "traced run (one client)");
    let n = sample_size(w, scale.window.as_secs_f64());

    let mut source = match w {
        Workload::DurableWrites => {
            Source::Durable(Box::new(DurableClient::new(seed, 0, &gen::events(seed))))
        }
        _ => Source::Fixed {
            stream: drive::read_streams(w, seed, scale).swap_remove(0),
            next: 0,
        },
    };
    let mut loaded = drive::setup(w, seed, scale, 1)?;
    let mut client = loaded.clients.pop().expect("one client");
    let mut layers = Layers {
        engine: loaded.engine.clone(),
        cache: PlanCache::new(drive::server_config().cache_capacity),
        twin: match w {
            Workload::DurableWrites => {
                let twin = Engine::new();
                twin.register("ev.log", Value::Bag(gen::events(seed)));
                let dir =
                    drive::scratch_dir(&scale.out_dir, "scratch-wal").map_err(|e| e.to_string())?;
                let config = DurabilityConfig::new(dir).with_sync(SyncMode::Always);
                let (store, _) = DurableStore::open(config).map_err(|e| e.to_string())?;
                Some((twin, store))
            }
            _ => None,
        },
    };
    let durable = loaded.dir.is_some();
    let mut sent = Sent::default();

    // Warm both sides, untimed and uncounted.
    for _ in 0..WARM.min(n) {
        let (req, effect) = source.next();
        layers.replay(&req, &mut Counts::default())?;
        live(&mut client, &mut source, &req, effect, &mut sent);
    }
    let mut counts = Counts::default();

    // The traced pass.
    let t0 = Instant::now();
    let at = |i: Instant| (i - t0).as_nanos() as u64;
    let mut spans: Vec<Span> = Vec::new();
    let cache_before = loaded.server.cache_stats();
    for request_id in 0..n as u64 {
        if durable {
            if let Some(took) = drive::checkpoint_if_due(&loaded.engine)? {
                counts.checkpoints.push(took);
            }
        }
        let (req, effect) = source.next();
        let replay = layers.replay(&req, &mut counts)?;
        let wal_before = loaded.engine.wal_status();
        let (start, done) = live(&mut client, &mut source, &req, effect, &mut sent);
        counts.requests += 1;
        if let (Some(before), Some(after)) = (wal_before, loaded.engine.wal_status()) {
            counts.commits += after.appends - before.appends;
            counts.wal_bytes += after.wal_bytes - before.wal_bytes;
            counts.syncs += after.syncs - before.syncs;
        }
        if matches!(req.expect, check::Expect::Rows { .. }) {
            // Exact counts of the executor's work, from an untimed run
            // with statistics on.
            let result = loaded
                .engine
                .query_with_stats(&req.literal_text())
                .map_err(|e| e.to_string())?;
            let st = result.stats().expect("query_with_stats collects stats");
            counts.rows_scanned += st.rows_scanned;
            counts.result_rows += result.len() as u64;
            counts.exprs_fallback += st.exprs_fallback;
            counts.spill_bytes += st.spill_bytes_written;
        }

        let children_end = lay_out(&replay, at(start), at(done), request_id, &mut spans);
        if children_end > at(done) {
            counts.overruns += 1;
        }
    }
    let cache_after = loaded.server.cache_stats();
    counts.cache_hits = cache_after.hits - cache_before.hits;
    counts.cache_lookups = counts.cache_hits + cache_after.misses - cache_before.misses;

    // The untraced pass: as many requests of the same stream, live only.
    let mut untraced = Vec::with_capacity(n);
    for _ in 0..n {
        if durable {
            drive::checkpoint_if_due(&loaded.engine)?;
        }
        let (req, effect) = source.next();
        let (start, done) = live(&mut client, &mut source, &req, effect, &mut sent);
        untraced.push((done - start).as_nanos() as u64);
    }

    // Recovery of the image a kill would leave, with the model check.
    if let (Some(dir), Source::Durable(model)) = (&loaded.dir, &source) {
        let image = drive::crash_image(dir, &scale.out_dir).map_err(|e| e.to_string())?;
        // The other client never wrote: its rows are the base rows.
        let other = DurableClient::new(seed, 1, &gen::events(seed));
        let (wrong, took) = drive::restart_check(&image, &[model, &other])?;
        sent.failed += wrong;
        counts.recovery_ms = took.as_secs_f64() * 1e3;
    }
    drop(client);
    loaded.close();
    if let Some((_, store)) = layers.twin.take() {
        let dir = store.dir().to_path_buf();
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }

    report_trace(w, scale, &spans, &counts, &sent, &untraced)
}

fn report_trace(
    w: Workload,
    scale: &Scale,
    spans: &[Span],
    counts: &Counts,
    sent: &Sent,
    untraced: &[u64],
) -> Result<(), String> {
    let selfs = stats::self_times(spans);
    // name -> (calls, total duration, total self time)
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let slot = by_name.entry(s.name).or_default();
        slot.0 += 1;
        slot.1 += s.end_ns - s.start_ns;
        slot.2 += own;
    }
    let total_self: u64 = selfs.iter().sum();
    let requests = counts.requests.max(1) as f64;

    println!(
        "  {} requests traced, {} spans",
        counts.requests,
        spans.len()
    );
    println!("  self time per span (self = span - children), share of all request time:");
    println!(
        "    {:<28} {:>8} {:>14} {:>14} {:>8}",
        "span", "calls", "mean_us", "self_us/req", "share"
    );
    for (name, (calls, total, own)) in &by_name {
        println!(
            "    {name:<28} {calls:>8} {:>14.2} {:>14.2} {:>7.1}%",
            *total as f64 / *calls as f64 / 1e3,
            *own as f64 / requests / 1e3,
            *own as f64 * 100.0 / total_self.max(1) as f64
        );
    }
    println!("  self time per layer:");
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, (_, _, own)) in &by_name {
        *by_layer
            .entry(name.split('.').next().expect("layer.name"))
            .or_default() += own;
    }
    let mut layers: Vec<(&str, u64)> = by_layer.into_iter().collect();
    layers.sort_by_key(|&(_, own)| std::cmp::Reverse(own));
    for (layer_name, own) in &layers {
        println!(
            "    {layer_name:<28} {:>14.2} us/req {:>7.1}%",
            *own as f64 / requests / 1e3,
            *own as f64 * 100.0 / total_self.max(1) as f64
        );
    }
    println!(
        "  replayed children outlasted their live parent in {} of {} requests",
        counts.overruns, counts.requests
    );
    let parents: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    let traced_p50 = stats::median_u64(&parents).unwrap_or(0.0);
    let untraced_p50 = stats::median_u64(untraced).unwrap_or(0.0);
    println!(
        "  tracing overhead: traced parent p50 {:.1} us vs untraced one-client p50 {:.1} us ({:+.1}%)",
        traced_p50 / 1e3,
        untraced_p50 / 1e3,
        (traced_p50 / untraced_p50.max(1.0) - 1.0) * 100.0
    );

    let path = scale.out_dir.join(format!("trace_{}.json", w.name()));
    write_spans(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());

    // Mean duration per request that made the call, in microseconds.
    let mean_us = |names: &[&str]| -> f64 {
        let (mut calls, mut total) = (0u64, 0u64);
        for name in names {
            if let Some((c, t, _)) = by_name.get(name) {
                calls = calls.max(*c);
                total += t;
            }
        }
        if calls == 0 {
            0.0
        } else {
            total as f64 / calls as f64 / 1e3
        }
    };
    let parse_ns: u64 = ["syntax.parse_statement", "syntax.parse_query"]
        .iter()
        .filter_map(|n| by_name.get(n))
        .map(|(_, total, _)| total)
        .sum();
    let commits = counts.commits.max(1) as f64;
    let checkpoint_ms: Vec<f64> = counts
        .checkpoints
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let values = [
        mean_us(&["formats.encode_request", "formats.decode_request"]),
        mean_us(&["formats.encode_response", "formats.decode_response"]),
        counts.response_bytes as f64 / requests,
        counts.cache_hits as f64 / counts.cache_lookups.max(1) as f64,
        mean_us(&["server.cache_lookup"]),
        by_name
            .get("server.request")
            .map_or(0.0, |(_, _, own)| *own as f64 / requests / 1e3),
        mean_us(&["syntax.parse_statement", "syntax.parse_query"]),
        if parse_ns == 0 {
            0.0
        } else {
            counts.parsed_bytes as f64 * 1e3 / parse_ns as f64
        },
        mean_us(&["plan.lower"]),
        mean_us(&["plan.optimize"]),
        mean_us(&["eval.execute"]),
        counts.rows_scanned as f64 / counts.result_rows.max(1) as f64,
        counts.exprs_fallback as f64,
        counts.spill_bytes as f64,
        mean_us(&["core.dml_apply"]),
        mean_us(&["durability.append"]),
        counts.wal_bytes as f64 / commits,
        counts.syncs as f64 / commits,
        stats::median(&checkpoint_ms).unwrap_or(0.0),
        counts.checkpoints.len() as f64,
        counts.recovery_ms,
    ];
    println!("  per-layer metrics:");
    for (m, v) in PER_LAYER.iter().zip(values) {
        println!(
            "    {:<34} {v:>16.3} {:<6} ({} is better)",
            m.name, m.unit, m.better
        );
    }
    report::print_result(
        &PER_LAYER,
        &values,
        sent.attempted,
        sent.failed,
        sent.failed == 0,
    );
    Ok(())
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.request_id,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
