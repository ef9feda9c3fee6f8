//! # sqlpp-server — many sessions, one engine
//!
//! A multi-threaded session server over the [`sqlpp`] engine: a
//! `std::net::TcpListener` accept loop feeds a fixed worker pool, each
//! worker serving one connection at a time over the length-prefixed wire
//! protocol of [`sqlpp_formats::wire`]. The layers below were built
//! concurrency-ready — the catalog hands out `Arc` snapshots, DML
//! serializes its read-modify-write on the catalog's writer guard and
//! publishes through one commit point, and the governor gives every
//! query a budget/deadline/cancel token — this crate is the layer that
//! exercises all of it at once (DESIGN.md §5.10).
//!
//! Three serving concerns live here:
//!
//! * **Admission control.** The worker pool bounds concurrency; beyond
//!   it a small accept queue buffers bursts, and past *that* the server
//!   sheds: the connection gets a structured `Overloaded` frame and is
//!   closed, never a hang. Per-session [`SessionConfig`] limits
//!   (memory budgets, deadlines) are the second admission tier — a
//!   tripped budget also surfaces as `Overloaded`, and the engine
//!   remains fully usable (the governor guarantees refuse-don't-corrupt).
//! * **Plan caching.** A shared prepared-statement cache keyed by
//!   `(normalized text, compat mode, catalog schema epoch)` amortizes
//!   parse/lower/optimize across repeated query shapes from all
//!   sessions. The epoch key makes sharing sound: schema changes move
//!   the epoch and strand stale entries (see [`cache::PlanCache`]).
//! * **Isolation.** Request handling runs under `catch_unwind`; a panic
//!   becomes an `internal` error response and the worker lives on.
//!
//! ```no_run
//! use sqlpp::Engine;
//! use sqlpp_server::{Client, Server, ServerConfig};
//!
//! let engine = Engine::new();
//! engine.load_pnotation("t", "{{ {'x': 1}, {'x': 2} }}").unwrap();
//! let server = Server::start(engine, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let resp = client.query("SELECT VALUE t.x FROM t AS t").unwrap();
//! println!("{resp:?}");
//! server.shutdown();
//! ```

#![warn(missing_docs)]

mod cache;
mod client;

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use sqlpp::{Engine, Error, EvalError, ExecOutcome, Prepared, SessionConfig};
use sqlpp_formats::wire::{
    decode_request, encode_response, read_frame, write_frame, Request, Response, WireDiagnostic,
};
use sqlpp_syntax::ast::Statement;
use sqlpp_value::{Tuple, Value};

pub use cache::{CacheStats, PlanCache};
pub use client::{Client, RetryPolicy};
pub use sqlpp_formats::wire;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads — the number of sessions served concurrently.
    pub workers: usize,
    /// Accepted connections allowed to wait for a free worker before new
    /// arrivals are shed with `Overloaded`.
    pub max_pending: usize,
    /// Engine configuration applied to every session: the compat/typing
    /// dials plus per-query governor limits (the second admission tier).
    pub session: SessionConfig,
    /// Plan-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_pending: 64,
            session: SessionConfig::default(),
            cache_capacity: 256,
        }
    }
}

/// Point-in-time serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered (any response kind).
    pub served: u64,
    /// Connections shed at admission (queue full).
    pub shed_connections: u64,
    /// Requests answered `Overloaded` because a session budget tripped.
    pub shed_requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Panics caught and converted to `internal` error responses.
    pub panics: u64,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed_connections: AtomicU64,
    shed_requests: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
}

/// The connection queue between the accept loop and the workers.
struct WorkQueue {
    queue: Mutex<(VecDeque<TcpStream>, bool)>, // (pending, closed)
    ready: Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Enqueues if under `cap`; hands the stream back (shed) otherwise.
    fn push(&self, stream: TcpStream, cap: usize) -> Result<(), TcpStream> {
        let mut guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if guard.0.len() >= cap {
            return Err(stream);
        }
        guard.0.push_back(stream);
        drop(guard);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(s) = guard.0.pop_front() {
                return Some(s);
            }
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
        self.ready.notify_all();
    }
}

/// Clones of every stream a worker is currently serving, so shutdown can
/// sever connections whose clients are idle — a worker blocked in
/// `read_frame` would otherwise never join.
#[derive(Default)]
struct ConnRegistry {
    conns: Mutex<(HashMap<u64, TcpStream>, bool)>, // (active, closed)
    next: AtomicU64,
}

impl ConnRegistry {
    /// Registers a serving connection; returns `None` (refusing service)
    /// once the registry is closed.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut guard = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        if guard.1 {
            let _ = stream.shutdown(Shutdown::Both);
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        guard.0.insert(id, clone);
        Some(id)
    }

    fn unregister(&self, id: u64) {
        self.conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .0
            .remove(&id);
    }

    /// Marks the registry closed and severs every active connection.
    fn close_all(&self) {
        let mut guard = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        guard.1 = true;
        for stream in guard.0.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        guard.0.clear();
    }
}

/// A running session server. Dropping it shuts the server down.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    queue: Arc<WorkQueue>,
    registry: Arc<ConnRegistry>,
    cache: Arc<PlanCache>,
    counters: Arc<Counters>,
    /// A handle onto the served engine (shared catalog + WAL), kept so
    /// graceful shutdown can checkpoint after the workers drain.
    engine: Engine,
}

impl Server {
    /// Binds an ephemeral local port and starts the accept loop plus
    /// `config.workers` worker threads over (a session-configured clone
    /// of) `engine`. The engine's catalog is shared — DML through the
    /// server is visible to the caller's handle and vice versa.
    pub fn start(engine: Engine, config: ServerConfig) -> io::Result<Server> {
        Server::bind("127.0.0.1:0", engine, config)
    }

    /// [`Server::start`] on an explicit address.
    pub fn bind(addr: &str, engine: Engine, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(WorkQueue::new());
        let registry = Arc::new(ConnRegistry::default());
        let cache = Arc::new(PlanCache::new(config.cache_capacity));
        let counters = Arc::new(Counters::default());
        let session_engine = engine.with_config(config.session.clone());

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let registry = Arc::clone(&registry);
            let cache = Arc::clone(&cache);
            let counters = Arc::clone(&counters);
            let engine = session_engine.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sqlpp-worker-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop() {
                            let Some(id) = registry.register(&stream) else {
                                continue; // shutting down
                            };
                            serve_connection(&engine, &cache, &counters, stream);
                            registry.unregister(id);
                        }
                    })?,
            );
        }

        let accept = {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            let counters = Arc::clone(&counters);
            let max_pending = config.max_pending;
            std::thread::Builder::new()
                .name("sqlpp-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let _ = stream.set_nodelay(true);
                        if let Err(shed) = queue.push(stream, max_pending) {
                            // Shed: answer the queued-too-deep connection
                            // with a structured refusal instead of
                            // hanging it. Best-effort — the client may
                            // already be gone.
                            counters.shed_connections.fetch_add(1, Ordering::Relaxed);
                            let mut w = io::BufWriter::new(shed);
                            let _ = write_frame(
                                &mut w,
                                &encode_response(&Response::Overloaded {
                                    message: "admission queue full; retry later".to_string(),
                                }),
                            );
                        }
                    }
                    queue.close();
                })?
        };

        Ok(Server {
            addr: local,
            stop,
            accept: Some(accept),
            workers,
            queue,
            registry,
            cache,
            counters,
            engine: session_engine,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Plan-cache counters (hits mean parse/lower/optimize was skipped).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Serving counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            served: self.counters.served.load(Ordering::Relaxed),
            shed_connections: self.counters.shed_connections.load(Ordering::Relaxed),
            shed_requests: self.counters.shed_requests.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, drains the queue, joins every thread.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.queue.close();
        // Sever live connections: a worker mid-`read_frame` on an idle
        // session would otherwise block the join until its client went
        // away (in-flight requests still finish — only the next read
        // fails).
        self.registry.close_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Graceful shutdown on a durable engine ends with a checkpoint:
        // every worker has drained, so the image is the final state and
        // the next open replays nothing. Best-effort — a failed
        // checkpoint just leaves the WAL for recovery to replay.
        let _ = self.engine.checkpoint();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_threads();
        }
    }
}

/// One worker serving one connection: frames in, frames out, until the
/// peer closes or the stream errors.
fn serve_connection(engine: &Engine, cache: &PlanCache, counters: &Counters, stream: TcpStream) {
    let mut reader = io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = io::BufWriter::new(stream);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return, // clean close or dead stream
        };
        let response = match decode_request(&payload) {
            Ok(req) => {
                // A panic anywhere in statement handling must not take
                // the worker (or the server) down: convert it to a
                // structured internal error and keep serving. The engine
                // is a pile of `Arc` snapshots — a panicked request
                // cannot leave partial state behind (DML publishes
                // all-or-nothing through one commit point).
                match catch_unwind(AssertUnwindSafe(|| handle_request(engine, cache, &req))) {
                    Ok(resp) => resp,
                    Err(panic) => {
                        counters.panics.fetch_add(1, Ordering::Relaxed);
                        Response::Error {
                            code: "internal".to_string(),
                            message: format!("internal error: {}", panic_text(&panic)),
                            diagnostics: Vec::new(),
                        }
                    }
                }
            }
            Err(e) => Response::Error {
                code: "wire".to_string(),
                message: e.to_string(),
                diagnostics: Vec::new(),
            },
        };
        counters.served.fetch_add(1, Ordering::Relaxed);
        match &response {
            Response::Error { .. } => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
            }
            Response::Overloaded { .. } => {
                counters.shed_requests.fetch_add(1, Ordering::Relaxed);
            }
            Response::Rows(_) => {}
        }
        if write_frame(&mut writer, &encode_response(&response)).is_err() {
            return;
        }
    }
}

/// Statement dispatch: cached-plan fast path for queries, the engine's
/// statement executor for everything else. A request's text is lexed
/// once for the cache key and — only on a miss — parsed once; from there
/// the engine is handed the AST, never the string.
fn handle_request(engine: &Engine, cache: &PlanCache, req: &Request) -> Response {
    let compat = engine.config().compat;
    let text = PlanCache::normalize(&req.query);
    let run = |prepared: Arc<Prepared>| {
        prepared
            .execute_with_params(engine, req.params.clone())
            .map(|rows| rows.into_value())
    };
    let result = match cache.get(&text, compat, engine.catalog().schema_epoch()) {
        // Fast path: a cache hit skips parse, lowering, and optimization
        // entirely — the dominant win under repeated query shapes.
        Some(prepared) => run(prepared),
        // Miss: find out what this is. Queries get prepared + cached;
        // other statements run through the general executor.
        None => match sqlpp_syntax::parse_statement(&req.query) {
            Ok(Statement::Query(q)) => engine
                .prepare_parsed(q)
                .and_then(|prepared| run(cache.insert(&text, compat, prepared))),
            Ok(_) if !req.params.is_empty() => {
                return Response::Error {
                    code: "usage".to_string(),
                    message: "positional parameters are only supported on queries".to_string(),
                    diagnostics: Vec::new(),
                };
            }
            Ok(stmt) => engine
                .execute_parsed(&stmt, false)
                .map(|(outcome, _)| outcome_value(outcome)),
            Err(e) => Err(Error::Syntax(e)),
        },
    };
    match result {
        Ok(value) => Response::Rows(value),
        Err(e) => error_response(&req.query, &e),
    }
}

/// Maps non-query outcomes onto single summary tuples so every response
/// is one value.
fn outcome_value(outcome: ExecOutcome) -> Value {
    let summary = |k: &str, v: Value| {
        let mut t = Tuple::with_capacity(1);
        t.insert(k, v);
        Value::Tuple(t)
    };
    match outcome {
        ExecOutcome::Rows(r) => r.into_value(),
        ExecOutcome::Inserted { count } => summary("inserted", Value::Int(count as i64)),
        ExecOutcome::Deleted { count } => summary("deleted", Value::Int(count as i64)),
        ExecOutcome::Updated { count } => summary("updated", Value::Int(count as i64)),
        ExecOutcome::Created { name, .. } => summary("created", Value::Str(name)),
        ExecOutcome::Explained { text } => summary("plan", Value::Str(text)),
    }
}

/// Classifies an engine error into a wire response. Governor refusals —
/// budget exhaustion and deadline/token cancellation — are *shedding*,
/// not errors: the session limits admitted less work than the request
/// needed, the engine is fine, and the client should back off.
fn error_response(src: &str, err: &Error) -> Response {
    match err {
        Error::Eval(EvalError::ResourceExhausted { .. })
        | Error::Eval(EvalError::Cancelled { .. }) => Response::Overloaded {
            message: err.to_string(),
        },
        _ => {
            let code = match err {
                Error::Syntax(_) => "syntax",
                Error::Plan(_) => "plan",
                Error::Eval(_) => "eval",
                Error::Format(_) => "format",
                Error::Catalog(_) => "catalog",
                Error::Schema(_) => "schema",
                Error::Durability(_) => "durability",
                Error::Usage(_) => "usage",
            };
            let diagnostics = sqlpp::diagnostics_for(src, err)
                .into_iter()
                .map(|d| WireDiagnostic {
                    code: d.code.to_string(),
                    message: d.message,
                    start: d.span.start,
                    end: d.span.end,
                })
                .collect();
            Response::Error {
                code: code.to_string(),
                message: err.to_string(),
                diagnostics,
            }
        }
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "panic of unknown type"
    }
}
