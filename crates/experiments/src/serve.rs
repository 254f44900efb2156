//! The real serving front: the upgrade middleware behind the
//! workspace's one HTTP server, one worker per core.
//!
//! [`HttpFront`] starts a [`wsu_obs::http::Server`] with `workers`
//! serving threads. Every worker owns a **private** demand loop
//! ([`wsu_core::serve::DemandWorker`] — its own middleware, endpoints
//! and RNG stream) plus a private metrics registry, so the steady-state
//! request path shares nothing with other workers: the only lock a
//! demand touches is the worker's own (uncontended) registry mutex,
//! taken briefly to bump pre-resolved counter/sketch ids. Cross-worker
//! aggregation happens only on a `/metrics` or `/snapshot` scrape,
//! which merges the per-worker registries into one rendering.
//!
//! Routes:
//!
//! * `POST /demand` — one closed-loop demand through the middleware:
//!   dispatch, adjudicate, respond. The response is a small JSON
//!   object with the adjudicated verdict, virtual response time,
//!   responder count and forwarding source. For a
//!   [sharded](wsu_core::serve::ServeSpec::sharded) spec the front
//!   claims a fleet-global demand index atomically and keys the
//!   demand's randomness on it, so the stream of outcomes is
//!   identical at any `--workers` count — the sharding determinism
//!   contract applied to live serving.
//! * `GET /metrics` — Prometheus-text rendering of the merged
//!   per-worker registries.
//! * `GET /snapshot` — aggregate JSON (total demands, per-verdict
//!   counts, per-worker demand counts).
//! * `GET /health` — liveness probe.
//!
//! Method mismatches on known routes earn `405` with an `Allow`
//! header; malformed requests earn `400`; both come straight from the
//! shared [`wsu_obs::http`] layer's error taxonomy.
//!
//! ## Accept model
//!
//! The front is a [`wsu_obs::http::Server`] whose handler is one
//! worker's routes: each worker polls the shared listener and serves
//! the accepted connection's keep-alive conversation to completion
//! before accepting again. A closed-loop client fleet should therefore
//! use at most `workers` concurrent connections — exactly what
//! `wsu-loadgen` does.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use wsu_core::serve::{DemandWorker, ServeSpec};
use wsu_obs::http::{Handler, Request, Response, Server};
use wsu_obs::metrics::{CounterId, MetricsRegistry, SketchId};

/// Configuration for [`HttpFront::start`].
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Serving threads; `0` means one per available hardware thread.
    pub workers: usize,
    /// The deployment blueprint every worker instantiates.
    pub spec: ServeSpec,
}

impl FrontConfig {
    /// A front on `addr` with the given spec.
    pub fn new(addr: &str, workers: usize, spec: ServeSpec) -> FrontConfig {
        FrontConfig {
            addr: addr.to_string(),
            workers,
            spec,
        }
    }
}

/// State shared by every serving thread.
struct FrontShared {
    /// One registry per worker; slot `w` is written only by worker `w`
    /// (scrapes briefly lock each slot to merge).
    registries: Vec<Mutex<MetricsRegistry>>,
    /// Total demands served, mirrored outside the registries so
    /// `/snapshot` and tests can read it without a merge.
    demands: AtomicU64,
    /// Pending fleet promotion, encoded as `release + 1` (`0` = none).
    /// `POST /promote/<n>` stores it; every worker applies it to its
    /// private middleware before the next demand it serves, so the
    /// cutover drops and double-counts nothing.
    promote: AtomicU64,
}

/// A running serving front. Dropping it shuts the workers down.
pub struct HttpFront {
    shared: Arc<FrontShared>,
    server: Server,
}

impl HttpFront {
    /// Binds the listener and starts the serving threads.
    ///
    /// # Errors
    ///
    /// Propagates bind, clone and spawn failures.
    pub fn start(config: FrontConfig) -> io::Result<HttpFront> {
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let shared = Arc::new(FrontShared {
            registries: (0..workers)
                .map(|_| Mutex::new(MetricsRegistry::new()))
                .collect(),
            demands: AtomicU64::new(0),
            promote: AtomicU64::new(0),
        });
        let spec = config.spec;
        let routes_shared = Arc::clone(&shared);
        let server = Server::start(&config.addr, workers, move |w| {
            FrontWorker::new(&routes_shared, &spec, w)
        })?;
        Ok(HttpFront { shared, server })
    }

    /// The bound address (real port after binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The number of serving threads (`--workers 0` resolved).
    pub fn workers(&self) -> usize {
        self.shared.registries.len()
    }

    /// Total demands served so far, across all workers.
    pub fn demands(&self) -> u64 {
        self.shared.demands.load(Ordering::Relaxed)
    }

    /// Merged Prometheus-text rendering of the per-worker registries —
    /// the same bytes `GET /metrics` serves.
    pub fn metrics_text(&self) -> String {
        render_merged_metrics(&self.shared)
    }

    /// Stops the workers, waits for them to exit and returns how many
    /// panicked.
    pub fn shutdown(self) -> usize {
        self.server.shutdown()
    }
}

impl std::fmt::Debug for HttpFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpFront")
            .field("addr", &self.local_addr())
            .field("workers", &self.workers())
            .finish()
    }
}

/// Locks one worker's registry. A worker that panicked while holding
/// the lock leaves behind the counts it had made, which every later
/// scrape should still render, so a poisoned lock is recovered instead
/// of propagating the panic.
fn lock_registry(slot: &Mutex<MetricsRegistry>) -> MutexGuard<'_, MetricsRegistry> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pre-resolved metric ids for one worker's registry.
struct WorkerMetrics {
    demands: CounterId,
    verdicts: [CounterId; 4],
    requests: [CounterId; 5],
    errors: CounterId,
    virtual_seconds: SketchId,
    service_seconds: SketchId,
}

/// Route index for `wsu_http_requests_total{route=…}`.
const ROUTES: [&str; 5] = ["demand", "metrics", "snapshot", "health", "other"];

/// Verdict label order for `wsu_http_verdicts_total{verdict=…}`.
const VERDICTS: [&str; 4] = ["CR", "ER", "NER", "NRDT"];

impl WorkerMetrics {
    fn resolve(registry: &mut MetricsRegistry, worker: &str) -> WorkerMetrics {
        WorkerMetrics {
            demands: registry.counter_id("wsu_http_demands_total", &[("worker", worker)]),
            verdicts: VERDICTS.map(|v| {
                registry.counter_id(
                    "wsu_http_verdicts_total",
                    &[("verdict", v), ("worker", worker)],
                )
            }),
            requests: ROUTES.map(|r| {
                registry.counter_id(
                    "wsu_http_requests_total",
                    &[("route", r), ("worker", worker)],
                )
            }),
            errors: registry.counter_id("wsu_http_request_errors_total", &[("worker", worker)]),
            virtual_seconds: registry
                .sketch_id("wsu_http_virtual_response_seconds", &[("worker", worker)]),
            service_seconds: registry.sketch_id("wsu_http_service_seconds", &[("worker", worker)]),
        }
    }

    fn verdict_id(&self, label: &str) -> CounterId {
        let i = VERDICTS.iter().position(|v| *v == label).unwrap_or(3);
        self.verdicts[i]
    }
}

/// One serving thread's routes and private state.
struct FrontWorker {
    shared: Arc<FrontShared>,
    worker: usize,
    demand_worker: DemandWorker,
    sharded: bool,
    metrics: WorkerMetrics,
    /// The promotion this worker's middleware has applied, encoded as
    /// [`FrontShared::promote`] is.
    applied_promote: u64,
    /// Reused per-response JSON buffer: the demand path allocates only
    /// inside the HTTP layer's own reused buffers.
    json: String,
}

impl FrontWorker {
    fn new(shared: &Arc<FrontShared>, spec: &ServeSpec, worker: usize) -> FrontWorker {
        let metrics = {
            let mut registry = lock_registry(&shared.registries[worker]);
            WorkerMetrics::resolve(&mut registry, &worker.to_string())
        };
        FrontWorker {
            shared: Arc::clone(shared),
            worker,
            demand_worker: spec.worker(worker as u64),
            sharded: spec.sharded,
            metrics,
            applied_promote: 0,
            json: String::with_capacity(160),
        }
    }

    fn registry(&self) -> MutexGuard<'_, MetricsRegistry> {
        lock_registry(&self.shared.registries[self.worker])
    }

    /// Applies any promotion posted since this worker last served a
    /// demand. One acquire load on the hot path; the weight rewrite runs
    /// only when the stored value changes.
    fn apply_pending_promote(&mut self) {
        let pending = self.shared.promote.load(Ordering::Acquire);
        if pending != self.applied_promote {
            if pending > 0 {
                let _ = self.demand_worker.promote((pending - 1) as usize);
            }
            self.applied_promote = pending;
        }
    }

    /// Routes one request.
    fn route(&mut self, request: &Request) -> Response {
        let route_index = match request.path.as_str() {
            "/demand" => 0,
            "/metrics" => 1,
            "/snapshot" => 2,
            "/health" => 3,
            _ => 4,
        };
        self.registry()
            .inc_counter_id(self.metrics.requests[route_index]);
        if let Some(rest) = request.path.strip_prefix("/promote/") {
            return match (request.method.as_str(), rest.parse::<usize>()) {
                ("POST", Ok(release)) => {
                    // Validate against this worker's fleet before
                    // publishing — every worker deploys the same spec.
                    if self.demand_worker.promote(release).is_err() {
                        return Response::text(404, format!("unknown release {release}\n"));
                    }
                    self.applied_promote = release as u64 + 1;
                    self.shared
                        .promote
                        .store(release as u64 + 1, Ordering::Release);
                    Response::json(200, format!("{{\"promoted\":{release}}}"))
                }
                ("POST", Err(_)) => Response::text(400, "promote wants /promote/<release>\n"),
                (_, _) => Response::method_not_allowed("POST"),
            };
        }
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/demand") => {
                self.apply_pending_promote();
                // Sharded specs key each demand's randomness on a
                // fleet-global index claimed atomically before serving,
                // so the outcome is identical no matter which worker gets
                // the request (see `ServeSpec::sharded`). The plain path
                // keeps the per-worker sequential stream and counts
                // afterwards.
                let result = if self.sharded {
                    let global = self.shared.demands.fetch_add(1, Ordering::Relaxed);
                    self.demand_worker.demand_indexed(global)
                } else {
                    self.demand_worker.demand()
                };
                match result {
                    Ok(outcome) => {
                        {
                            let mut registry = self.registry();
                            registry.inc_counter_id(self.metrics.demands);
                            registry
                                .inc_counter_id(self.metrics.verdict_id(outcome.verdict_label()));
                            registry.observe_sketch_id(
                                self.metrics.virtual_seconds,
                                outcome.response_time,
                            );
                        }
                        if !self.sharded {
                            self.shared.demands.fetch_add(1, Ordering::Relaxed);
                        }
                        render_outcome_json(&mut self.json, &outcome);
                        Response::json(200, self.json.clone())
                    }
                    Err(err) => Response::text(503, format!("no active releases: {err:?}\n")),
                }
            }
            ("GET" | "HEAD", "/demand") => Response::method_not_allowed("POST"),
            ("GET", "/metrics") => Response::bytes(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                render_merged_metrics(&self.shared).into_bytes(),
            ),
            ("GET", "/snapshot") => Response::json(200, render_snapshot_json(&self.shared)),
            ("GET", "/health") => Response::text(200, "ok\n"),
            (_, "/metrics" | "/snapshot" | "/health") => Response::method_not_allowed("GET"),
            ("GET", _) => Response::text(404, "not found\n"),
            (_, _) => Response::method_not_allowed("GET, POST"),
        }
    }
}

impl Handler for FrontWorker {
    fn handle(&mut self, request: &Request) -> Response {
        let started = Instant::now();
        let response = self.route(request);
        if request.method == "POST" && request.path == "/demand" {
            let elapsed = started.elapsed().as_secs_f64();
            self.registry()
                .observe_sketch_id(self.metrics.service_seconds, elapsed);
        }
        response
    }

    fn rejected(&mut self) {
        self.registry().inc_counter_id(self.metrics.errors);
    }
}

/// Renders one demand outcome as the `/demand` response body.
fn render_outcome_json(out: &mut String, outcome: &wsu_core::serve::DemandOutcome) {
    use std::fmt::Write as _;
    out.clear();
    let _ = write!(
        out,
        "{{\"seq\":{},\"worker\":{},\"verdict\":\"{}\",\"response_time\":{},\"responders\":{},",
        outcome.seq,
        outcome.worker,
        outcome.verdict_label(),
        outcome.response_time,
        outcome.responders,
    );
    match outcome.source {
        Some(source) => {
            let _ = write!(out, "\"source\":{source},");
        }
        None => out.push_str("\"source\":null,"),
    }
    let _ = write!(out, "\"t\":{}}}", outcome.t);
}

/// Merges every worker's registry and renders the Prometheus text.
fn render_merged_metrics(shared: &FrontShared) -> String {
    let mut merged = MetricsRegistry::new();
    for slot in &shared.registries {
        let registry = lock_registry(slot);
        merged.merge(&registry);
    }
    merged.snapshot()
}

/// Aggregate JSON for `/snapshot`.
fn render_snapshot_json(shared: &FrontShared) -> String {
    use std::fmt::Write as _;
    let workers = shared.registries.len();
    let mut per_worker = Vec::with_capacity(workers);
    let mut verdicts = [0u64; 4];
    for (w, slot) in shared.registries.iter().enumerate() {
        let registry = lock_registry(slot);
        let label = w.to_string();
        per_worker.push(registry.counter("wsu_http_demands_total", &[("worker", &label)]));
        for (i, v) in VERDICTS.iter().enumerate() {
            verdicts[i] += registry.counter(
                "wsu_http_verdicts_total",
                &[("verdict", v), ("worker", &label)],
            );
        }
    }
    let total: u64 = per_worker.iter().sum();
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"workers\":{workers},\"demands\":{total},\"verdicts\":{{"
    );
    for (i, v) in VERDICTS.iter().enumerate() {
        let _ = write!(
            out,
            "\"{v}\":{}{}",
            verdicts[i],
            if i + 1 < VERDICTS.len() { "," } else { "" }
        );
    }
    out.push_str("},\"per_worker\":[");
    for (w, count) in per_worker.iter().enumerate() {
        let _ = write!(
            out,
            "{count}{}",
            if w + 1 < per_worker.len() { "," } else { "" }
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wsu_obs::http::{http_get, HttpClient};

    fn deterministic_front(workers: usize) -> HttpFront {
        HttpFront::start(FrontConfig::new(
            "127.0.0.1:0",
            workers,
            ServeSpec::deterministic(11),
        ))
        .expect("start front")
    }

    #[test]
    fn health_demand_and_metrics_roundtrip() {
        let front = deterministic_front(2);
        let addr = front.local_addr();
        let health = http_get(addr, "/health").expect("health");
        assert_eq!(health.status, 200);

        let mut client = HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");
        for _ in 0..5 {
            let resp = client.request("POST", "/demand", b"").expect("demand");
            assert_eq!(resp.status, 200);
            assert!(resp.body.contains("\"verdict\":\"CR\""));
            assert!(resp.keep_alive);
        }
        drop(client);
        assert_eq!(front.demands(), 5);
        let metrics = front.metrics_text();
        assert!(metrics.contains("wsu_http_demands_total"));
        front.shutdown();
    }

    #[test]
    fn wrong_methods_get_405_with_allow() {
        let front = deterministic_front(1);
        let addr = front.local_addr();
        let mut client = HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");
        let resp = client.request("GET", "/demand", b"").expect("GET /demand");
        assert_eq!(resp.status, 405);
        let resp = client
            .request("POST", "/metrics", b"")
            .expect("POST /metrics");
        assert_eq!(resp.status, 405);
        let resp = client.request("GET", "/nope", b"").expect("GET /nope");
        assert_eq!(resp.status, 404);
        front.shutdown();
    }

    #[test]
    fn sharded_spec_outcomes_are_worker_count_invariant() {
        // Pull the fields that must not depend on the worker fleet out
        // of the /demand body (seq and worker legitimately differ).
        fn essence(body: &str) -> String {
            let from = body.find("\"verdict\"").expect("verdict field");
            let to = body.find(",\"source\"").expect("source field");
            body[from..to].to_string()
        }
        // Drive 24 demands through `conns` sequential connections so
        // different workers get a turn, and record the outcome stream.
        let run = |workers: usize, conns: usize| -> Vec<String> {
            let front = HttpFront::start(FrontConfig::new(
                "127.0.0.1:0",
                workers,
                ServeSpec::paper(77).with_sharding(),
            ))
            .expect("start front");
            let addr = front.local_addr();
            let mut out = Vec::new();
            for _ in 0..conns {
                let mut client =
                    HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");
                for _ in 0..24 / conns {
                    let resp = client.request("POST", "/demand", b"").expect("demand");
                    assert_eq!(resp.status, 200);
                    out.push(essence(&resp.body));
                }
            }
            assert_eq!(front.demands(), 24);
            front.shutdown();
            out
        };
        let baseline = run(1, 1);
        // The paper spec has exponential latencies: outcomes vary, so
        // agreement below is meaningful.
        assert!(baseline.iter().any(|o| *o != baseline[0]));
        assert_eq!(baseline, run(2, 4));
        assert_eq!(baseline, run(4, 8));
    }

    #[test]
    fn snapshot_aggregates_worker_counts() {
        let front = deterministic_front(2);
        let addr = front.local_addr();
        let mut client = HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");
        for _ in 0..3 {
            assert_eq!(
                client
                    .request("POST", "/demand", b"")
                    .expect("demand")
                    .status,
                200
            );
        }
        drop(client);
        let snap = http_get(addr, "/snapshot").expect("snapshot");
        assert_eq!(snap.status, 200);
        assert!(snap.body.starts_with("{\"workers\":2,\"demands\":3,"));
        assert!(snap.body.contains("\"CR\":3"));
        front.shutdown();
    }

    #[test]
    fn a_poisoned_worker_registry_does_not_break_later_scrapes() {
        let front = deterministic_front(2);
        let addr = front.local_addr();
        let mut client = HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");
        for _ in 0..3 {
            let resp = client.request("POST", "/demand", b"").expect("demand");
            assert_eq!(resp.status, 200);
        }
        drop(client);
        // A thread that panics while it holds worker 1's registry
        // poisons that lock, as a worker panicking mid-demand would.
        let shared = Arc::clone(&front.shared);
        let poisoner = std::thread::spawn(move || {
            let _registry = shared.registries[1].lock().unwrap();
            panic!("worker panicked while holding its registry");
        });
        assert!(poisoner.join().is_err());
        assert!(front.shared.registries[1].is_poisoned());

        let metrics = front.metrics_text();
        assert!(metrics.contains("wsu_http_demands_total"));
        for _ in 0..2 {
            let scrape = http_get(addr, "/metrics").expect("scrape");
            assert_eq!(scrape.status, 200);
            let snap = http_get(addr, "/snapshot").expect("snapshot");
            assert_eq!(snap.status, 200);
            assert!(snap.body.contains("\"demands\":3,"), "{}", snap.body);
        }
        front.shutdown();
    }
}
