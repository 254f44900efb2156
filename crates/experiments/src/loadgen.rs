//! HTTP load generator for the serving front.
//!
//! [`run_load`] opens `connections` keep-alive connections to a
//! `wsu-serve` front and drives each from its own thread in a **closed
//! loop**: every connection keeps exactly one request in flight
//! (`POST /demand`), so total in-flight load is fixed at `connections`
//! and the generator measures the front's capacity at that concurrency
//! rather than open-loop queueing collapse. Per-request wall latency is
//! captured in a per-thread [`QuantileSketch`] and merged at the end,
//! so the hot loop shares nothing across threads.
//!
//! Setting [`LoadgenConfig::open_rate`] switches to a **fixed-rate
//! open loop**: the configured aggregate rate is divided evenly across
//! connections and each connection sends on its own fixed schedule,
//! whether or not the previous response has arrived. Latency is
//! measured from the request's *scheduled* send instant — the
//! coordinated-omission-free definition, so queueing delay at an
//! overloaded front shows up in the quantiles instead of silently
//! stretching the schedule. A connection that falls more than one
//! interval behind **drops** the missed slots (they are counted in
//! [`LoadSummary::dropped`], never sent); the drop rate alongside
//! p50/p99/p999 is the open-loop overload signal.
//!
//! The summary can be cross-checked against the server's own books:
//! [`scrape_demand_total`] reads `GET /metrics` and sums the per-worker
//! `wsu_http_demands_total` series, which must equal the client-side
//! count of 200s when the generator is the only client (the CI
//! http-smoke job asserts exactly this).
//!
//! [`bench_record`] publishes the run as `results/BENCH_http.json`, a
//! stamped `wsu-bench/1` record, so the stock `bench_compare`
//! regression guard can diff runs.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use wsu_obs::bench::{BenchRecord, BenchRow};
use wsu_obs::http::{http_get, HttpClient};
use wsu_obs::jsonl::JsonValue;
use wsu_obs::quantile::QuantileSketch;

/// Relative-error bound for the latency sketches (1%).
const SKETCH_ALPHA: f64 = 0.01;

/// Configuration for one closed-loop run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Front address, e.g. `127.0.0.1:9100`.
    pub addr: SocketAddr,
    /// Concurrent keep-alive connections (= fixed in-flight window).
    pub connections: usize,
    /// Requests each connection issues after warmup.
    pub requests_per_conn: u64,
    /// Per-connection untimed warmup requests.
    pub warmup_per_conn: u64,
    /// Per-request I/O timeout.
    pub timeout: Duration,
    /// `Some(rate)` switches to the fixed-rate open loop: `rate`
    /// requests per second aggregate, divided evenly across
    /// connections. `None` is the closed loop.
    pub open_rate: Option<f64>,
}

impl LoadgenConfig {
    /// A config with the defaults the CI smoke run uses.
    pub fn new(addr: SocketAddr) -> LoadgenConfig {
        LoadgenConfig {
            addr,
            connections: 2,
            requests_per_conn: 500,
            warmup_per_conn: 50,
            timeout: Duration::from_secs(5),
            open_rate: None,
        }
    }
}

/// What one closed-loop run measured.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Connections driven.
    pub connections: usize,
    /// Requests that completed with status 200 (timed phase only).
    pub ok: u64,
    /// Warmup requests that completed with status 200 (untimed, but
    /// they do land in the server's demand counter — the agreement
    /// check needs them).
    pub warmup_ok: u64,
    /// Requests that failed (I/O error or non-200 status).
    pub errors: u64,
    /// Open loop only: scheduled requests never sent because their
    /// connection had fallen more than one interval behind (0 in the
    /// closed loop, where nothing is scheduled).
    pub dropped: u64,
    /// Wall time of the timed phase.
    pub elapsed: Duration,
    /// Completed requests per wall second.
    pub requests_per_sec: f64,
    /// Merged per-request wall-latency sketch (seconds). In the open
    /// loop, latency runs from the *scheduled* send instant.
    pub latency: QuantileSketch,
}

impl LoadSummary {
    /// A latency quantile in nanoseconds (0 when nothing was recorded).
    pub fn latency_ns(&self, q: f64) -> u64 {
        to_ns(self.latency.quantile(q).unwrap_or(0.0))
    }

    /// Fraction of scheduled requests that were dropped (0.0 when
    /// nothing was scheduled or dropped — in particular, always 0.0
    /// for a closed-loop run).
    pub fn drop_rate(&self) -> f64 {
        let attempted = self.ok + self.errors + self.dropped;
        if attempted == 0 {
            0.0
        } else {
            self.dropped as f64 / attempted as f64
        }
    }
}

fn to_ns(seconds: f64) -> u64 {
    if seconds.is_finite() && seconds > 0.0 {
        (seconds * 1e9).round() as u64
    } else {
        0
    }
}

/// One connection's share of the run.
struct ConnResult {
    ok: u64,
    warmup_ok: u64,
    errors: u64,
    dropped: u64,
    latency: QuantileSketch,
}

impl ConnResult {
    fn empty() -> ConnResult {
        ConnResult {
            ok: 0,
            warmup_ok: 0,
            errors: 0,
            dropped: 0,
            latency: QuantileSketch::new(SKETCH_ALPHA),
        }
    }
}

/// Drives the configured loop (closed, or open at a fixed rate) and
/// returns the merged summary.
///
/// # Errors
///
/// Fails if any connection cannot be established or if an open-loop
/// rate is not finite and positive; individual request failures after
/// connect are counted in [`LoadSummary::errors`] instead (the loop
/// keeps going so one hiccup doesn't void a run).
pub fn run_load(config: &LoadgenConfig) -> io::Result<LoadSummary> {
    if let Some(rate) = config.open_rate {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("open-loop rate must be positive, got {rate}"),
            ));
        }
    }
    let mut clients = Vec::with_capacity(config.connections);
    for _ in 0..config.connections {
        clients.push(HttpClient::connect(config.addr, config.timeout)?);
    }
    let started = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| scope.spawn(move || drive_connection(client, config)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut result = ConnResult::empty();
                    result.errors = config.requests_per_conn;
                    result
                })
            })
            .collect()
    });
    let elapsed = started.elapsed();
    let mut latency = QuantileSketch::new(SKETCH_ALPHA);
    let mut ok = 0;
    let mut warmup_ok = 0;
    let mut errors = 0;
    let mut dropped = 0;
    for result in &results {
        ok += result.ok;
        warmup_ok += result.warmup_ok;
        errors += result.errors;
        dropped += result.dropped;
        latency.merge(&result.latency);
    }
    let secs = elapsed.as_secs_f64().max(1e-9);
    Ok(LoadSummary {
        connections: config.connections,
        ok,
        warmup_ok,
        errors,
        dropped,
        elapsed,
        requests_per_sec: ok as f64 / secs,
        latency,
    })
}

/// One connection's run: warmup (always closed-loop), then the timed
/// phase in the configured mode.
fn drive_connection(mut client: HttpClient, config: &LoadgenConfig) -> ConnResult {
    let mut result = ConnResult::empty();
    for _ in 0..config.warmup_per_conn {
        if matches!(client.request("POST", "/demand", b""), Ok(r) if r.status == 200) {
            result.warmup_ok += 1;
        }
    }
    match config.open_rate {
        None => drive_closed(&mut client, config, &mut result),
        Some(rate) => drive_open(&mut client, config, rate, &mut result),
    }
    result
}

/// Closed loop: one request in flight, back to back.
fn drive_closed(client: &mut HttpClient, config: &LoadgenConfig, result: &mut ConnResult) {
    for _ in 0..config.requests_per_conn {
        let started = Instant::now();
        match client.request("POST", "/demand", b"") {
            Ok(resp) if resp.status == 200 => {
                result.ok += 1;
                result.latency.observe(started.elapsed().as_secs_f64());
            }
            Ok(_) | Err(_) => result.errors += 1,
        }
    }
}

/// Open loop: this connection's share of the aggregate rate is one
/// request every `connections / rate` seconds, on a fixed schedule
/// anchored at the start of its timed phase. Latency runs from the
/// scheduled instant (no coordinated omission). Slots that are already
/// more than one interval stale when the connection gets to them are
/// dropped, so a saturated front degrades into a rising drop rate
/// instead of a silently slowed schedule.
fn drive_open(client: &mut HttpClient, config: &LoadgenConfig, rate: f64, result: &mut ConnResult) {
    let interval = config.connections as f64 / rate;
    let start = Instant::now();
    let mut slot: u64 = 0;
    while slot < config.requests_per_conn {
        let scheduled = start + Duration::from_secs_f64(slot as f64 * interval);
        let now = Instant::now();
        if now > scheduled + Duration::from_secs_f64(interval) {
            // Behind by more than a full interval: drop every stale
            // slot and resume at the first one still fresh.
            let caught_up = ((now - start).as_secs_f64() / interval) as u64;
            let resume = caught_up.min(config.requests_per_conn);
            result.dropped += resume - slot;
            slot = resume;
            continue;
        }
        if let Some(wait) = scheduled.checked_duration_since(now) {
            std::thread::sleep(wait);
        }
        match client.request("POST", "/demand", b"") {
            Ok(resp) if resp.status == 200 => {
                result.ok += 1;
                result.latency.observe(scheduled.elapsed().as_secs_f64());
            }
            Ok(_) | Err(_) => result.errors += 1,
        }
        slot += 1;
    }
}

/// Sums the server's per-worker `wsu_http_demands_total` counters from
/// a `GET /metrics` scrape — the server-side view of how many demands
/// it has served, for agreement checks against the client-side count.
///
/// # Errors
///
/// Propagates scrape I/O failures; a non-200 scrape or an absent
/// series reads as 0.
pub fn scrape_demand_total(addr: SocketAddr) -> io::Result<u64> {
    let response = http_get(addr, "/metrics")?;
    if response.status != 200 {
        return Ok(0);
    }
    Ok(sum_counter(&response.body, "wsu_http_demands_total"))
}

/// Sums every sample of `name` in a Prometheus text body.
fn sum_counter(body: &str, name: &str) -> u64 {
    let mut total = 0u64;
    for line in body.lines() {
        if !line.starts_with(name) || line.starts_with('#') {
            continue;
        }
        let rest = &line[name.len()..];
        // Accept `name 3` and `name{labels} 3`, reject `name_suffix 3`.
        if !rest.starts_with(' ') && !rest.starts_with('{') {
            continue;
        }
        if let Some(value) = line.rsplit(' ').next() {
            if let Ok(v) = value.parse::<f64>() {
                total += v.round() as u64;
            }
        }
    }
    total
}

/// The run as a `wsu-bench/1` record (the `BENCH_http.json` format):
/// latency quantiles and the mean time per request, in nanoseconds so
/// the stock `bench_compare` guard can diff two runs, each bounded by
/// the fastest and slowest request. Throughput and the request counts
/// are informational fields.
pub fn bench_record(summary: &LoadSummary) -> BenchRecord {
    let min_ns = to_ns(summary.latency.min().unwrap_or(0.0));
    let max_ns = to_ns(summary.latency.max().unwrap_or(0.0));
    let busy = summary.elapsed.as_secs_f64() * summary.connections as f64;
    let mean = (summary.ok > 0).then(|| to_ns(busy / summary.ok as f64));
    let row = |name: &str, median_ns| BenchRow {
        name: name.to_owned(),
        median_ns,
        min_ns,
        max_ns,
    };
    let number = |key: &str, value: f64| (key.to_owned(), JsonValue::Number(value));
    BenchRecord {
        info: vec![
            number("requests_per_sec", summary.requests_per_sec),
            number("connections", summary.connections as f64),
            number("requests_ok", summary.ok as f64),
            number("requests_failed", summary.errors as f64),
            number("requests_dropped", summary.dropped as f64),
            number("drop_rate", summary.drop_rate()),
        ],
        rows: vec![
            row("http/demand/latency_p50", summary.latency_ns(0.50)),
            row("http/demand/latency_p99", summary.latency_ns(0.99)),
            row("http/demand/latency_p999", summary.latency_ns(0.999)),
            row("http/demand/mean_ns_per_req", mean.unwrap_or(0)),
        ],
        ..BenchRecord::new("BENCH_http")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_counter_handles_labels_and_suffixes() {
        let body = "# TYPE wsu_http_demands_total counter\n\
                    wsu_http_demands_total{worker=\"0\"} 3\n\
                    wsu_http_demands_total{worker=\"1\"} 4\n\
                    wsu_http_demands_total_other 100\n\
                    wsu_http_requests_total{route=\"demand\"} 9\n";
        assert_eq!(sum_counter(body, "wsu_http_demands_total"), 7);
    }

    #[test]
    fn sum_counter_accepts_unlabelled_series() {
        assert_eq!(
            sum_counter("wsu_http_demands_total 12\n", "wsu_http_demands_total"),
            12
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let mut latency = QuantileSketch::new(SKETCH_ALPHA);
        for i in 1..=100 {
            latency.observe(i as f64 * 1e-6);
        }
        let summary = LoadSummary {
            connections: 2,
            ok: 100,
            warmup_ok: 10,
            errors: 0,
            dropped: 0,
            elapsed: Duration::from_millis(10),
            requests_per_sec: 10_000.0,
            latency,
        };
        let record = bench_record(&summary);
        assert_eq!(record.bench, "BENCH_http");
        let names: Vec<&str> = record.rows.iter().map(|row| row.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "http/demand/latency_p50",
                "http/demand/latency_p99",
                "http/demand/latency_p999",
                "http/demand/mean_ns_per_req"
            ]
        );
        // 10 ms over two connections and 100 requests: 200 µs each.
        assert_eq!(record.rows[3].median_ns, 200_000);
        let rate = JsonValue::Number(10_000.0);
        assert_eq!(record.info[0], ("requests_per_sec".to_owned(), rate));
        // The one reader reads back what the one writer wrote.
        assert_eq!(BenchRecord::parse(&record.render()), Ok(record));
    }

    #[test]
    fn latency_ns_is_zero_on_empty_sketch() {
        let summary = LoadSummary {
            connections: 1,
            ok: 0,
            warmup_ok: 0,
            errors: 5,
            dropped: 0,
            elapsed: Duration::from_millis(1),
            requests_per_sec: 0.0,
            latency: QuantileSketch::new(SKETCH_ALPHA),
        };
        assert_eq!(summary.latency_ns(0.5), 0);
    }
}
