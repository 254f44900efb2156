//! `http-serve`: the real front (`HttpFront`, paper spec, 2 workers)
//! driven closed-loop over 2 keep-alive connections by the benchmark's
//! own client, one connection interleaving a `GET /metrics` per
//! thousand demands.

use std::io::{self, Cursor, Read, Write};
use std::time::{Duration, Instant};

use wsu_core::serve::ServeSpec;
use wsu_experiments::serve::{FrontConfig, HttpFront};
use wsu_obs::http::{HttpConn, Response};

use crate::client::{demand_fields, head_len, Client, DEMAND, SCRAPE};
use crate::stats::{median, ns, percentile, Histogram, Report, Series};
use crate::{RunArgs, Setups, SETUP_BATCH};

const WORKERS: usize = 2;
const VERDICTS: [&[u8]; 4] = [b"CR", b"ER", b"NER", b"NRDT"];
/// Demands each connection sends between two scrapes (connection 0 only).
const SCRAPE_EVERY: u64 = 1_000;
/// The round-trip tail reported end to end. Over ten runs on other
/// seeds on a 2-vCPU host, the median over chunks of each chunk's p99.9
/// spread 0.35 (quartile distance ÷ median), of its p99 0.16–0.24, of
/// its p95 0.04–0.08.
const TAIL_Q: f64 = 0.95;
/// Demands per connection in one throughput / tail chunk.
const CHUNK: u64 = 10_000;
/// Untimed warm-up demands per connection, part of each set-up.
const WARMUP: u64 = 200;
/// The `setup_s` quantile. The warm-up runs two client and two server
/// threads on 2 vCPUs; for a second or more at a time it takes 2–4× its
/// usual time (the threads wait, their CPU time stays put), so the lower
/// quartile, on the usual case, is reported.
const SETUP_Q: f64 = 0.25;

/// What the client saw, per serving worker.
#[derive(Debug, Default, Clone)]
struct Tally {
    verdicts: [[u64; 4]; WORKERS],
    demands: u64,
    scrapes: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        for (mine, theirs) in self.verdicts.iter_mut().zip(&other.verdicts) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.demands += other.demands;
        self.scrapes += other.scrapes;
        self.failed += other.failed;
    }

    fn count(&mut self, body: &[u8]) -> bool {
        let Some((worker, verdict)) = demand_fields(body) else {
            return false;
        };
        let Some(slot) = VERDICTS.iter().position(|v| *v == verdict) else {
            return false;
        };
        if worker >= WORKERS {
            return false;
        }
        self.verdicts[worker][slot] += 1;
        self.demands += 1;
        true
    }
}

/// A started front with its two connected, warmed-up clients. Clients
/// are declared first so they close before the front shuts down.
struct Deployment {
    clients: Vec<Client>,
    front: HttpFront,
    tally: Tally,
    /// One demand reply as received, for the framing replay.
    sample_reply: Vec<u8>,
}

fn deploy(spec: &ServeSpec) -> io::Result<Deployment> {
    let front = HttpFront::start(FrontConfig::new("127.0.0.1:0", WORKERS, spec.clone()))?;
    let addr = front.local_addr();
    let mut clients = (0..WORKERS)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let sample_reply = {
        let reply = clients[0].call(DEMAND)?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "warm-up demand got {}",
                reply.status
            )));
        }
        reply.wire.to_vec()
    };
    let mut tally = Tally::default();
    tally.count(body_of(&sample_reply));
    // The untimed warm-up runs like the timed phase: both connections
    // at once, closed loop.
    let warm = timed_phase(&mut clients, Until::Demands(WARMUP), WARMUP, false);
    tally.add(&warm.tally);
    Ok(Deployment {
        clients,
        front,
        tally,
        sample_reply,
    })
}

fn body_of(reply: &[u8]) -> &[u8] {
    &reply[head_len(reply).unwrap_or(reply.len())..]
}

/// When a connection's loop stops.
#[derive(Debug, Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Demands(u64),
}

/// One connection's share of a phase (or both, merged).
struct Phase {
    tally: Tally,
    rtt: Series,
    /// From the phase's start to the last connection's stop.
    wall: Duration,
    scrape: Histogram,
    /// The duration (ns) of every demand, kept in memory
    /// by the traced phase only.
    spans: Vec<u32>,
}

fn drive(
    client: &mut Client,
    until: Until,
    every: u64,
    start: Instant,
    scrapes: bool,
    traced: bool,
) -> Phase {
    let mut phase = Phase {
        tally: Tally::default(),
        rtt: Series::new(every, TAIL_Q),
        wall: Duration::ZERO,
        scrape: Histogram::default(),
        spans: Vec::new(),
    };
    let mut since_scrape = 0;
    loop {
        let sent = Instant::now();
        let done_yet = match until {
            Until::Elapsed(length) => sent.duration_since(start) >= length,
            Until::Demands(n) => phase.tally.demands >= n,
        };
        if done_yet {
            phase.wall = sent.duration_since(start);
            return phase;
        }
        let request = if scrapes && since_scrape == SCRAPE_EVERY {
            since_scrape = 0;
            SCRAPE
        } else {
            since_scrape += 1;
            DEMAND
        };
        let ok = match client.call(request) {
            Ok(reply) if reply.status == 200 => request == SCRAPE || phase.tally.count(reply.body),
            _ => false,
        };
        let done = Instant::now();
        if !ok {
            // A broken conversation cannot continue: count it and stop.
            phase.tally.failed += 1;
            return phase;
        }
        let took = ns(done.duration_since(sent));
        if request == SCRAPE {
            phase.tally.scrapes += 1;
            phase.scrape.record(took);
            continue;
        }
        phase.rtt.record(took);
        if traced {
            phase.spans.push(took as u32);
        }
    }
}

/// Both connections over one phase, each on its own thread.
fn timed_phase(clients: &mut [Client], until: Until, every: u64, traced: bool) -> Phase {
    let start = Instant::now();
    let mut phases = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                scope.spawn(move || drive(client, until, every, start, i == 0, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<Phase>>()
    })
    .into_iter();
    let mut merged = phases.next().expect("at least one connection");
    for phase in phases {
        merged.tally.add(&phase.tally);
        merged.rtt.absorb(&phase.rtt);
        merged.wall = merged.wall.max(phase.wall);
        merged.scrape.merge(&phase.scrape);
        merged.spans.extend_from_slice(&phase.spans);
    }
    merged
}

/// Sum of every sample of `family` in a Prometheus text whose labels
/// contain each of `labels`.
fn scrape_sum(text: &str, family: &str, labels: &[&str]) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with('{'))
        .filter(|l| labels.iter().all(|needle| l.contains(needle)))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum()
}

pub fn run(run: &RunArgs) -> Report {
    let mut report = Report::default();
    let spec = ServeSpec::paper(run.derive(1));
    let mut setups = Setups::new(run);
    let mut deployment = match setups.batch(SETUP_BATCH, || deploy(&spec)) {
        Ok(d) => d,
        Err(err) => {
            report.attempted = 1;
            report.failed = 1;
            report.check(false, format!("http-serve: set-up failed: {err}"));
            return report;
        }
    };

    let length = if run.traced {
        run.seconds / 2
    } else {
        run.seconds
    };
    let every = if run.quick { 1_000 } else { CHUNK };
    let untraced = timed_phase(
        &mut deployment.clients,
        Until::Elapsed(length),
        every,
        false,
    );
    let traced = run
        .traced
        .then(|| timed_phase(&mut deployment.clients, Until::Elapsed(length), every, true));
    let mut tally = deployment.tally.clone();
    tally.add(&untraced.tally);
    if let Some(t) = &traced {
        tally.add(&t.tally);
    }

    let demands = untraced.rtt.all.count() as usize;
    let rate = untraced.tally.demands as f64 / untraced.wall.as_secs_f64();
    report.metric("demands_per_s", rate, "1/s", demands);
    let rtt_p50 = untraced.rtt.all.percentile(0.5);
    report.metric("latency_p50_us", rtt_p50 / 1e3, "us", demands);
    report.metric("latency_tail_us", untraced.rtt.tail() / 1e3, "us", demands);
    let scrapes = untraced.scrape.count() as usize;
    let scrape_p50 = untraced.scrape.percentile(0.5);
    report.metric("scrape_p50_us", scrape_p50 / 1e3, "us", scrapes);

    // Verification, outside the timed phases: the client's verdicts, the
    // front's own counters and an in-process replay of each worker must
    // agree exactly.
    let scraped = deployment.clients[0]
        .call(SCRAPE)
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| String::from_utf8_lossy(r.body).into_owned());
    let Some(metrics) = scraped else {
        report.check(false, "http-serve: final GET /metrics failed");
        return report;
    };
    report.attempted = tally.demands + tally.failed + tally.scrapes + 1;
    report.failed = tally.failed;
    let served = scrape_sum(&metrics, "wsu_http_demands_total", &[]) as u64;
    report.check(
        served == tally.demands,
        format!(
            "http-serve: client demands {} == /metrics demands {served}",
            tally.demands
        ),
    );
    let errors = scrape_sum(&metrics, "wsu_http_request_errors_total", &[]);
    report.check(
        errors == 0.0,
        format!("http-serve: front request errors {errors} == 0"),
    );
    let mut replay_ns = 0.0;
    let mut replayed = 0u64;
    for w in 0..WORKERS {
        let worker_label = format!("worker=\"{w}\"");
        let mut server = [0u64; 4];
        for (slot, verdict) in VERDICTS.iter().enumerate() {
            let verdict_label = format!("verdict=\"{}\"", String::from_utf8_lossy(verdict));
            server[slot] = scrape_sum(
                &metrics,
                "wsu_http_verdicts_total",
                &[&worker_label, &verdict_label],
            ) as u64;
        }
        report.check(
            server == tally.verdicts[w],
            format!(
                "http-serve: worker {w} verdicts client {:?} == /metrics {server:?}",
                tally.verdicts[w]
            ),
        );
        let n: u64 = server.iter().sum();
        let mut worker = spec.worker(w as u64);
        let mut replay = [0u64; 4];
        let started = Instant::now();
        for _ in 0..n {
            match worker.demand() {
                Ok(outcome) => {
                    let label = outcome.verdict_label().as_bytes();
                    if let Some(slot) = VERDICTS.iter().position(|v| *v == label) {
                        replay[slot] += 1;
                    }
                }
                Err(_) => break,
            }
        }
        replay_ns += ns(started.elapsed());
        replayed += n;
        report.check(
            replay == server,
            format!("http-serve: worker {w} DemandWorker replay {replay:?} == /metrics {server:?}"),
        );
    }

    if let Some(traced) = traced {
        layers(
            &mut report,
            &deployment,
            &metrics,
            &untraced,
            &traced,
            rtt_p50,
        );
        report.metric(
            "core.serve.calls",
            replayed as f64,
            "count",
            replayed as usize,
        );
        report.metric(
            "core.serve.demand_ns",
            replay_ns / replayed.max(1) as f64,
            "ns",
            replayed as usize,
        );
    }
    drop(deployment.clients);
    deployment.front.shutdown();
    // The second batch of set-ups, with the run's front stopped.
    if let Err(err) = setups.batch(SETUP_BATCH, || deploy(&spec)) {
        report.check(
            false,
            format!("http-serve: set-up after the run failed: {err}"),
        );
    }
    setups.report(SETUP_Q, &mut report);
    report
}

/// The per-layer split of one traced run.
fn layers(
    report: &mut Report,
    deployment: &Deployment,
    metrics: &str,
    untraced: &Phase,
    traced: &Phase,
    rtt_p50: f64,
) {
    let untraced_n = untraced.rtt.all.count() as f64;
    let traced_n = traced.rtt.all.count() as f64;
    report.metric("trace.overhead_share", untraced_n / traced_n - 1.0, "1", 2);
    let n = untraced.rtt.all.count() as usize;
    let mut spans: Vec<f64> = traced.spans.iter().map(|&d| f64::from(d)).collect();
    let p999 = percentile(&mut spans, 0.999);
    report.metric("serve.front.rtt_p999_us", p999 / 1e3, "us", spans.len());

    // The front's own service-time sketch (route + JSON + registry
    // locks): the mean of the workers' p50s.
    let service_ns = (0..WORKERS)
        .map(|w| {
            let worker = format!("worker=\"{w}\"");
            scrape_sum(
                metrics,
                "wsu_http_service_seconds",
                &[&worker, "quantile=\"0.5\""],
            )
        })
        .sum::<f64>()
        * 1e9
        / WORKERS as f64;
    let served = scrape_sum(metrics, "wsu_http_demands_total", &[]);
    report.metric("serve.front.calls", served, "count", served as usize);
    report.metric(
        "serve.front.service_us",
        service_ns / 1e3,
        "us",
        served as usize,
    );
    let errors = scrape_sum(metrics, "wsu_http_request_errors_total", &[]);
    report.metric("serve.front.errors", errors, "count", 1);

    // HTTP framing replayed in memory on the run's own bytes.
    let (recv_ns, send_ns, calls, bytes_out) = replay_framing(&deployment.sample_reply, report);
    report.metric("obs.http.calls", calls as f64, "count", calls);
    report.metric("obs.http.recv_ns", recv_ns, "ns", calls);
    report.metric("obs.http.send_ns", send_ns, "ns", calls);
    report.metric("obs.http.bytes_in", DEMAND.len() as f64, "B", calls);
    report.metric("obs.http.bytes_out", bytes_out as f64, "B", calls);
    let wait_ns = rtt_p50 - service_ns - recv_ns - send_ns;
    report.metric("serve.front.wait_us", wait_ns / 1e3, "us", n);
    report.metric("unattributed_share", wait_ns / rtt_p50, "1", n);

    // The merge + snapshot a scrape pays, at the end-of-run state.
    let mut render_ns = Vec::new();
    let mut bytes = 0;
    for _ in 0..50 {
        let started = Instant::now();
        let text = deployment.front.metrics_text();
        render_ns.push(ns(started.elapsed()));
        bytes = text.len();
    }
    report.metric(
        "obs.metrics.calls",
        render_ns.len() as f64,
        "count",
        render_ns.len(),
    );
    report.metric(
        "obs.metrics.render_us",
        median(&mut render_ns) / 1e3,
        "us",
        render_ns.len(),
    );
    report.metric("obs.metrics.scrape_bytes", bytes as f64, "B", 1);
}

/// An in-memory duplex stream: reads a prepared byte string, counts
/// what is written and keeps it when `kept` is set.
struct MemStream {
    input: Cursor<Vec<u8>>,
    written: usize,
    kept: Option<Vec<u8>>,
}

impl MemStream {
    fn new(input: Vec<u8>, keep: bool) -> MemStream {
        MemStream {
            input: Cursor::new(input),
            written: 0,
            kept: keep.then(Vec::new),
        }
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written += buf.len();
        if let Some(kept) = &mut self.kept {
            kept.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Times `HttpConn::recv` on the client's demand request and
/// `HttpConn::send` on the body of a reply the run received, checking
/// that the replayed reply is byte-identical to the one on the wire.
/// Returns (recv ns/call, send ns/call, calls, reply bytes).
fn replay_framing(sample_reply: &[u8], report: &mut Report) -> (f64, f64, usize, usize) {
    const CALLS: usize = 20_000;
    let body = String::from_utf8_lossy(body_of(sample_reply)).into_owned();
    let response = Response::json(200, body);

    let mut check = HttpConn::new(MemStream::new(Vec::new(), true));
    let _ = check.send(&response, true);
    report.check(
        check.get_ref().kept.as_deref() == Some(sample_reply),
        "http-serve: HttpConn::send replay reproduces the received reply bytes",
    );

    let mut conn = HttpConn::new(MemStream::new(DEMAND.repeat(CALLS), false));
    let started = Instant::now();
    let mut parsed = 0;
    for _ in 0..CALLS {
        if let Ok(request) = conn.recv() {
            parsed += usize::from(request.method == "POST" && request.path == "/demand");
        }
    }
    let recv_ns = ns(started.elapsed()) / CALLS as f64;
    report.check(
        parsed == CALLS,
        "http-serve: HttpConn::recv replay parses every demand request",
    );
    let started = Instant::now();
    for _ in 0..CALLS {
        let _ = conn.send(&response, true);
    }
    let send_ns = ns(started.elapsed()) / CALLS as f64;
    let bytes_out = conn.get_ref().written / CALLS;
    (recv_ns, send_ns, 2 * CALLS, bytes_out)
}
