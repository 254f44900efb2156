//! End-to-end test: `wsu-loadgen`'s closed loop against `wsu-serve`'s
//! front, over real sockets, with at least two worker threads — the
//! in-process version of the CI http-smoke job.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use wsu_core::serve::ServeSpec;
use wsu_experiments::loadgen::{bench_record, run_load, scrape_demand_total, LoadgenConfig};
use wsu_experiments::serve::{FrontConfig, HttpFront};
use wsu_obs::http::{http_get, HttpClient};

fn start_front(workers: usize) -> HttpFront {
    HttpFront::start(FrontConfig::new(
        "127.0.0.1:0",
        workers,
        ServeSpec::deterministic(23),
    ))
    .expect("start front")
}

#[test]
fn closed_loop_roundtrip_against_two_workers() {
    let front = start_front(2);
    let addr = front.local_addr();
    let config = LoadgenConfig {
        addr,
        connections: 2,
        requests_per_conn: 200,
        warmup_per_conn: 20,
        timeout: Duration::from_secs(5),
        open_rate: None,
    };
    let summary = run_load(&config).expect("load run");

    // Every demand against the deterministic spec must succeed.
    assert_eq!(summary.errors, 0, "no request may fail on loopback");
    assert_eq!(summary.ok, 400);
    assert_eq!(summary.warmup_ok, 40);
    assert!(summary.requests_per_sec > 0.0);
    assert!(summary.latency.count() == 400);
    assert!(summary.latency_ns(0.50) > 0);
    assert!(summary.latency_ns(0.999) >= summary.latency_ns(0.50));

    // Server-side books must agree exactly with the client's count.
    let server_total = scrape_demand_total(addr).expect("scrape");
    assert_eq!(
        server_total,
        summary.ok + summary.warmup_ok,
        "server demand counter must match the client-side 200 count"
    );
    assert_eq!(front.demands(), server_total);

    // The deterministic spec answers every demand correctly: the
    // verdict counters must show nothing but CR.
    let metrics = front.metrics_text();
    let cr: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("wsu_http_verdicts_total{verdict=\"CR\""))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(cr, server_total, "all verdicts must be CR");
    // The other verdict series are pre-registered but must stay zero.
    let non_cr: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("wsu_http_verdicts_total") && !l.contains("verdict=\"CR\""))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(non_cr, 0, "no non-CR verdicts on the deterministic spec");

    // Both workers must actually have served demands: two closed-loop
    // connections occupy two workers for the whole run, so neither
    // counter can be zero.
    let per_worker: Vec<u64> = metrics
        .lines()
        .filter(|l| l.starts_with("wsu_http_demands_total{worker="))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .collect();
    assert_eq!(per_worker.len(), 2, "both workers must appear in /metrics");
    assert!(
        per_worker.iter().all(|&c| c > 0),
        "both workers must serve demands, got {per_worker:?}"
    );

    // The bench record comes from a real run.
    let record = bench_record(&summary);
    assert_eq!(record.bench, "BENCH_http");
    assert!(record
        .rows
        .iter()
        .any(|row| row.name == "http/demand/latency_p999"));

    front.shutdown();
}

#[test]
fn open_loop_reports_drops_under_overload_and_none_when_feasible() {
    let front = start_front(2);
    let addr = front.local_addr();
    let base = LoadgenConfig {
        addr,
        connections: 2,
        requests_per_conn: 150,
        warmup_per_conn: 10,
        timeout: Duration::from_secs(5),
        open_rate: None,
    };

    // A feasible rate: loopback serves a demand in well under 20 ms,
    // so a 100/s schedule keeps up. (Oversleeps under a loaded test
    // harness can still shed the odd slot — the claim is statistical:
    // nearly everything is sent, and every slot is accounted for.)
    let feasible = LoadgenConfig {
        open_rate: Some(100.0),
        requests_per_conn: 20,
        ..base.clone()
    };
    let summary = run_load(&feasible).expect("load run");
    assert_eq!(summary.errors, 0);
    assert_eq!(
        summary.ok + summary.dropped,
        40,
        "every slot is accounted for"
    );
    assert!(
        summary.drop_rate() < 0.5,
        "a feasible schedule mostly sends, got drop_rate {}",
        summary.drop_rate()
    );
    // The schedule paces the run: 20 slots at 20 ms each ≈ 400 ms
    // (shortened only by whatever slots were shed).
    assert!(summary.elapsed.as_secs_f64() > 0.15);
    assert!(summary.latency_ns(0.50) > 0);

    // An absurd rate: the schedule outruns loopback service time, so
    // slots are dropped and every sent request still succeeds.
    let overload = LoadgenConfig {
        open_rate: Some(50_000_000.0),
        ..base.clone()
    };
    let summary = run_load(&overload).expect("load run");
    assert_eq!(summary.errors, 0);
    assert!(
        summary.drop_rate() > 0.5,
        "a 50M/s schedule must shed most load, got ok={} dropped={}",
        summary.ok,
        summary.dropped
    );
    assert_eq!(summary.ok + summary.dropped, 300);
    // The bench record carries the drop accounting.
    let record = bench_record(&summary);
    for key in ["requests_dropped", "drop_rate"] {
        assert!(record.info.iter().any(|(k, _)| k == key), "no {key}");
    }

    // A non-positive rate is a config error, not a hang.
    let bad = LoadgenConfig {
        open_rate: Some(0.0),
        ..base
    };
    assert!(run_load(&bad).is_err());

    front.shutdown();
}

#[test]
fn demand_outcomes_are_deterministic_json() {
    let front = start_front(1);
    let mut client =
        HttpClient::connect(front.local_addr(), Duration::from_secs(5)).expect("connect");
    // One worker, one connection: the outcome stream is exactly the
    // deterministic spec's, so the first responses are predictable.
    for seq in 0..3 {
        let resp = client.request("POST", "/demand", b"").expect("demand");
        assert_eq!(resp.status, 200);
        assert!(
            resp.body
                .contains(&format!("\"seq\":{seq},\"worker\":0,\"verdict\":\"CR\"")),
            "unexpected outcome JSON: {}",
            resp.body
        );
        assert!(resp.body.contains("\"response_time\":0.15"));
        assert!(resp.body.contains("\"responders\":2"));
    }
    front.shutdown();
}

#[test]
fn serving_front_route_semantics() {
    let front = start_front(2);
    let addr = front.local_addr();

    let health = http_get(addr, "/health").expect("health");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let mut client = HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");

    // GET on the POST route: 405 with Allow: POST.
    let resp = client.request("GET", "/demand", b"").expect("GET /demand");
    assert_eq!(resp.status, 405);
    // POST on a GET route: 405 with Allow: GET.
    let resp = client
        .request("POST", "/health", b"")
        .expect("POST /health");
    assert_eq!(resp.status, 405);
    // Unknown path: 404.
    let resp = client
        .request("GET", "/missing", b"")
        .expect("GET /missing");
    assert_eq!(resp.status, 404);
    // The connection survived all three errors (keep-alive intact).
    let resp = client
        .request("POST", "/demand", b"")
        .expect("POST /demand");
    assert_eq!(resp.status, 200);

    let snap = http_get(addr, "/snapshot").expect("snapshot");
    assert_eq!(snap.status, 200);
    assert!(snap.body.contains("\"demands\":1"));
    front.shutdown();
}

#[test]
fn front_shutdown_is_prompt_and_clean() {
    use std::sync::mpsc;
    let front = start_front(4);
    let addr = front.local_addr();
    let mut client = HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");
    assert_eq!(
        client
            .request("POST", "/demand", b"")
            .expect("demand")
            .status,
        200
    );
    drop(client);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        front.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("front shutdown hung");
}

#[test]
fn front_shutdown_closes_idle_keep_alive_connections_at_once() {
    let front = start_front(2);
    let addr = front.local_addr();
    // Two keep-alive clients, each holding one of the two workers with
    // an idle connection.
    let clients: Vec<HttpClient> = (0..2)
        .map(|_| {
            let mut client = HttpClient::connect(addr, Duration::from_secs(5)).expect("connect");
            let demand = client.request("POST", "/demand", b"").expect("demand");
            assert_eq!(demand.status, 200);
            client
        })
        .collect();
    let start = Instant::now();
    assert_eq!(front.shutdown(), 0, "no worker panicked");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    drop(clients);
}

/// Writes `request` on a fresh connection, closes the write side and
/// returns everything the server sends back. Write and read errors are
/// tolerated: a server that rejects a request may reset the connection
/// around its answer.
fn raw_roundtrip(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        response.extend_from_slice(&buf[..n]);
    }
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn front_answers_unreadable_requests_and_counts_each() {
    let front = start_front(2);
    let addr = front.local_addr();

    let malformed = raw_roundtrip(addr, b"total garbage\r\n\r\n");
    assert!(malformed.starts_with("HTTP/1.1 400 "), "{malformed:?}");
    // A head past the 8 KiB bound, sent whole so the front reads it all.
    let mut oversized = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
    oversized.extend(std::iter::repeat_n(b'a', 9_000));
    oversized.extend_from_slice(b"\r\n\r\n");
    let too_large = raw_roundtrip(addr, &oversized);
    assert!(
        too_large.starts_with("HTTP/1.1 431 "),
        "{:?}",
        &too_large[..too_large.len().min(64)]
    );
    let closed = raw_roundtrip(addr, b"");
    assert!(
        closed.is_empty(),
        "a clean close gets no response: {closed:?}"
    );

    // The front counts an error before it answers, so both are in.
    let errors: u64 = front
        .metrics_text()
        .lines()
        .filter(|l| l.starts_with("wsu_http_request_errors_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(errors, 2, "one per rejected request, none for the close");
    front.shutdown();
}
