//! Integration tests for the shared HTTP layer's failure semantics —
//! regression coverage for the three PR 8 bugs plus the bounded-read
//! and shutdown behaviours around them:
//!
//! 1. `http_get` used `read_to_string`, so any non-UTF-8 body (or a
//!    body on a held-open keep-alive connection) turned into an
//!    `InvalidData` error / a hang-until-EOF. It must now return the
//!    raw bytes and honour `Content-Length` framing.
//! 2. An empty or malformed request head was parsed as method `""` and
//!    answered `405`. Malformed heads must earn `400`; genuine method
//!    mismatches must earn `405` **with an `Allow` header**.
//! 3. `MetricsExporter::stop` woke its accept loop with a throwaway
//!    connect to the *bound* address — which is not connectable when
//!    bound to `0.0.0.0` — and could hang the join. Shutdown must
//!    complete promptly for any bind address.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use wsu_obs::export::MetricsExporter;
use wsu_obs::http::{http_get, HttpClient};

/// Opens a raw client connection to `addr` with short timeouts.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Writes `request` and returns everything the server sends back.
///
/// Deliberately tolerant of write/read errors: a server that rejects
/// an oversized head may reset the connection while the client is
/// still writing (or before the client drains the response), and the
/// interesting bytes are whatever made it back before that.
fn raw_roundtrip(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = raw_connect(addr);
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&response).into_owned()
}

/// A one-shot raw HTTP server: accepts a single connection, consumes
/// the request head, writes `response` verbatim, then runs `after`.
fn one_shot_server(
    response: Vec<u8>,
    hold_open: bool,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Drain the request head before answering.
        let mut buf = [0u8; 1024];
        let mut head = Vec::new();
        loop {
            let n = stream.read(&mut buf).expect("read request");
            if n == 0 {
                break;
            }
            head.extend_from_slice(&buf[..n]);
            if head.windows(4).any(|w| w == b"\r\n\r\n") {
                break;
            }
        }
        stream.write_all(&response).expect("write response");
        stream.flush().expect("flush");
        if hold_open {
            // Keep the connection open: a client that frames on
            // Content-Length returns immediately; a read-to-EOF client
            // blocks here until its timeout.
            std::thread::sleep(Duration::from_secs(8));
        }
    });
    (addr, handle)
}

// ---------------------------------------------------------------
// Bug 1: http_get must handle non-UTF-8 bodies and Content-Length.
// ---------------------------------------------------------------

#[test]
fn http_get_returns_non_utf8_bodies() {
    let body: &[u8] = &[0xff, 0xfe, 0x00, 0x01, 0x80, 0xc3];
    let mut response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body);
    let (addr, handle) = one_shot_server(response, false);
    let resp = http_get(addr, "/blob").expect("non-UTF-8 body must not be an error");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.bytes, body, "raw bytes must round-trip unmangled");
    // The lossy text view substitutes, never errors.
    assert!(resp.body.contains('\u{fffd}'));
    handle.join().expect("server thread");
}

#[test]
fn http_get_honours_content_length_on_held_open_connection() {
    let mut response =
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\n".to_vec();
    response.extend_from_slice(b"hello");
    let (addr, _handle) = one_shot_server(response, true);
    let started = Instant::now();
    let resp = http_get(addr, "/held").expect("framed body");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, "hello");
    // Content-Length framing returns as soon as 5 bytes arrive; the
    // old read-to-EOF implementation sat on the open socket until its
    // 5 s timeout killed it.
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "http_get waited for EOF instead of honouring Content-Length ({:?})",
        started.elapsed()
    );
    // The server thread sleeps holding the socket; don't join it.
}

// ---------------------------------------------------------------
// Bug 2: malformed heads are 400; method mismatches are 405+Allow.
// ---------------------------------------------------------------

#[test]
fn malformed_request_line_is_400_not_405() {
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
    let response = raw_roundtrip(exporter.local_addr(), b"total garbage\r\n\r\n");
    assert!(
        response.starts_with("HTTP/1.1 400 "),
        "malformed head must be 400, got: {response:?}"
    );
    exporter.shutdown();
}

#[test]
fn bare_newline_head_is_answered_400() {
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
    let response = raw_roundtrip(exporter.local_addr(), b"\r\n\r\n");
    assert!(
        response.starts_with("HTTP/1.1 400 "),
        "empty request line must be 400, got: {response:?}"
    );
    exporter.shutdown();
}

#[test]
fn clean_close_without_bytes_is_silent() {
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
    let mut stream = raw_connect(exporter.local_addr());
    stream.shutdown(Shutdown::Write).expect("shutdown write");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    assert!(
        response.is_empty(),
        "a clean close before any request deserves no response, got: {:?}",
        String::from_utf8_lossy(&response)
    );
    exporter.shutdown();
}

#[test]
fn wrong_method_is_405_with_allow_header() {
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
    let response = raw_roundtrip(
        exporter.local_addr(),
        b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert!(
        response.starts_with("HTTP/1.1 405 "),
        "POST on a GET route must be 405, got: {response:?}"
    );
    assert!(
        response.to_ascii_lowercase().contains("allow: get"),
        "405 must carry an Allow header, got: {response:?}"
    );
    exporter.shutdown();
}

#[test]
fn oversized_head_is_431() {
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
    let mut request = b"GET /metrics HTTP/1.1\r\nHost: x\r\n".to_vec();
    // Push the head well past the 8 KiB bound.
    for i in 0..600 {
        request.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(20)).as_bytes());
    }
    request.extend_from_slice(b"\r\n");
    let response = raw_roundtrip(exporter.local_addr(), &request);
    assert!(
        response.starts_with("HTTP/1.1 431 "),
        "oversized head must be 431, got: {:?}",
        &response[..response.len().min(64)]
    );
    exporter.shutdown();
}

#[test]
fn slow_loris_partial_head_times_out_with_408() {
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
    let mut stream = raw_connect(exporter.local_addr());
    // Send a partial head and then stall: the server's 5 s read
    // timeout must cut the connection off with 408, not hang.
    stream.write_all(b"GET /metrics HT").expect("write partial");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "stalled mid-head must be 408, got: {text:?}"
    );
    exporter.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
    exporter.publish_metrics("m 1\n");
    let mut client =
        HttpClient::connect(exporter.local_addr(), Duration::from_secs(5)).expect("connect");
    for _ in 0..3 {
        let resp = client.request("GET", "/metrics", b"").expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "m 1\n");
        assert!(resp.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }
    let health = client.request("GET", "/health", b"").expect("health");
    assert_eq!(health.status, 200);
    // The client stays connected and idle: shutdown closes its
    // connection at once rather than wait out the 5 s read timeout.
    let start = Instant::now();
    exporter.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    drop(client);
}

// ---------------------------------------------------------------
// Bug 3: shutdown must complete promptly for any bind address.
// ---------------------------------------------------------------

/// Runs `f` on a helper thread and fails the test if it does not
/// finish within `timeout` — the watchdog that turns a hung join into
/// a test failure instead of a hung suite.
fn must_finish_within(timeout: Duration, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(timeout)
        .expect("operation hung past the watchdog");
}

#[test]
fn shutdown_completes_when_bound_to_unspecified_address() {
    // Pre-fix, stop() tried to connect to 0.0.0.0:<port> to unblock a
    // *blocking* accept; platforms that refuse that connect left the
    // join hanging forever. The poll loop bounds shutdown regardless.
    let exporter = MetricsExporter::bind("0.0.0.0:0").expect("bind 0.0.0.0");
    let addr = SocketAddr::from(([127, 0, 0, 1], exporter.local_addr().port()));
    let health = http_get(addr, "/health").expect("health over loopback");
    assert_eq!(health.status, 200);
    must_finish_within(Duration::from_secs(5), move || exporter.shutdown());
}

#[test]
fn shutdown_completes_with_no_clients_ever() {
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
    must_finish_within(Duration::from_secs(5), move || exporter.shutdown());
}

#[test]
fn concurrent_gets_during_shutdown_do_not_wedge() {
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind");
    exporter.publish_metrics("m 1\n");
    let addr = exporter.local_addr();
    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                // Outcomes legitimately vary: complete responses before
                // the flag flips, refused connects after the listener
                // dies, resets in between. None may hang or panic.
                for _ in 0..50 {
                    let _ = http_get(addr, "/metrics");
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    must_finish_within(Duration::from_secs(10), move || exporter.shutdown());
    for scraper in scrapers {
        scraper.join().expect("scraper thread");
    }
}
