//! Hand-rolled HTTP/1.1 framing over `std::net` — the workspace's
//! shared network layer.
//!
//! The PR 6 metrics exporter carried its own ad-hoc request reading
//! (one `read` syscall per byte, no `Content-Length` handling, `405`
//! for malformed heads). This module promotes that code into a proper
//! reusable layer with correct head/body framing, used by both sides
//! of every HTTP conversation in the workspace:
//!
//! * **server** — [`HttpConn::recv`] reads one framed [`Request`]
//!   (bounded head, `Content-Length` body, keep-alive bookkeeping) and
//!   [`HttpConn::send`] writes a framed [`Response`]; [`Server`] is the
//!   workspace's one listener, whose worker threads run those two calls
//!   for a [`Handler`] that supplies only the routes (the metrics
//!   exporter's and the serving front's);
//! * **client** — [`HttpClient`] drives persistent (keep-alive)
//!   connections for the load generator, and [`http_get`] stays the
//!   one-shot scrape helper used by tests, `wsu-httpget` and CI.
//!
//! Everything is plain `std`; the connection type is generic over
//! `Read + Write` so the framing logic is unit-testable on in-memory
//! streams.
//!
//! ## Error semantics
//!
//! [`RecvError`] distinguishes the cases the old exporter conflated:
//! a clean close between requests ([`RecvError::Closed`], no response
//! owed), a malformed or truncated head (`400 Bad Request`), an
//! oversized head (`431 Request Header Fields Too Large`), an
//! oversized declared body (`413 Content Too Large`) and a read
//! timeout mid-request (`408 Request Timeout`). Method mismatches are
//! the *router's* job — a syntactically valid head with a non-allowed
//! method earns `405` with an `Allow` header, never `400`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Size bounds applied while reading a request or response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpConfig {
    /// Maximum bytes of request/response head (start line + headers +
    /// terminator). Longer heads are rejected with
    /// [`RecvError::HeadTooLarge`].
    pub max_head_bytes: usize,
    /// Maximum accepted `Content-Length`. Larger declared bodies are
    /// rejected with [`RecvError::BodyTooLarge`].
    pub max_body_bytes: usize,
}

impl Default for HttpConfig {
    /// 8 KiB heads, 256 KiB bodies — generous for every client this
    /// workspace speaks to.
    fn default() -> Self {
        HttpConfig {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 256 * 1024,
        }
    }
}

/// HTTP version of a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// `HTTP/1.0` — connections close by default.
    Http10,
    /// `HTTP/1.1` — connections persist by default.
    Http11,
}

/// One parsed request, with its body fully read off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The path component of the request target (query stripped).
    pub path: String,
    /// The query string, without the `?`, if one was present.
    pub query: Option<String>,
    /// Protocol version.
    pub version: HttpVersion,
    /// Header `(name, value)` pairs in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless a `Content-Length` said
    /// otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name`, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should persist after this request:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        match self.version {
            HttpVersion::Http11 => !token_list_contains(conn, "close"),
            HttpVersion::Http10 => token_list_contains(conn, "keep-alive"),
        }
    }
}

/// Case-insensitive membership test over a comma-separated token list.
fn token_list_contains(list: &str, token: &str) -> bool {
    list.split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// Why [`HttpConn::recv`] (or a client read) failed.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection cleanly before sending any byte
    /// of a request — normal end of a keep-alive conversation; no
    /// response is owed.
    Closed,
    /// The read timed out. `partial` is `true` if some bytes of a
    /// request had already arrived (a slow-loris-style stall mid-head
    /// or mid-body), `false` on an idle keep-alive connection.
    TimedOut {
        /// Whether the timeout interrupted a partially received
        /// request (as opposed to an idle connection).
        partial: bool,
    },
    /// The head exceeded [`HttpConfig::max_head_bytes`].
    HeadTooLarge,
    /// The declared `Content-Length` exceeded
    /// [`HttpConfig::max_body_bytes`].
    BodyTooLarge {
        /// The length the peer declared.
        declared: u64,
    },
    /// The head (or body framing) was syntactically invalid, including
    /// a connection that closed mid-request.
    Malformed(&'static str),
    /// A transport error other than a timeout.
    Io(io::Error),
}

impl RecvError {
    /// The error response a server should answer with, if any.
    /// [`RecvError::Closed`] and idle timeouts owe no response.
    pub fn response(&self) -> Option<Response> {
        match self {
            RecvError::Closed | RecvError::TimedOut { partial: false } => None,
            RecvError::TimedOut { partial: true } => Some(Response::text(408, "request timeout\n")),
            RecvError::HeadTooLarge => Some(Response::text(431, "request head too large\n")),
            RecvError::BodyTooLarge { .. } => Some(Response::text(413, "request body too large\n")),
            RecvError::Malformed(why) => Some(Response::text(400, format!("bad request: {why}\n"))),
            RecvError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed"),
            RecvError::TimedOut { partial: true } => write!(f, "timed out mid-request"),
            RecvError::TimedOut { partial: false } => write!(f, "timed out while idle"),
            RecvError::HeadTooLarge => write!(f, "request head too large"),
            RecvError::BodyTooLarge { declared } => {
                write!(f, "declared body of {declared} bytes too large")
            }
            RecvError::Malformed(why) => write!(f, "malformed request: {why}"),
            RecvError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<RecvError> for io::Error {
    fn from(err: RecvError) -> io::Error {
        match err {
            RecvError::Io(io) => io,
            RecvError::Closed => io::Error::new(io::ErrorKind::UnexpectedEof, err.to_string()),
            RecvError::TimedOut { .. } => io::Error::new(io::ErrorKind::TimedOut, err.to_string()),
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Maps a transport error to the matching [`RecvError`], treating both
/// `WouldBlock` (POSIX read timeout) and `TimedOut` as timeouts.
fn classify_io(err: io::Error, partial: bool) -> RecvError {
    match err.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RecvError::TimedOut { partial },
        _ => RecvError::Io(err),
    }
}

/// The standard reason phrase for the status codes this workspace
/// emits (anything else renders as `Status`).
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// A response about to be written by [`HttpConn::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Extra headers (e.g. `Allow` on a 405), written verbatim.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json".into(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A response with an explicit content type and byte body.
    pub fn bytes(status: u16, content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: content_type.into(),
            headers: Vec::new(),
            body,
        }
    }

    /// Adds an extra header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The `405 Method Not Allowed` response with its mandatory
    /// `Allow` header.
    pub fn method_not_allowed(allow: &str) -> Response {
        Response::text(405, "method not allowed\n").with_header("Allow", allow)
    }
}

/// A buffered HTTP/1.1 connection over any `Read + Write` stream.
///
/// Reads go through an internal buffer (one `read` syscall per chunk,
/// not per byte — the old exporter's `read_head` read bytes one
/// syscall at a time); bytes past the current request's frame stay
/// buffered for the next [`recv`](HttpConn::recv), so pipelined
/// requests and keep-alive reuse both work.
#[derive(Debug)]
pub struct HttpConn<S> {
    stream: S,
    config: HttpConfig,
    /// Buffered unconsumed bytes: `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Reusable response/request serialisation buffer.
    out: Vec<u8>,
}

/// Read chunk size; also the growth step of the buffered window.
const READ_CHUNK: usize = 4096;

impl<S: Read + Write> HttpConn<S> {
    /// Wraps `stream` with the default [`HttpConfig`].
    pub fn new(stream: S) -> HttpConn<S> {
        HttpConn::with_config(stream, HttpConfig::default())
    }

    /// Wraps `stream` with explicit size bounds.
    pub fn with_config(stream: S, config: HttpConfig) -> HttpConn<S> {
        HttpConn {
            stream,
            config,
            buf: Vec::new(),
            start: 0,
            end: 0,
            out: Vec::new(),
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Unconsumed buffered bytes.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Reads one more chunk from the stream into the buffer. Returns
    /// the number of bytes read (0 on EOF).
    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Consumes and returns the next `n` buffered bytes (caller must
    /// know they are present).
    fn take(&mut self, n: usize) -> &[u8] {
        let slice = &self.buf[self.start..self.start + n];
        self.start += n;
        slice
    }

    /// Reads until `pending()` holds a complete head (terminated by
    /// `\r\n\r\n`, or the lenient bare `\n\n`), returning the head
    /// length *including* the terminator.
    fn read_head(&mut self) -> Result<usize, RecvError> {
        let mut scanned = 0;
        loop {
            if let Some(end) = find_head_end(self.pending(), &mut scanned) {
                if end > self.config.max_head_bytes {
                    return Err(RecvError::HeadTooLarge);
                }
                return Ok(end);
            }
            if self.pending().len() > self.config.max_head_bytes {
                return Err(RecvError::HeadTooLarge);
            }
            let had_bytes = !self.pending().is_empty();
            match self.fill() {
                Ok(0) if had_bytes => return Err(RecvError::Malformed("truncated request head")),
                Ok(0) => return Err(RecvError::Closed),
                Ok(_) => {}
                Err(e) => return Err(classify_io(e, had_bytes)),
            }
        }
    }

    /// Reads exactly `len` body bytes (the head has been consumed).
    fn read_body(&mut self, len: usize) -> Result<Vec<u8>, RecvError> {
        let mut body = Vec::with_capacity(len);
        while body.len() < len {
            if self.pending().is_empty() {
                match self.fill() {
                    Ok(0) => return Err(RecvError::Malformed("connection closed mid-body")),
                    Ok(_) => {}
                    Err(e) => return Err(classify_io(e, true)),
                }
            }
            let want = (len - body.len()).min(self.pending().len());
            body.extend_from_slice(self.take(want));
        }
        Ok(body)
    }

    /// Receives one framed request.
    ///
    /// # Errors
    ///
    /// See [`RecvError`]; [`RecvError::Closed`] is the normal end of a
    /// keep-alive conversation.
    pub fn recv(&mut self) -> Result<Request, RecvError> {
        let head_len = self.read_head()?;
        let parsed = {
            let head = &self.buf[self.start..self.start + head_len];
            parse_request_head(head)
        };
        self.start += head_len;
        let mut request = parsed?;
        let content_length = match request.header("content-length") {
            None => 0u64,
            Some(raw) => raw
                .trim()
                .parse::<u64>()
                .map_err(|_| RecvError::Malformed("unparsable content-length"))?,
        };
        if request
            .header("transfer-encoding")
            .is_some_and(|v| !v.trim().is_empty())
        {
            return Err(RecvError::Malformed("transfer-encoding not supported"));
        }
        if content_length > self.config.max_body_bytes as u64 {
            return Err(RecvError::BodyTooLarge {
                declared: content_length,
            });
        }
        if content_length > 0 {
            request.body = self.read_body(content_length as usize)?;
        }
        Ok(request)
    }

    /// Writes a framed response. `keep_alive` selects the `Connection`
    /// header; the `Content-Length` is always explicit.
    pub fn send(&mut self, response: &Response, keep_alive: bool) -> io::Result<()> {
        self.out.clear();
        let status = response.status;
        let reason = reason_phrase(status);
        self.out
            .extend_from_slice(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes());
        self.out
            .extend_from_slice(format!("Content-Type: {}\r\n", response.content_type).as_bytes());
        self.out
            .extend_from_slice(format!("Content-Length: {}\r\n", response.body.len()).as_bytes());
        for (name, value) in &response.headers {
            self.out
                .extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        let connection = if keep_alive { "keep-alive" } else { "close" };
        self.out
            .extend_from_slice(format!("Connection: {connection}\r\n\r\n").as_bytes());
        self.out.extend_from_slice(&response.body);
        self.stream.write_all(&self.out)?;
        self.stream.flush()
    }

    /// Writes a framed request (client side). An empty `body` writes
    /// no `Content-Length`; `host` fills the mandatory `Host` header.
    pub fn send_request(
        &mut self,
        method: &str,
        path: &str,
        host: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<()> {
        self.out.clear();
        self.out
            .extend_from_slice(format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\n").as_bytes());
        if !body.is_empty() || method == "POST" || method == "PUT" {
            self.out
                .extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
        }
        let connection = if keep_alive { "keep-alive" } else { "close" };
        self.out
            .extend_from_slice(format!("Connection: {connection}\r\n\r\n").as_bytes());
        self.out.extend_from_slice(body);
        self.stream.write_all(&self.out)?;
        self.stream.flush()
    }

    /// Receives one framed response (client side): status line,
    /// headers, then a `Content-Length` body — or, when no length is
    /// declared, everything until the server closes the connection.
    pub fn recv_response(&mut self) -> Result<HttpResponse, RecvError> {
        let head_len = self.read_head()?;
        let parsed = {
            let head = &self.buf[self.start..self.start + head_len];
            parse_response_head(head)
        };
        self.start += head_len;
        let (status, headers) = parsed?;
        let content_length = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| {
                v.trim()
                    .parse::<u64>()
                    .map_err(|_| RecvError::Malformed("unparsable content-length"))
            })
            .transpose()?;
        let bytes = match content_length {
            Some(len) if len > self.config.max_body_bytes as u64 => {
                return Err(RecvError::BodyTooLarge { declared: len })
            }
            Some(len) => self.read_body(len as usize)?,
            None => {
                // Legacy framing: the body runs until connection close.
                let mut bytes = Vec::from(self.pending());
                self.start = self.end;
                match self.stream.read_to_end(&mut bytes) {
                    Ok(_) => {}
                    Err(e) => return Err(classify_io(e, true)),
                }
                bytes
            }
        };
        let keep_alive = match content_length {
            None => false,
            Some(_) => !headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case("connection"))
                .is_some_and(|(_, v)| token_list_contains(v, "close")),
        };
        Ok(HttpResponse {
            status,
            body: String::from_utf8_lossy(&bytes).into_owned(),
            bytes,
            keep_alive,
        })
    }
}

/// Locates the end of the head in `pending`, scanning only bytes not
/// already examined (`scanned` persists across refills). Accepts
/// `\r\n\r\n` and the lenient bare `\n\n`; returns the index one past
/// the terminator.
fn find_head_end(pending: &[u8], scanned: &mut usize) -> Option<usize> {
    // Re-scan up to 3 bytes back: a terminator may straddle a refill.
    let from = scanned.saturating_sub(3);
    for i in from..pending.len() {
        if pending[i] == b'\n' {
            let at_crlf2 = i >= 3 && &pending[i - 3..=i] == b"\r\n\r\n";
            let at_lf2 = i >= 1 && pending[i - 1] == b'\n';
            if at_crlf2 || at_lf2 {
                *scanned = 0;
                return Some(i + 1);
            }
        }
    }
    *scanned = pending.len();
    None
}

/// Splits a head into its lines, tolerating both `\r\n` and bare `\n`.
fn head_lines(head: &str) -> impl Iterator<Item = &str> {
    head.split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .filter(|l| !l.is_empty())
}

/// Parses `Name: value` header lines (everything after the first).
fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, RecvError> {
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(RecvError::Malformed("header line without a colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(RecvError::Malformed("invalid header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok(headers)
}

/// Parses a request head (start line + headers, terminator included).
fn parse_request_head(head: &[u8]) -> Result<Request, RecvError> {
    let text =
        std::str::from_utf8(head).map_err(|_| RecvError::Malformed("non-UTF-8 request head"))?;
    let mut lines = head_lines(text);
    let start = lines.next().ok_or(RecvError::Malformed("empty head"))?;
    let mut parts = start.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(RecvError::Malformed("missing method"))?;
    let target = parts
        .next()
        .ok_or(RecvError::Malformed("missing request target"))?;
    let version = match parts.next() {
        Some("HTTP/1.1") => HttpVersion::Http11,
        Some("HTTP/1.0") => HttpVersion::Http10,
        Some(_) => return Err(RecvError::Malformed("unsupported protocol version")),
        None => return Err(RecvError::Malformed("missing protocol version")),
    };
    if parts.next().is_some() {
        return Err(RecvError::Malformed("extra tokens in request line"));
    }
    if !method
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-')
        || method.is_empty()
    {
        return Err(RecvError::Malformed("invalid method"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q.to_string())),
        None => (target, None),
    };
    if !path.starts_with('/') && path != "*" {
        return Err(RecvError::Malformed("request target must be absolute"));
    }
    let headers = parse_headers(lines)?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        version,
        headers,
        body: Vec::new(),
    })
}

/// Parses a response head into `(status, headers)`.
fn parse_response_head(head: &[u8]) -> Result<(u16, Vec<(String, String)>), RecvError> {
    let text =
        std::str::from_utf8(head).map_err(|_| RecvError::Malformed("non-UTF-8 response head"))?;
    let mut lines = head_lines(text);
    let start = lines.next().ok_or(RecvError::Malformed("empty head"))?;
    let mut parts = start.split(' ').filter(|p| !p.is_empty());
    match parts.next() {
        Some(proto) if proto.starts_with("HTTP/") => {}
        _ => return Err(RecvError::Malformed("malformed status line")),
    }
    let status = parts
        .next()
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or(RecvError::Malformed("malformed status code"))?;
    let headers = parse_headers(lines)?;
    Ok((status, headers))
}

/// A parsed HTTP response, as returned by [`http_get`] and
/// [`HttpClient::request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The numeric status code (e.g. 200).
    pub status: u16,
    /// The response body decoded as text (lossily — non-UTF-8 bytes
    /// become replacement characters; the exact bytes are in
    /// [`bytes`](HttpResponse::bytes)).
    pub body: String,
    /// The exact response body bytes.
    pub bytes: Vec<u8>,
    /// Whether the connection may serve another request.
    pub keep_alive: bool,
}

/// A persistent (keep-alive) HTTP/1.1 client connection over
/// `std::net::TcpStream` — what the closed-loop load generator drives.
#[derive(Debug)]
pub struct HttpClient {
    conn: HttpConn<TcpStream>,
    host: String,
}

impl HttpClient {
    /// Connects to `addr` with `timeout` applied to connect, read and
    /// write. `TCP_NODELAY` is set: request/response pairs are tiny
    /// and latency-sensitive.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<HttpClient> {
        let addr = resolve(addr)?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            conn: HttpConn::new(stream),
            host: addr.to_string(),
        })
    }

    /// The peer address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.conn.get_ref().peer_addr()
    }

    /// The local (client-side) address of the connection.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.conn.get_ref().local_addr()
    }

    /// Performs one request on the persistent connection.
    ///
    /// # Errors
    ///
    /// Any [`RecvError`]; after an error the connection should be
    /// dropped and re-established.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<HttpResponse, RecvError> {
        self.conn
            .send_request(method, path, &self.host, body, true)
            .map_err(|e| classify_io(e, false))?;
        self.conn.recv_response()
    }
}

/// Resolves `addr` to its first socket address.
fn resolve(addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))
}

/// Fetches `path` from `addr` with one blocking HTTP/1.1 GET — the
/// hand-rolled client used by tests, `wsu-httpget` and the CI exporter
/// smoke step.
///
/// The response body is read as **bytes** with `Content-Length`
/// framing when the server declares one (falling back to
/// read-until-close), so non-UTF-8 bodies are returned rather than
/// rejected and a keep-alive server cannot stall the read.
///
/// # Errors
///
/// Connection failures, timeouts and malformed response heads.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<HttpResponse> {
    let addr = resolve(addr)?;
    let timeout = Duration::from_secs(5);
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut conn = HttpConn::new(stream);
    conn.send_request("GET", path, &addr.to_string(), &[], false)?;
    Ok(conn.recv_response()?)
}

/// The routes of one [`Server`] worker. The worker owns its handler, so
/// the handler keeps its state without a lock and need not be `Send`.
pub trait Handler {
    /// Answers one parsed request.
    fn handle(&mut self, request: &Request) -> Response;

    /// Called before the worker answers a request it could not read
    /// with [`RecvError::response`] (`400`, `408`, `413` or `431`). A
    /// clean close or an idle timeout calls nothing.
    fn rejected(&mut self) {}
}

/// How long an idle worker sleeps between accept polls; it also bounds
/// how long [`Server::shutdown`] waits for a worker with no connection.
const ACCEPT_POLL: Duration = Duration::from_micros(500);

/// Read and write timeout of an accepted connection. It bounds a stalled
/// request (answered `408`) and an idle keep-alive connection, which
/// holds its worker until then.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The workspace's HTTP/1.1 server: worker threads on one nonblocking
/// listener, each answering with its own [`Handler`].
///
/// A worker polls the listener, then serves the accepted connection's
/// keep-alive conversation to completion before it accepts again, so a
/// server with `workers` threads serves at most that many connections
/// at once. (With no epoll in `std`, one connection at a time per worker
/// is the honest zero-dependency design; the poll sleep costs only when
/// a worker is idle.) Once shutdown has begun, a worker closes its
/// connection after the request in hand.
///
/// Dropping a server shuts it down as [`shutdown`](Server::shutdown)
/// does.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts `workers` threads named `wsu-http-{w}`. Worker `w` builds
    /// its handler with `make_handler(w)` on its own thread.
    ///
    /// # Errors
    ///
    /// A bind, listener-clone or spawn failure. The workers already
    /// started are stopped first.
    pub fn start<H, F>(addr: &str, workers: usize, make_handler: F) -> io::Result<Server>
    where
        H: Handler,
        F: Fn(usize) -> H + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let mut server = Server {
            addr: listener.local_addr()?,
            shutdown: Arc::new(AtomicBool::new(false)),
            workers: Vec::with_capacity(workers),
        };
        let make_handler = Arc::new(make_handler);
        for w in 0..workers {
            // An early return drops `server`, which stops the workers
            // already running.
            let listener = listener.try_clone()?;
            let shutdown = Arc::clone(&server.shutdown);
            let make_handler = Arc::clone(&make_handler);
            let worker = std::thread::Builder::new()
                .name(format!("wsu-http-{w}"))
                .spawn(move || serve(&listener, &shutdown, &mut make_handler(w)))?;
            server.workers.push(worker);
        }
        Ok(server)
    }

    /// The bound address (the real port after binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the workers, waits for every one to exit and returns how
    /// many panicked. A worker without a connection stops within one
    /// accept poll; one with a connection first finishes the request in
    /// hand or waits out its idle read.
    pub fn shutdown(mut self) -> usize {
        self.stop()
    }

    fn stop(&mut self) -> usize {
        self.shutdown.store(true, Ordering::SeqCst);
        self.workers
            .drain(..)
            .map(JoinHandle::join)
            .filter(Result::is_err)
            .count()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One worker: poll-accept, then serve each connection's keep-alive
/// conversation to completion.
fn serve(listener: &TcpListener, shutdown: &AtomicBool, handler: &mut impl Handler) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // A failed socket option or write ends only this
                // connection.
                let _ = converse(stream, shutdown, handler);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => {}
        }
    }
}

/// Serves one connection until the peer closes it or stops keeping it
/// alive, a request cannot be read, or shutdown begins.
fn converse(
    stream: TcpStream,
    shutdown: &AtomicBool,
    handler: &mut impl Handler,
) -> io::Result<()> {
    // Accepted sockets may inherit the listener's nonblocking mode;
    // serve with blocking, bounded reads.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut conn = HttpConn::new(stream);
    loop {
        let request = match conn.recv() {
            Ok(request) => request,
            Err(err) => {
                // A malformed, oversized or stalled request earns its
                // diagnostic status; a clean close or an idle timeout
                // earns silence. Either way the connection is done.
                if let Some(response) = err.response() {
                    handler.rejected();
                    conn.send(&response, false)?;
                }
                return Ok(());
            }
        };
        let response = handler.handle(&request);
        let keep_alive = request.keep_alive() && !shutdown.load(Ordering::SeqCst);
        conn.send(&response, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory duplex stream: reads from `input`, writes to
    /// `output`.
    struct MemStream {
        input: io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl MemStream {
        fn new(input: &[u8]) -> MemStream {
            MemStream {
                input: io::Cursor::new(input.to_vec()),
                output: Vec::new(),
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
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn recv_one(raw: &[u8]) -> Result<Request, RecvError> {
        HttpConn::new(MemStream::new(raw)).recv()
    }

    #[test]
    fn parses_a_simple_get() {
        let req = recv_one(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, None);
        assert_eq!(req.version, HttpVersion::Http11);
        assert!(req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn splits_query_from_path() {
        let req = recv_one(b"GET /metrics?x=1&y=2 HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query.as_deref(), Some("x=1&y=2"));
    }

    #[test]
    fn reads_content_length_body() {
        let req =
            recv_one(b"POST /demand HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").expect("parse");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn keeps_pipelined_bytes_for_the_next_request() {
        let raw =
            b"POST /demand HTTP/1.1\r\nContent-Length: 2\r\n\r\nabGET /health HTTP/1.1\r\n\r\n";
        let mut conn = HttpConn::new(MemStream::new(raw));
        let first = conn.recv().expect("first");
        assert_eq!(first.body, b"ab");
        let second = conn.recv().expect("second");
        assert_eq!(second.path, "/health");
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = recv_one(b"GET / HTTP/1.1\r\nX-Thing:  v  \r\n\r\n").expect("parse");
        assert_eq!(req.header("x-thing"), Some("v"));
        assert_eq!(req.header("X-THING"), Some("v"));
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req = recv_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parse");
        assert!(!req.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = recv_one(b"GET / HTTP/1.0\r\n\r\n").expect("parse");
        assert!(!req.keep_alive());
        let req = recv_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").expect("parse");
        assert!(req.keep_alive());
    }

    #[test]
    fn bare_lf_heads_are_tolerated() {
        let req = recv_one(b"GET /health HTTP/1.1\nHost: x\n\n").expect("parse");
        assert_eq!(req.path, "/health");
    }

    #[test]
    fn empty_stream_is_closed_not_malformed() {
        assert!(matches!(recv_one(b""), Err(RecvError::Closed)));
    }

    #[test]
    fn truncated_head_is_malformed() {
        assert!(matches!(
            recv_one(b"GET /metr"),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn garbage_request_line_is_malformed() {
        assert!(matches!(
            recv_one(b"\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            recv_one(b"GET\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            recv_one(b"GET /x HTTP/2\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            recv_one(b"GET relative HTTP/1.1\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            recv_one(b"GET /x HTTP/1.1 extra\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn bad_content_length_is_malformed() {
        assert!(matches!(
            recv_one(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_body_is_malformed() {
        assert!(matches!(
            recv_one(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = Vec::from(&b"GET / HTTP/1.1\r\nX-Pad: "[..]);
        raw.extend(std::iter::repeat_n(b'a', 9000));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(recv_one(&raw), Err(RecvError::HeadTooLarge)));
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(matches!(
            recv_one(raw),
            Err(RecvError::BodyTooLarge { declared: 99999999 })
        ));
    }

    #[test]
    fn head_terminator_straddling_read_chunks_is_found() {
        // Pad so the "\r\n\r\n" terminator straddles the 4096-byte
        // chunk boundary.
        for pad in [4093, 4094, 4095, 4096] {
            let mut raw = Vec::from(&b"GET / HTTP/1.1\r\nX-Pad: "[..]);
            while raw.len() < pad {
                raw.push(b'a');
            }
            raw.extend_from_slice(b"\r\n\r\n");
            let req = recv_one(&raw).expect("parse");
            assert_eq!(req.path, "/");
        }
    }

    #[test]
    fn response_send_includes_framing_headers() {
        let mut conn = HttpConn::new(MemStream::new(b""));
        conn.send(&Response::method_not_allowed("GET"), false)
            .expect("send");
        let written = String::from_utf8(conn.stream.output.clone()).unwrap();
        assert!(written.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert!(written.contains("Allow: GET\r\n"));
        assert!(written.contains("Content-Length: 19\r\n"));
        assert!(written.contains("Connection: close\r\n"));
    }

    #[test]
    fn client_parses_content_length_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabctrailing-junk";
        let resp = HttpConn::new(MemStream::new(raw))
            .recv_response()
            .expect("parse");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "abc");
        assert!(resp.keep_alive);
    }

    #[test]
    fn client_reads_to_eof_without_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\n\r\nwhole body until close";
        let resp = HttpConn::new(MemStream::new(raw))
            .recv_response()
            .expect("parse");
        assert_eq!(resp.body, "whole body until close");
        assert!(!resp.keep_alive);
    }

    #[test]
    fn client_keeps_non_utf8_bytes() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n\xff\xfe\x01\x02";
        let resp = HttpConn::new(MemStream::new(raw))
            .recv_response()
            .expect("parse");
        assert_eq!(resp.bytes, vec![0xff, 0xfe, 0x01, 0x02]);
        assert_eq!(resp.body.chars().next(), Some('\u{fffd}'));
    }

    /// Answers `ok`, except that `/boom` panics its worker.
    struct Boom;

    impl Handler for Boom {
        fn handle(&mut self, request: &Request) -> Response {
            if request.path == "/boom" {
                panic!("a handler panicked on /boom");
            }
            Response::text(200, "ok\n")
        }
    }

    #[test]
    fn a_panicked_worker_is_counted_and_the_other_keeps_serving() {
        let server = Server::start("127.0.0.1:0", 2, |_| Boom).expect("start");
        let addr = server.local_addr();
        assert!(
            http_get(addr, "/boom").is_err(),
            "the connection whose request panicked its worker drops"
        );
        for _ in 0..3 {
            let response = http_get(addr, "/health").expect("the other worker serves");
            assert_eq!(response.status, 200);
            assert_eq!(response.body, "ok\n");
        }
        assert_eq!(server.shutdown(), 1);
    }

    #[test]
    fn recv_error_maps_to_status_codes() {
        assert!(RecvError::Closed.response().is_none());
        assert!(RecvError::TimedOut { partial: false }.response().is_none());
        assert_eq!(
            RecvError::TimedOut { partial: true }
                .response()
                .map(|r| r.status),
            Some(408)
        );
        assert_eq!(
            RecvError::HeadTooLarge.response().map(|r| r.status),
            Some(431)
        );
        assert_eq!(
            RecvError::BodyTooLarge { declared: 1 }
                .response()
                .map(|r| r.status),
            Some(413)
        );
        assert_eq!(
            RecvError::Malformed("x").response().map(|r| r.status),
            Some(400)
        );
    }
}
