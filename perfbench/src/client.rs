//! The benchmark's own closed-loop HTTP/1.1 client.
//!
//! It shares no code with `wsu_obs::http`, so a change that speeds up
//! the server's framing cannot also speed up the client half of the
//! round trip. Requests are pre-rendered bytes; replies are framed on
//! `Content-Length` (the only framing the front emits).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The one demand request, rendered once.
pub const DEMAND: &[u8] = b"POST /demand HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";
/// The metrics scrape.
pub const SCRAPE: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

/// A framed reply: status and the body's byte range in the client buffer.
pub struct Reply<'a> {
    pub status: u16,
    pub body: &'a [u8],
    /// Head plus body, as received.
    pub wire: &'a [u8],
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        })
    }

    /// Sends `request` and waits for its reply.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Reply<'_>> {
        self.stream.write_all(request)?;
        let head_len = loop {
            if let Some(len) = head_len(&self.buf[self.start..self.end]) {
                break len;
            }
            self.fill()?;
        };
        let head = &self.buf[self.start..self.start + head_len];
        let status = parse_status(head)?;
        let body_len = content_length(head)?;
        while self.end - self.start < head_len + body_len {
            self.fill()?;
        }
        let head_start = self.start;
        let body_start = head_start + head_len;
        self.start = body_start + body_len;
        Ok(Reply {
            status,
            body: &self.buf[body_start..self.start],
            wire: &self.buf[head_start..self.start],
        })
    }

    /// Reads more bytes, compacting or growing the buffer first.
    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.end += n;
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Length of the reply head at the start of `bytes`, blank line
/// included, once all of it has arrived.
pub fn head_len(bytes: &[u8]) -> Option<usize> {
    find(bytes, b"\r\n\r\n").map(|pos| pos + 4)
}

fn bad(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn parse_status(head: &[u8]) -> io::Result<u16> {
    let line = head
        .split(|&b| b == b'\r')
        .next()
        .ok_or(bad("empty head"))?;
    let code = line
        .split(|&b| b == b' ')
        .nth(1)
        .ok_or(bad("no status code"))?;
    std::str::from_utf8(code)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(bad("unparsable status code"))
}

fn content_length(head: &[u8]) -> io::Result<usize> {
    for line in head.split(|&b| b == b'\n') {
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        if line[..colon].eq_ignore_ascii_case(b"content-length") {
            return std::str::from_utf8(&line[colon + 1..])
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .ok_or(bad("unparsable content-length"));
        }
    }
    Err(bad("reply without content-length"))
}

/// The `"worker"` and `"verdict"` fields of a `/demand` reply body.
pub fn demand_fields(body: &[u8]) -> Option<(usize, &[u8])> {
    let worker_at = find(body, b"\"worker\":")? + 9;
    let digits = body[worker_at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let worker = std::str::from_utf8(&body[worker_at..worker_at + digits])
        .ok()?
        .parse()
        .ok()?;
    let verdict_at = find(body, b"\"verdict\":\"")? + 11;
    let len = body[verdict_at..].iter().position(|&b| b == b'"')?;
    Some((worker, &body[verdict_at..verdict_at + len]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_reply_heads_and_demand_bodies() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: x\r\ncontent-length: 12\r\n\r\n";
        assert_eq!(parse_status(head).unwrap(), 200);
        assert_eq!(content_length(head).unwrap(), 12);
        let body = br#"{"seq":3,"worker":1,"verdict":"NER","response_time":0.4}"#;
        let (worker, verdict) = demand_fields(body).unwrap();
        assert_eq!((worker, verdict), (1, &b"NER"[..]));
    }
}
