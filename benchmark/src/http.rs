//! A minimal HTTP/1.1 client for the results gateway: one request per
//! connection (the gateway answers `Connection: close`), the whole
//! response read to end of stream and checked against its
//! `Content-Length`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "response body is not UTF-8".to_string())
    }
}

/// Parses raw response bytes: status line, headers, and a body whose
/// length must match `Content-Length` when the header is present.
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("no end of head in {} response bytes", raw.len()))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let (version, code) = (parts.next().unwrap_or_default(), parts.next().unwrap_or_default());
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status: u16 = match code.parse() {
        Ok(s) if (100..600).contains(&s) && code.len() == 3 => s,
        _ => return Err(format!("bad status code in {status_line:?}")),
    };
    let mut headers = Vec::new();
    for line in lines {
        let (k, v) = line.split_once(':').ok_or_else(|| format!("bad header line {line:?}"))?;
        headers.push((k.trim().to_string(), v.trim().to_string()));
    }
    let body = raw[head_end + 4..].to_vec();
    let response = Response { status, headers, body };
    if let Some(len) = response.header("content-length") {
        let len: usize = len.parse().map_err(|_| format!("bad Content-Length {len:?}"))?;
        if len != response.body.len() {
            return Err(format!(
                "Content-Length {len} but {} body bytes arrived",
                response.body.len()
            ));
        }
    }
    Ok(response)
}

/// Sends one request and reads the whole response. `body` makes it a
/// form-encoded `POST`; otherwise it is a `GET`.
pub fn request(
    addr: SocketAddr,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let msg = match body {
        Some(b) => format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{b}",
            b.len()
        ),
        None => format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"),
    };
    stream.write_all(msg.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    parse_response(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_status_headers_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: 6\r\nConnection: close\r\n\r\na,b\n1\n";
        let r = parse_response(raw).expect("parse");
        assert_eq!(r.status, 200);
        assert!(r.is_success());
        assert_eq!(r.header("content-type"), Some("text/csv"));
        assert_eq!(r.body, b"a,b\n1\n");
    }

    #[test]
    fn body_may_contain_blank_lines() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Length: 5\r\n\r\n\r\n\r\nx";
        let r = parse_response(raw).expect("parse");
        assert_eq!(r.status, 201);
        assert_eq!(r.body, b"\r\n\r\nx");
    }

    #[test]
    fn non_2xx_parses_but_is_not_success() {
        for (line, code) in [("404 Not Found", 404), ("409 Conflict", 409), ("503 Busy", 503)] {
            let raw = format!("HTTP/1.1 {line}\r\nContent-Length: 2\r\n\r\n{{}}");
            let r = parse_response(raw.as_bytes()).expect("parse");
            assert_eq!(r.status, code);
            assert!(!r.is_success());
        }
    }

    #[test]
    fn rejects_truncated_and_malformed() {
        // body shorter than announced: a cut connection, not a response
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc").is_err());
        // no head terminator at all (server closed without answering)
        assert!(parse_response(b"").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 0").is_err());
        // not HTTP, or a status that is not three digits
        assert!(parse_response(b"SSH-2.0 hi\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 2000 OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 OK\r\n\r\n").is_err());
    }
}
