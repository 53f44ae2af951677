//! Minimal HTTP/1.1 framing over `std::net`.
//!
//! Just enough of the protocol for a JSON query service: one request per
//! connection (`Connection: close` on every response), `Content-Length`
//! bodies only (no chunked encoding), and hard limits everywhere — header
//! block size, body size, and a socket read timeout so a stalled client
//! cannot pin a worker. Header parsing is factored into pure functions
//! ([`parse_request_head`], [`content_length`]) so the robustness proptests
//! can hammer them without sockets.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Per-connection byte and time budgets.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum size of the request line + headers, in bytes.
    pub max_head_bytes: usize,
    /// Maximum accepted `Content-Length`.
    pub max_body_bytes: usize,
    /// Socket read timeout; a request that stalls longer than this is
    /// answered with `408 Request Timeout`.
    pub read_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A parsed request: method, path, and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Request method, upper-cased as received (`GET`, `POST`, …).
    pub(crate) method: String,
    /// Request target path (query strings are kept verbatim).
    pub(crate) path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub(crate) body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The head or body violated the framing grammar.
    Malformed(&'static str),
    /// The head or declared body exceeds the configured limits.
    TooLarge(&'static str),
    /// The socket stalled past [`Limits::read_timeout`].
    Timeout,
    /// A body-carrying method arrived without `Content-Length`.
    LengthRequired,
    /// The peer closed the connection before a full request arrived.
    ConnectionClosed,
    /// Any other transport failure.
    Io(std::io::Error),
}

impl HttpError {
    /// The HTTP status code this error maps to, or `None` when the
    /// connection is already unusable and no response should be written.
    pub(crate) fn status(&self) -> Option<u16> {
        match self {
            HttpError::Malformed(_) => Some(400),
            HttpError::TooLarge(_) => Some(413),
            HttpError::Timeout => Some(408),
            HttpError::LengthRequired => Some(411),
            HttpError::ConnectionClosed | HttpError::Io(_) => None,
        }
    }

    /// Short human-readable reason.
    pub(crate) fn reason(&self) -> String {
        match self {
            HttpError::Malformed(why) => format!("malformed request: {why}"),
            HttpError::TooLarge(what) => format!("request too large: {what}"),
            HttpError::Timeout => "timed out reading the request".to_owned(),
            HttpError::LengthRequired => "Content-Length is required".to_owned(),
            HttpError::ConnectionClosed => "connection closed mid-request".to_owned(),
            HttpError::Io(err) => format!("transport error: {err}"),
        }
    }
}

/// Parsed head: method, path, and the headers block (without the request
/// line), ready for [`content_length`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Request method.
    pub(crate) method: String,
    /// Request target.
    pub(crate) path: String,
    /// Raw header lines (request line excluded).
    pub(crate) header_lines: Vec<String>,
}

/// Parses the head block (everything before the blank line, which must
/// already be stripped). Pure — proptested directly.
///
/// # Errors
///
/// [`HttpError::Malformed`] when the request line or a header line does not
/// follow the grammar.
pub fn parse_request_head(head: &[u8]) -> Result<Head, HttpError> {
    let text =
        std::str::from_utf8(head).map_err(|_| HttpError::Malformed("non-UTF-8 header block"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_alphabetic()))
        .ok_or(HttpError::Malformed("bad method"))?;
    let path = parts
        .next()
        .filter(|p| p.starts_with('/') && !p.bytes().any(|b| b.is_ascii_control()))
        .ok_or(HttpError::Malformed("bad request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(HttpError::Malformed("bad HTTP version"));
    }
    let mut header_lines = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, _value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header line without a colon"));
        };
        if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
            return Err(HttpError::Malformed("bad header name"));
        }
        header_lines.push(line.to_owned());
    }
    Ok(Head {
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        header_lines,
    })
}

/// Extracts `Content-Length` from parsed header lines. Pure — proptested
/// directly.
///
/// # Errors
///
/// [`HttpError::Malformed`] on a non-numeric or duplicated-but-conflicting
/// value.
pub fn content_length(head: &Head) -> Result<Option<usize>, HttpError> {
    let mut found: Option<usize> = None;
    for line in &head.header_lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let parsed: usize = value
            .trim()
            .parse()
            .map_err(|_| HttpError::Malformed("non-numeric Content-Length"))?;
        if found.is_some_and(|prev| prev != parsed) {
            return Err(HttpError::Malformed("conflicting Content-Length headers"));
        }
        found = Some(parsed);
    }
    Ok(found)
}

/// Reads one full request from `stream`, enforcing `limits`.
///
/// # Errors
///
/// Any [`HttpError`]; use [`HttpError::status`] to decide whether a
/// response can still be written.
pub(crate) fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(limits.read_timeout))
        .map_err(HttpError::Io)?;

    // Accumulate until the blank line; the buffer may already contain the
    // start of the body, which is carried over below.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::TooLarge("header block"));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(io_to_http)?;
        if n == 0 {
            return Err(HttpError::ConnectionClosed);
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_end > limits.max_head_bytes {
        return Err(HttpError::TooLarge("header block"));
    }

    let head = parse_request_head(&buf[..head_end])?;
    let declared = content_length(&head)?;
    let body_start = head_end + 4; // skip the \r\n\r\n separator

    let body = match declared {
        None if head.method == "POST" || head.method == "PUT" => {
            return Err(HttpError::LengthRequired);
        }
        None | Some(0) => Vec::new(),
        Some(len) => {
            if len > limits.max_body_bytes {
                return Err(HttpError::TooLarge("body"));
            }
            let mut body = buf.get(body_start..).unwrap_or(&[]).to_vec();
            body.truncate(len); // ignore pipelined bytes beyond the body
            while body.len() < len {
                let mut chunk = [0u8; 4096];
                let want = (len - body.len()).min(chunk.len());
                let n = stream.read(&mut chunk[..want]).map_err(io_to_http)?;
                if n == 0 {
                    return Err(HttpError::ConnectionClosed);
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body
        }
    };

    Ok(Request {
        method: head.method,
        path: head.path,
        body,
    })
}

/// Byte offset of the `\r\n\r\n` separator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn io_to_http(err: std::io::Error) -> HttpError {
    match err.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted => HttpError::ConnectionClosed,
        _ => HttpError::Io(err),
    }
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub(crate) status: u16,
    /// `Content-Type` header value.
    pub(crate) content_type: &'static str,
    /// Response body.
    pub(crate) body: String,
    /// Optional `Retry-After` seconds (set on load-shed responses).
    pub(crate) retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub(crate) fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    /// Adds a `Retry-After` header.
    pub(crate) fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Serializes head + body; every response closes the connection.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }

    /// Writes the response to `stream`; transport errors are reported but
    /// the caller usually just drops the connection.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `write_all`/`flush` failure.
    pub(crate) fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }
}

/// Canonical reason phrase for the status codes this server emits.
fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plain_post_head() {
        let head =
            parse_request_head(b"POST /v1/bandwidth HTTP/1.1\r\nHost: x\r\nContent-Length: 12")
                .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/v1/bandwidth");
        assert_eq!(content_length(&head).unwrap(), Some(12));
    }

    #[test]
    fn rejects_malformed_heads() {
        for bad in [
            &b""[..],
            b"GET",
            b"GET /x",
            b"G@T /x HTTP/1.1",
            b"GET x HTTP/1.1",
            b"GET /x SPDY/9",
            b"GET /x HTTP/1.1 extra",
            b"GET /x HTTP/1.1\r\nno-colon-line",
            b"GET /x HTTP/1.1\r\n: empty-name",
            b"GET /x HTTP/1.1\r\nbad name: v",
            b"\xff\xfe /x HTTP/1.1",
        ] {
            assert!(parse_request_head(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn content_length_rules() {
        let head = parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: nope").unwrap();
        assert!(content_length(&head).is_err());
        let head = parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6")
            .unwrap();
        assert!(content_length(&head).is_err());
        let head = parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5")
            .unwrap();
        assert_eq!(content_length(&head).unwrap(), Some(5));
        let head = parse_request_head(b"GET / HTTP/1.1\r\nHost: x").unwrap();
        assert_eq!(content_length(&head).unwrap(), None);
    }

    #[test]
    fn response_bytes_are_well_formed() {
        let bytes = Response::json(429, "{}".into())
            .with_retry_after(1)
            .to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn error_statuses_map_as_documented() {
        assert_eq!(HttpError::Malformed("x").status(), Some(400));
        assert_eq!(HttpError::TooLarge("x").status(), Some(413));
        assert_eq!(HttpError::Timeout.status(), Some(408));
        assert_eq!(HttpError::LengthRequired.status(), Some(411));
        assert_eq!(HttpError::ConnectionClosed.status(), None);
    }
}
