//! A from-scratch HTTP/1.1 server on `std::net::TcpListener`.
//!
//! Deliberately minimal but correct for the API's needs: request-line +
//! header parsing with size limits, Content-Length bodies, one response
//! per connection (`Connection: close`), a blocking acceptor thread, and
//! graceful shutdown (a self-connect wakes the acceptor).

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum request head size (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Maximum request body size.
const MAX_BODY: usize = 1024 * 1024;
/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// An HTTP status code (the subset the API uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200
    Ok,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 413
    PayloadTooLarge,
    /// 429
    TooManyRequests,
    /// 500
    InternalServerError,
    /// 503
    ServiceUnavailable,
}

impl StatusCode {
    /// Numeric code.
    pub fn code(&self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::BadRequest => 400,
            StatusCode::NotFound => 404,
            StatusCode::MethodNotAllowed => 405,
            StatusCode::PayloadTooLarge => 413,
            StatusCode::TooManyRequests => 429,
            StatusCode::InternalServerError => 500,
            StatusCode::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(&self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::BadRequest => "Bad Request",
            StatusCode::NotFound => "Not Found",
            StatusCode::MethodNotAllowed => "Method Not Allowed",
            StatusCode::PayloadTooLarge => "Payload Too Large",
            StatusCode::TooManyRequests => "Too Many Requests",
            StatusCode::InternalServerError => "Internal Server Error",
            StatusCode::ServiceUnavailable => "Service Unavailable",
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, upper-case ("GET", "POST").
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw query string (without `?`), possibly empty.
    pub query: String,
    /// Headers, keys lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body bytes.
    pub body: Vec<u8>,
    /// The request's trace, attached by the connection loop after a
    /// successful parse. Handlers clone it into whatever queue job they
    /// enqueue; the connection loop seals it at response write.
    pub trace: Option<obs::reqtrace::TraceHandle>,
}

impl Request {
    /// Header lookup (case-insensitive key).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Content-Type header value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// JSON response.
    pub fn json(status: StatusCode, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json".into(),
            body: body.into().into_bytes(),
        }
    }

    /// HTML response.
    pub fn html(body: impl Into<String>) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: "text/html; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// Plain-text response.
    pub fn text(status: StatusCode, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// Serialize to wire format. Responses always carry permissive CORS
    /// headers: the paper's deployment decouples the frontend from the
    /// backend ("frontend is completely decoupled from the backend using
    /// microservices architecture"), so the API must answer cross-origin
    /// browsers.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_trace(None)
    }

    /// Serialize to wire format, adding an `X-Trace-Id` header when the
    /// connection carries a request trace (the id is what `/debug/requests/<id>`
    /// looks up). `None` keeps the exact pre-tracing wire shape.
    pub fn to_bytes_with_trace(&self, trace_id: Option<u64>) -> Vec<u8> {
        let trace_header = match trace_id {
            Some(id) => format!("X-Trace-Id: {id}\r\n"),
            None => String::new(),
        };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\
             {trace_header}Access-Control-Allow-Origin: *\r\n\
             Access-Control-Allow-Methods: GET, POST, OPTIONS\r\n\
             Access-Control-Allow-Headers: Content-Type\r\n\r\n",
            self.status.code(),
            self.status.reason(),
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// An empty 200 for CORS preflight.
    pub fn preflight() -> Response {
        Response::text(StatusCode::Ok, "")
    }
}

/// Why a request failed to parse, split by the status code it maps to:
/// size-limit violations answer 413, everything else 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Head or declared body exceeds a size limit (→ 413).
    TooLarge(String),
    /// The bytes are not a well-formed HTTP/1.x request (→ 400).
    Malformed(String),
}

impl ParseError {
    fn malformed(msg: impl Into<String>) -> ParseError {
        ParseError::Malformed(msg.into())
    }

    /// The status code this error maps to on the wire.
    pub fn status(&self) -> StatusCode {
        match self {
            ParseError::TooLarge(_) => StatusCode::PayloadTooLarge,
            ParseError::Malformed(_) => StatusCode::BadRequest,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::TooLarge(m) | ParseError::Malformed(m) => write!(f, "{m}"),
        }
    }
}

/// Parse one request from a buffered stream.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let mut line = String::new();
    let mut head_bytes = 0usize;
    reader
        .read_line(&mut line)
        .map_err(|e| ParseError::malformed(format!("read error: {e}")))?;
    head_bytes += line.len();
    let line = line.trim_end();
    if line.is_empty() {
        return Err(ParseError::malformed("empty request line"));
    }
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::malformed("missing http version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::malformed(format!("unsupported version {version}")));
    }
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_alphabetic()) {
        return Err(ParseError::malformed("bad method"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let mut hline = String::new();
        reader
            .read_line(&mut hline)
            .map_err(|e| ParseError::malformed(format!("header read error: {e}")))?;
        head_bytes += hline.len();
        if head_bytes > MAX_HEAD {
            return Err(ParseError::TooLarge("request head too large".into()));
        }
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        let (k, v) = hline
            .split_once(':')
            .ok_or_else(|| ParseError::malformed("malformed header"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }

    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse()
                .map_err(|_| ParseError::malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge("body too large".into()));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|e| ParseError::malformed(format!("body read error: {e}")))?;
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        trace: None,
    })
}

/// A running HTTP server. Handlers run on the acceptor's handler threads;
/// one response per connection.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `handler` on a background acceptor thread until [`HttpServer::stop`].
    pub fn start<F>(addr: &str, handler: F) -> std::io::Result<HttpServer>
    where
        F: Fn(Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let handler = Arc::new(handler);
        let acceptor = std::thread::Builder::new()
            .name("http-acceptor".into())
            .spawn(move || {
                let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
                loop {
                    // Blocking accept: a connection is read the moment it
                    // arrives. `halt` wakes this with a self-connect after
                    // raising the flag, so that connection (and any other
                    // accepted after shutdown) is dropped unhandled.
                    let accepted = listener.accept();
                    if shutdown2.load(Ordering::Acquire) {
                        break;
                    }
                    match accepted {
                        Ok((stream, _)) => {
                            let h = Arc::clone(&handler);
                            workers.push(std::thread::spawn(move || {
                                handle_connection(stream, &*h);
                            }));
                            workers.retain(|w| !w.is_finished());
                        }
                        // The peer gave up before we accepted, or a signal
                        // interrupted the call: accept the next one.
                        Err(ref e)
                            if matches!(
                                e.kind(),
                                ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                            ) => {}
                        Err(_) => break,
                    }
                }
                for w in workers {
                    let _ = w.join();
                }
            })?;
        Ok(HttpServer {
            addr: local,
            shutdown,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown and join the acceptor.
    pub fn stop(mut self) {
        self.halt();
    }

    /// Raise the shutdown flag, wake the acceptor out of its blocking
    /// `accept` with one connection to the listener, and join it (which
    /// also joins the in-flight connection threads). Idempotent.
    fn halt(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        // Release pairs with the acceptor's Acquire load; the flag is
        // stored before the wake connection exists, and `accept` cannot
        // return that connection before it does.
        self.shutdown.store(true, Ordering::Release);
        // If the connect fails the acceptor has already left its loop (a
        // listener error), so the join below still returns.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
        let _ = acceptor.join();
    }
}

/// How long `halt` waits for its wake connection to the own listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Where a self-connect reaches a listener bound at `bound`: the loopback
/// address of the same family when it is bound to the unspecified
/// address (`0.0.0.0` / `::`), which is not a connectable destination.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        let loopback: std::net::IpAddr = match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        };
        addr.set_ip(loopback);
    }
    addr
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.halt();
    }
}

fn handle_connection(stream: TcpStream, handler: &(dyn Fn(Request) -> Response + Send + Sync)) {
    let start = obs::Clock::now();
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // A trace begins only once the bytes parse as HTTP: unparseable
    // connections have no request lifecycle to attribute.
    let (response, trace) = match parse_request(&mut reader) {
        Ok(mut req) => {
            let trace = obs::reqtrace::begin();
            req.trace = Some(trace.clone());
            (handler(req), Some(trace))
        }
        Err(e) => (Response::text(e.status(), format!("bad request: {e}")), None),
    };
    record_request(response.status, start);
    let trace_id = trace.as_ref().map(|t| t.id());
    let _ = writer.write_all(&response.to_bytes_with_trace(trace_id));
    let _ = writer.flush();
    if let Some(t) = trace {
        t.record(
            obs::reqtrace::Phase::Respond,
            response.status.code() as u32,
            0,
        );
        obs::reqtrace::complete(&t);
    }
}

/// Per-request telemetry: latency histogram plus a counter per status
/// class. One `static_counter!` per arm so each series keeps a cached
/// handle (the macro binds one handle per call site).
fn record_request(status: StatusCode, start: obs::Stamp) {
    obs::static_histogram!("http_request_ns").observe(start.elapsed_ns());
    match status.code() / 100 {
        2 => obs::static_counter!(r#"http_requests_total{class="2xx"}"#).inc(),
        4 => obs::static_counter!(r#"http_requests_total{class="4xx"}"#).inc(),
        _ => obs::static_counter!(r#"http_requests_total{class="5xx"}"#).inc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};

    fn parse(s: &str) -> Result<Request, ParseError> {
        parse_request(&mut Cursor::new(s.as_bytes()))
    }

    #[test]
    fn parses_get() {
        let r = parse("GET /api/health?x=1 HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/api/health");
        assert_eq!(r.query, "x=1");
        assert_eq!(r.header("host"), Some("localhost"));
        assert_eq!(r.header("HOST"), Some("localhost"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_body() {
        let body = r#"{"a":1}"#;
        let raw = format!(
            "POST /api/generate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let r = parse(&raw).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body_str(), body);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nBadHeader\r\n\r\n").is_err());
        assert!(parse("G@T /x HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn size_limit_errors_map_to_413_and_malformed_to_400() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert_eq!(parse(&raw).unwrap_err().status(), StatusCode::PayloadTooLarge);
        let big_head = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        assert_eq!(
            parse(&big_head).unwrap_err().status(),
            StatusCode::PayloadTooLarge
        );
        assert_eq!(
            parse("GARBAGE\r\n\r\n").unwrap_err().status(),
            StatusCode::BadRequest
        );
    }

    #[test]
    fn truncated_body_is_error() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(parse(raw).is_err());
    }

    #[test]
    fn response_wire_format() {
        let r = Response::json(StatusCode::Ok, r#"{"ok":true}"#);
        let s = String::from_utf8(r.to_bytes()).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Type: application/json\r\n"));
        assert!(s.contains("Content-Length: 11\r\n"));
        assert!(s.ends_with(r#"{"ok":true}"#));
        assert!(!s.contains("X-Trace-Id"), "untraced response grew a trace header: {s}");
    }

    #[test]
    fn traced_response_carries_trace_id_header() {
        let r = Response::json(StatusCode::Ok, r#"{"ok":true}"#);
        let s = String::from_utf8(r.to_bytes_with_trace(Some(42))).unwrap();
        assert!(s.contains("X-Trace-Id: 42\r\n"), "{s}");
        assert!(s.ends_with(r#"{"ok":true}"#));
    }

    #[test]
    fn connection_attaches_trace_and_completes_it() {
        let server = HttpServer::start("127.0.0.1:0", |req| {
            let trace = req.trace.as_ref().expect("trace attached to parsed request");
            trace.record(obs::reqtrace::Phase::Enqueue, 1, 0);
            Response::text(StatusCode::Ok, "ok")
        })
        .unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /traced HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let id: u64 = buf
            .lines()
            .find_map(|l| l.strip_prefix("X-Trace-Id: "))
            .expect("X-Trace-Id header present")
            .trim()
            .parse()
            .expect("numeric trace id");
        // The completed trace is retrievable and ends with Respond(200).
        let t = obs::reqtrace::find(id).expect("trace retained after completion");
        let phases = t.phases();
        assert_eq!(phases.first().map(|p| p.phase), Some(obs::reqtrace::Phase::Accept));
        assert!(phases.iter().any(|p| p.phase == obs::reqtrace::Phase::Enqueue));
        let last = phases.last().expect("non-empty trace");
        assert_eq!(last.phase, obs::reqtrace::Phase::Respond);
        assert_eq!(last.a, 200);
        server.stop();
    }

    #[test]
    fn server_roundtrip() {
        let server = HttpServer::start("127.0.0.1:0", |req| {
            Response::text(StatusCode::Ok, format!("echo {}", req.path))
        })
        .unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.contains("200 OK"));
        assert!(buf.ends_with("echo /ping"));
        server.stop();
    }

    #[test]
    fn server_handles_concurrent_connections() {
        let server = HttpServer::start("127.0.0.1:0", |_req| {
            std::thread::sleep(Duration::from_millis(20));
            Response::text(StatusCode::Ok, "ok")
        })
        .unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
                    let mut buf = String::new();
                    s.read_to_string(&mut buf).unwrap();
                    assert!(buf.contains("200 OK"));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.stop();
    }

    #[test]
    fn stop_returns_promptly_on_an_idle_server_without_calling_the_handler() {
        use std::sync::atomic::AtomicUsize;
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let calls = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&calls);
            let server = HttpServer::start(bind, move |_req| {
                seen.fetch_add(1, Ordering::SeqCst);
                Response::text(StatusCode::Ok, "ok")
            })
            .unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            let started = std::time::Instant::now();
            let stopper = std::thread::spawn(move || {
                server.stop();
                let _ = tx.send(());
            });
            rx.recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("stop() on {bind} did not return within 5 s"));
            stopper.join().unwrap();
            assert!(
                started.elapsed() < Duration::from_millis(500),
                "stop() on {bind} took {:?}",
                started.elapsed()
            );
            assert_eq!(calls.load(Ordering::SeqCst), 0, "the wake connection reached the handler");
        }
    }

    #[test]
    fn dropping_a_server_stops_it() {
        let server =
            HttpServer::start("127.0.0.1:0", |_req| Response::text(StatusCode::Ok, "ok")).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(server);
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("dropping the server did not return within 5 s");
        dropper.join().unwrap();
    }

    #[test]
    fn wake_addr_maps_unspecified_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:8123".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:8123".parse().unwrap());
        let v6: SocketAddr = "[::]:8123".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:8123".parse().unwrap());
        let bound: SocketAddr = "10.1.2.3:80".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }

    #[test]
    fn malformed_request_gets_400_not_hang() {
        let server =
            HttpServer::start("127.0.0.1:0", |_req| Response::text(StatusCode::Ok, "ok")).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.contains("400"), "{buf}");
        server.stop();
    }
}
