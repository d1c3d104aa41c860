//! Minimal embedded HTTP/1.1 responder for `GET /metrics`.
//!
//! Just enough HTTP for a Prometheus scraper or `curl`: parse the
//! request line, answer `GET /metrics` with the daemon's exposition,
//! 404 anything else, 405 non-GET methods. The request head is read
//! within `MAX_HEAD` bytes; one that does not end inside the bound
//! draws a 431. One short-lived thread per connection, at most
//! `SCRAPES` at once (scrapes are rare and trusted — this listens
//! where the operator pointed `--metrics-addr`, typically loopback).

use crate::server::serve_each;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Content type of the Prometheus text exposition format.
const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The most bytes of a request head (request line plus headers) a
/// scrape may send; a peer cannot make the responder buffer more.
const MAX_HEAD: u64 = 8 << 10;

/// How long the responder keeps discarding what a peer still sends
/// after a refused head.
const LINGER: Duration = Duration::from_secs(1);

/// Scrapes answered at once; further scrapers wait in the backlog.
const SCRAPES: usize = 4;

/// Bind the metrics listener (port 0 for ephemeral) without serving.
pub fn bind(addr: &str) -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// Serve scrapes with the text `render` returns until `shutdown` is set
/// and someone connects once more to wake the accept loop. Blocks;
/// callers spawn this on its own thread.
pub fn serve(
    listener: &TcpListener,
    render: impl Fn() -> String + Send + Sync + 'static,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    serve_each(listener, SCRAPES, shutdown, "hpcd-metrics", move |stream| {
        answer(stream, &render)
    })
}

fn answer(stream: TcpStream, render: &dyn Fn() -> String) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut head = BufReader::new((&stream).take(MAX_HEAD));
    let mut request_line = String::new();
    if head.read_line(&mut request_line).is_err() {
        return;
    }
    // Read the headers to the blank line that ends them, so the peer's
    // write buffer is not left full when we answer (we never need the
    // header values).
    let mut header = String::new();
    let mut ended = false;
    loop {
        header.clear();
        match head.read_line(&mut header) {
            Ok(_) if header == "\r\n" || header == "\n" => {
                ended = true;
                break;
            }
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    // A head still going when the bound ran out is refused; one the
    // peer cut short (EOF, timeout) is answered as it stands.
    let overlong = !ended && head.get_ref().limit() == 0;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = match (method, path) {
        _ if overlong => (
            "431 Request Header Fields Too Large",
            format!("the request head exceeds {MAX_HEAD} bytes\n"),
        ),
        ("GET", "/metrics") => ("200 OK", render()),
        ("GET", _) => ("404 Not Found", "not found; try /metrics\n".to_string()),
        _ => ("405 Method Not Allowed", "only GET is served\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let mut stream = &stream;
    let _ = stream.write_all(response.as_bytes());
    if overlong {
        // Closing with request bytes unread resets the connection, and
        // a reset can destroy the answer before the peer reads it: end
        // our side, then discard what the peer still sends, for a
        // bounded time.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.set_read_timeout(Some(LINGER));
        let deadline = Instant::now() + LINGER;
        let mut sink = [0u8; 8192];
        while Instant::now() < deadline {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
}
