//! A minimal HTTP/1.1 client over `std::net` that times each exchange:
//! connect, wait for the first response byte, and transfer of the rest.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One finished request.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub status: u16,
    pub body: String,
    /// When the request began (before connect).
    pub started: Instant,
    /// `connect(2)` until the stream is usable.
    pub connect: Duration,
    /// Request written until the first response byte.
    pub ttfb: Duration,
    /// First response byte until the server closed the connection.
    pub transfer: Duration,
    /// Connect until the last byte: the request's latency.
    pub total: Duration,
}

const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<Exchange> {
    exchange(addr, &format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"))
}

pub fn post_form(addr: SocketAddr, target: &str, body: &str) -> std::io::Result<Exchange> {
    exchange(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn exchange(addr: SocketAddr, request: &str) -> std::io::Result<Exchange> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(request.as_bytes())?;
    let sent = Instant::now();
    let mut buf = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut first: Option<Instant> = None;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        first.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
    }
    let done = Instant::now();
    let first = first.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed without a response",
        )
    })?;
    let text = String::from_utf8(buf)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    let status =
        head.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
    Ok(Exchange {
        status,
        body: body.to_string(),
        started,
        connect: connected - started,
        ttfb: first - sent,
        transfer: done - first,
        total: done - started,
    })
}

/// Percent-encodes a query value: every byte outside the unreserved set.
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// `key=value&…` with percent-encoded values.
pub fn query_string(pairs: &[(String, String)]) -> String {
    pairs.iter().map(|(k, v)| format!("{k}={}", encode(v))).collect::<Vec<_>>().join("&")
}

/// Pulls `"key":<digits>` out of a flat JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    body[at..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_and_json_scraping() {
        assert_eq!(encode("Logistic Regression"), "Logistic%20Regression");
        assert_eq!(encode("p_two.desc"), "p_two.desc");
        let pairs = vec![("model".to_string(), "a b".to_string()), ("limit".into(), "5".into())];
        assert_eq!(query_string(&pairs), "model=a%20b&limit=5");
        assert_eq!(json_u64("{\"id\":17,\"state\":\"running\"}", "id"), Some(17));
        assert_eq!(json_u64("{}", "id"), None);
    }
}
