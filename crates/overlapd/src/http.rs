//! Minimal HTTP/1.1 read side for the service endpoints.
//!
//! Deliberately tiny: request line + headers ([`read_head`]), then the body
//! streamed into a sink ([`Head::read_body`]) as `Content-Length` or
//! `Transfer-Encoding: chunked` frames it (the two upload shapes `curl
//! --data-binary` and `curl -T` produce), one response per connection
//! (`Connection: close`). Nothing here holds a body: a piece is lent from
//! the reader's own buffer and gone when the sink returns. No dependency
//! beyond the standard library.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};

/// Longest control line accepted, bytes: the request line, a header, a
/// chunk-size line, the `OVLP1` greeting.
const MAX_LINE: usize = 8 << 10;

/// One parsed request head; the body, if any, is still on the stream.
#[derive(Debug, Clone)]
pub struct Head {
    /// Request method, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Decoded query parameters (`k=v`, no percent-decoding — the API uses
    /// plain tokens only).
    pub query: BTreeMap<String, String>,
    /// How the body is framed: chunked wins over a length.
    content_length: Option<u64>,
    chunked: bool,
}

/// A refusal of what the peer sent, as opposed to a transport failure.
pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read one line of at most [`MAX_LINE`] bytes, newline included. Empty
/// means the peer closed. A peer that never sends the newline is refused
/// after `MAX_LINE + 1` bytes instead of growing the line.
pub(crate) fn read_line<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut line = String::new();
    r.take(MAX_LINE as u64 + 1).read_line(&mut line)?;
    if line.len() > MAX_LINE && !line.ends_with('\n') {
        return Err(bad(format!("line longer than {MAX_LINE} bytes")));
    }
    Ok(line)
}

/// Hand the next `n` bytes of `r` to `sink`, a piece at a time as the
/// reader's buffer fills. Allocates nothing, whatever `n` says.
pub(crate) fn copy_n<R: BufRead>(
    r: &mut R,
    n: u64,
    sink: &mut dyn FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut body = r.take(n);
    loop {
        let piece = body.fill_buf()?;
        if piece.is_empty() {
            break;
        }
        let len = piece.len();
        sink(piece)?;
        body.consume(len);
    }
    match body.limit() {
        0 => Ok(()),
        short => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("peer closed with {short} bytes still to come"),
        )),
    }
}

/// Read one request head off the stream. `Ok(None)` means the peer closed
/// before sending a request line.
pub fn read_head<R: BufRead>(r: &mut R) -> io::Result<Option<Head>> {
    let line = read_line(r)?;
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("empty request line"))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| bad("request line lacks target"))?;
    let (path, query_s) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let mut query = BTreeMap::new();
    for pair in query_s.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(k.to_string(), v.to_string());
    }

    let mut content_length: Option<u64> = None;
    let mut chunked = false;
    loop {
        let h = read_line(r)?;
        if h.is_empty() {
            return Err(bad("connection closed mid-headers"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
                }
                "transfer-encoding" => {
                    chunked = value.to_ascii_lowercase().contains("chunked");
                }
                _ => {}
            }
        }
    }
    Ok(Some(Head {
        method,
        path,
        query,
        content_length,
        chunked,
    }))
}

impl Head {
    /// Stream this request's body off `r` into `sink`, piece by piece in
    /// stream order. A sink error stops the read where it is.
    pub fn read_body<R: BufRead>(
        &self,
        r: &mut R,
        sink: &mut dyn FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        if !self.chunked {
            return copy_n(r, self.content_length.unwrap_or(0), sink);
        }
        let mut total = 0u64;
        loop {
            let size_line = read_line(r)?;
            if size_line.is_empty() {
                return Err(bad("connection closed mid-chunk"));
            }
            let size_tok = size_line.trim().split(';').next().unwrap_or("");
            // A bad size, or sizes that sum past `u64`, describe no body.
            let size = u64::from_str_radix(size_tok, 16).ok();
            let Some(size) = size.filter(|n| total.checked_add(*n).is_some()) else {
                return Err(bad("bad chunk size line"));
            };
            total += size;
            if size == 0 {
                // Trailer section: read lines until the blank terminator.
                while !read_line(r)?.trim_end().is_empty() {}
                return Ok(());
            }
            copy_n(r, size, sink)?;
            read_line(r)?; // the line end after the chunk data
        }
    }
}

/// Write one response and flush. `content_type` of `None` means
/// `application/json`.
pub fn respond<W: Write>(
    w: &mut W,
    status: u16,
    content_type: Option<&str>,
    body: &[u8],
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        content_type.unwrap_or("application/json"),
        body.len(),
    )?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// The request's body, collected through the sink.
    fn body_of(raw: &[u8]) -> io::Result<Vec<u8>> {
        let mut r = BufReader::new(raw);
        let head = read_head(&mut r)?.expect("a request line");
        let mut body = Vec::new();
        head.read_body(&mut r, &mut |piece| {
            body.extend_from_slice(piece);
            Ok(())
        })?;
        Ok(body)
    }

    #[test]
    fn parses_get_with_query() {
        let raw = b"GET /v1/sessions/s/series?window_ns=500 HTTP/1.1\r\nHost: x\r\n\r\n";
        let head = read_head(&mut BufReader::new(&raw[..])).unwrap().unwrap();
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/v1/sessions/s/series");
        assert_eq!(head.query.get("window_ns").map(String::as_str), Some("500"));
        assert!(body_of(raw).unwrap().is_empty());
    }

    #[test]
    fn parses_content_length_body() {
        let raw = b"POST /v1/sessions/s HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(body_of(raw).unwrap(), b"hello");
    }

    #[test]
    fn parses_chunked_body() {
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        assert_eq!(body_of(raw).unwrap(), b"hello world");
    }

    #[test]
    fn closed_before_request_is_none() {
        let raw = b"";
        assert!(read_head(&mut BufReader::new(&raw[..])).unwrap().is_none());
    }

    /// A chunk size that overflowed the old accumulator's `len + size`.
    #[test]
    fn absurd_chunk_sizes_are_one_line_errors() {
        let head = "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n";
        for (size, want) in [
            ("ffffffffffffffff", "bad chunk size line"),
            ("10000000000000000", "bad chunk size line"),
            ("-5", "bad chunk size line"),
            ("", "bad chunk size line"),
        ] {
            let raw = format!("{head}{size}\r\nxy");
            let err = body_of(raw.as_bytes()).unwrap_err().to_string();
            assert!(
                err.starts_with(want) && !err.contains('\n'),
                "{size}: {err}"
            );
        }
    }

    /// A reader that counts the bytes it handed out.
    struct Counting<'a>(&'a [u8], usize);
    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.read(buf)?;
            self.1 += n;
            Ok(n)
        }
    }

    #[test]
    fn a_line_that_never_ends_is_refused_at_the_cap() {
        let endless = vec![b'a'; 1 << 20];
        for prefix in [
            "",
            "GET / HTTP/1.1\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let raw = [prefix.as_bytes(), &endless].concat();
            let mut r = BufReader::new(Counting(&raw, 0));
            let err = read_head(&mut r)
                .and_then(|h| h.expect("a head").read_body(&mut r, &mut |_| Ok(())))
                .unwrap_err()
                .to_string();
            assert_eq!(err, format!("line longer than {MAX_LINE} bytes"));
            let consumed = r.get_ref().1;
            assert!(
                consumed <= prefix.len() + MAX_LINE + 1 + r.capacity(),
                "{consumed}"
            );
        }
    }
}
