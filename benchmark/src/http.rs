//! A minimal blocking HTTP/1.1 client for the predict route: one request
//! in flight per connection, keep-alive or `Connection: close`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Generous socket timeout: a reply slower than this is a failed request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One reply: status code and body bytes.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One client connection with its read buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one POST and reads its reply. With `close`, asks the server
    /// to close after replying and waits for that close, so the server
    /// side holds the TIME_WAIT state and a connection-per-request client
    /// does not run out of ephemeral ports.
    pub fn post(&mut self, path: &str, body: &[u8], close: bool) -> io::Result<Reply> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\n{}\r\n",
            body.len(),
            if close { "Connection: close\r\n" } else { "" },
        );
        let mut msg = Vec::with_capacity(head.len() + body.len());
        msg.extend_from_slice(head.as_bytes());
        msg.extend_from_slice(body);
        self.stream.write_all(&msg)?;
        let reply = self.read_reply()?;
        if close {
            let mut scratch = [0u8; 256];
            while self.stream.read(&mut scratch)? > 0 {}
        }
        Ok(reply)
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("reply head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("reply has no Content-Length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Reply { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-reply",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The request body for one input: whitespace-separated floats in their
/// shortest round-tripping form, so the server parses the exact values.
pub fn body(values: &[f32]) -> Vec<u8> {
    let mut s = String::with_capacity(values.len() * 12);
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&format!("{v:?}"));
    }
    s.into_bytes()
}

/// The `logits` array of a predict reply. The server prints each logit
/// in its shortest round-tripping form, so parsing recovers the exact
/// bits.
pub fn logits(body: &[u8]) -> Option<Vec<f32>> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find("\"logits\":[")? + "\"logits\":[".len();
    let end = start + text[start..].find(']')?;
    text[start..end]
        .split(',')
        .map(|t| t.trim().parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logits_parse_back_bit_exactly() {
        let values = [0.1f32, -3.4028235e38, 1e-45, 0.0, 7.25, -0.0];
        let json = format!(
            "{{\"model\":\"m\",\"class\":4,\"logits\":[{}]}}",
            values
                .iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        let got = logits(json.as_bytes()).unwrap();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&values));
        assert_eq!(logits(b"{\"error\":\"x\"}"), None);
    }

    #[test]
    fn body_round_trips() {
        let xs = [0.3f32, -1.0, 1e-7];
        let text = String::from_utf8(body(&xs)).unwrap();
        let back: Vec<f32> = text.split(' ').map(|t| t.parse().unwrap()).collect();
        assert_eq!(back, xs);
    }
}
