//! A busy-polling client for the `vantage serve` line protocol.
//!
//! The socket is non-blocking and every read spins until the reply's
//! newline arrives, so a reply is seen the moment it lands instead of
//! after a scheduler wake-up. On a two-core host the spinning client
//! holds one core and the server's connection thread the other.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long one reply may take before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One connection to a running server.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already returned as replies.
    consumed: usize,
}

impl Conn {
    /// Connects to `addr`, retrying until `deadline` elapses.
    pub fn connect(addr: &str, deadline: Duration) -> Result<Conn, String> {
        let start = Instant::now();
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if start.elapsed() >= deadline => {
                    return Err(format!("cannot connect to {addr}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("cannot configure socket: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            consumed: 0,
        })
    }

    /// Writes one request line (the newline is appended here).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut written = 0;
        let start = Instant::now();
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if start.elapsed() > REPLY_TIMEOUT {
                        return Err("send timed out".to_string());
                    }
                    // A full send buffer means the server owes us replies:
                    // drain them into `buf` so it can make progress.
                    self.fill()?;
                    std::hint::spin_loop();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        Ok(())
    }

    /// Reads whatever bytes are available without waiting; returns
    /// whether any arrived.
    fn fill(&mut self) -> Result<bool, String> {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                Ok(false)
            }
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// A complete reply line already buffered, if any.
    fn take_line(&mut self) -> Option<String> {
        let pending = &self.buf[self.consumed..];
        let end = pending.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&pending[..end]).into_owned();
        self.consumed += end + 1;
        Some(line)
    }

    /// Spins until the next reply line is complete.
    pub fn recv(&mut self) -> Result<String, String> {
        let start = Instant::now();
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            if !self.fill()? {
                if start.elapsed() > REPLY_TIMEOUT {
                    return Err("reply timed out".to_string());
                }
                std::hint::spin_loop();
            }
        }
    }

    /// One depth-1 round trip: the reply and its latency in nanoseconds.
    pub fn call(&mut self, line: &str) -> Result<(String, u64), String> {
        let start = Instant::now();
        self.send(line)?;
        let reply = self.recv()?;
        Ok((reply, start.elapsed().as_nanos() as u64))
    }
}
