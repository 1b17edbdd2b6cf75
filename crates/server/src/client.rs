//! A blocking line-protocol client, shared by `serve-bench` and the
//! integration tests — plus [`ResilientClient`], the retry-with-backoff
//! wrapper the network-chaos harness drives.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use decorr_common::{Clock, Error, Result};

/// One request's outcome: the payload lines and how the server closed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub lines: Vec<String>,
    pub status: Status,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// `;ok <n>` — `n` payload lines preceded it.
    Ok,
    /// `;err <message>` — the rendered error; no payload lines precede it.
    Err(String),
    /// `;bye` — the server acknowledged `\quit`.
    Bye,
}

impl Reply {
    /// The payload rows, excluding `--` footer lines.
    pub fn rows(&self) -> impl Iterator<Item = &str> {
        self.lines
            .iter()
            .map(|s| s.as_str())
            .filter(|l| !l.starts_with("--"))
    }

    /// True when the server shed this request (overload or quota) — the
    /// retry-safe rejections, as opposed to query errors.
    pub fn is_shed(&self) -> bool {
        matches!(&self.status,
            Status::Err(m) if m.starts_with("overloaded:") || m.starts_with("quota exceeded:"))
    }
}

/// A blocking client for the `;ok`/`;err` line protocol.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    session_id: u64,
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    // Typed as transport I/O, not `Internal`: a dropped connection is an
    // environment fault, and [`ResilientClient`] retries exactly this
    // class of error.
    Error::io(format!("client {what}: {e}"))
}

impl LineClient {
    /// Connect and consume the `;hello` greeting.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<LineClient> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        // Requests are one small write each; without this the kernel may
        // hold one back until the previous reply's last segment is ACKed.
        stream
            .set_nodelay(true)
            .map_err(|e| io_err("set_nodelay", e))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| io_err("clone stream", e))?);
        let mut c = LineClient { reader, writer: BufWriter::new(stream), session_id: 0 };
        let greeting = c
            .read_line()?
            .ok_or_else(|| Error::internal("server closed the connection before greeting"))?;
        c.session_id = greeting
            .strip_prefix(";hello decorr ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| Error::internal(format!("bad greeting {greeting:?}")))?;
        Ok(c)
    }

    /// The session id the server assigned this connection.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Send one request line and read the full reply.
    pub fn request(&mut self, line: &str) -> Result<Reply> {
        writeln!(self.writer, "{line}").map_err(|e| io_err("write", e))?;
        self.writer.flush().map_err(|e| io_err("flush", e))?;
        let mut lines = Vec::new();
        loop {
            let l = self
                .read_line()?
                .ok_or_else(|| Error::internal("server closed the connection mid-reply"))?;
            if let Some(rest) = l.strip_prefix(';') {
                let status = if let Some(n) = rest.strip_prefix("ok ") {
                    let n: usize = n
                        .trim()
                        .parse()
                        .map_err(|_| Error::internal(format!("bad terminator {l:?}")))?;
                    if n != lines.len() {
                        return Err(Error::internal(format!(
                            "terminator claims {n} payload lines, got {}",
                            lines.len()
                        )));
                    }
                    Status::Ok
                } else if let Some(msg) = rest.strip_prefix("err ") {
                    Status::Err(msg.trim_end().to_string())
                } else if rest.trim_end() == "bye" {
                    Status::Bye
                } else {
                    return Err(Error::internal(format!("unknown terminator {l:?}")));
                };
                return Ok(Reply { lines, status });
            }
            lines.push(l);
        }
    }

    /// `\quit` and wait for `;bye`.
    pub fn quit(mut self) -> Result<()> {
        match self.request("\\quit")?.status {
            Status::Bye => Ok(()),
            other => Err(Error::internal(format!("expected ;bye, got {other:?}"))),
        }
    }

    fn read_line(&mut self) -> Result<Option<String>> {
        let mut line = String::new();
        // Propagate read errors — an `unwrap_or(0)` here would silently
        // turn a broken connection into a clean EOF (the shell bug this
        // PR fixes).
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| io_err("read", e))?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }
}

/// Retry policy for [`ResilientClient`]: capped exponential backoff on
/// the logical clock (never a wall-clock sleep).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts beyond the first (0 = fail on the first transport error).
    pub max_retries: u32,
    /// Backoff before retry 1, in logical ticks.
    pub base_ticks: u64,
    /// Cap: backoff doubles per retry but never exceeds this.
    pub max_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 4, base_ticks: 1, max_ticks: 16 }
    }
}

/// Counters of what a [`ResilientClient`] rode through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests retried after a transport ([`Error::Io`]) failure.
    pub retries: u64,
    /// Fresh connections established (first connect included).
    pub reconnects: u64,
    /// Total logical backoff ticks advanced on the clock.
    pub backoff_ticks: u64,
}

/// A [`LineClient`] that reconnects and retries on transport errors with
/// capped exponential backoff.
///
/// Only [`Error::Io`] is retried — a typed server reply (`;err` shed,
/// query error) is a *successful* round trip and is returned as-is.
/// Retrying re-sends the whole request line, so callers must only route
/// idempotent requests (reads, `\settings`, ANALYZE) through this client;
/// that is exactly the chaos harness workload.
pub struct ResilientClient {
    addr: std::net::SocketAddr,
    policy: RetryPolicy,
    clock: Clock,
    client: Option<LineClient>,
    stats: RetryStats,
}

impl ResilientClient {
    /// Lazily-connecting client for `addr`; backoff advances `clock`
    /// (share it with a [`decorr_common::Budget`] so injected waiting
    /// consumes budget).
    pub fn new(addr: std::net::SocketAddr, policy: RetryPolicy, clock: Clock) -> ResilientClient {
        ResilientClient { addr, policy, clock, client: None, stats: RetryStats::default() }
    }

    /// What this client rode through so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Drop the current connection (the chaos driver's injected fault).
    pub fn sever(&mut self) {
        self.client = None;
    }

    /// Is a connection currently established?
    pub fn is_connected(&self) -> bool {
        self.client.is_some()
    }

    fn ensure_connected(&mut self) -> Result<&mut LineClient> {
        if self.client.is_none() {
            let c = LineClient::connect(self.addr)?;
            self.stats.reconnects += 1;
            self.client = Some(c);
        }
        self.client
            .as_mut()
            .ok_or_else(|| Error::internal("connection vanished after connect"))
    }

    /// Send one request, reconnecting and retrying transport failures up
    /// to the policy's limit. Returns the first non-transport outcome;
    /// after the last retry the typed [`Error::Io`] surfaces (never a
    /// hang, never a panic).
    pub fn request(&mut self, line: &str) -> Result<Reply> {
        let mut backoff = self.policy.base_ticks.max(1);
        let mut attempt = 0u32;
        loop {
            let res = self.ensure_connected().and_then(|c| c.request(line));
            match res {
                Ok(reply) => return Ok(reply),
                Err(Error::Io(m)) => {
                    // The connection state is unknown: drop it so the next
                    // attempt starts clean.
                    self.client = None;
                    if attempt >= self.policy.max_retries {
                        return Err(Error::io(format!("{m} (after {attempt} retries)")));
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    self.stats.backoff_ticks += backoff;
                    self.clock.advance(backoff);
                    backoff = (backoff * 2).min(self.policy.max_ticks.max(1));
                }
                Err(other) => return Err(other),
            }
        }
    }
}
