//! The TCP endpoint: a line protocol over per-connection sessions.
//!
//! # Protocol
//!
//! Text, line-oriented, one request per line (the same language the REPL
//! speaks: `\commands`, `ANALYZE`, `EXPLAIN COST …`, plain SQL, and the
//! prepared-statement verbs `PREPARE <name> AS <sql>`,
//! `EXECUTE <name>[(arg, …)]` and `DEALLOCATE <name>`). Each
//! request yields zero or more payload lines followed by exactly one
//! terminator line:
//!
//! ```text
//! ;hello decorr <session id>        (once, on connect)
//! <payload line> *
//! ;ok <n>                           (n = payload line count)
//! ;err <message>                    (typed error, rendered via Display)
//! ;bye                              (response to \quit; connection closes)
//! ```
//!
//! Payload lines never start with `;` (result rows, `--` footers and
//! rendered tables don't), so a client can stream until a `;` line without
//! escaping. Errors — including [`Error::Overloaded`] and
//! [`Error::QuotaExceeded`] sheds — arrive as `;err` with **no payload
//! lines**: a failed query never delivers partial rows.
//!
//! # Fault handling
//!
//! A request is executed only when its full line (newline-terminated)
//! arrived: a connection that drops mid-line leaves a *partial command*,
//! which is discarded and counted — never executed as if it were complete.
//! Per-connection read/write deadlines ([`ServerConfig::read_timeout`] /
//! [`ServerConfig::write_timeout`]) shed stuck or stalled clients as typed
//! `;err` lines instead of parking a session thread forever. Every
//! drop/shed/discard increments the server's [`NetCounters`].
//!
//! # Concurrency
//!
//! One thread per connection, each owning a [`Session`]; the catalog,
//! columnar cache and admission control are the shared state. A
//! shed/panic in one session never takes the process down: handlers catch
//! errors and keep serving, and the accept loop exits only on
//! [`ServerHandle::shutdown`].

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use decorr_common::{Error, Result};
use decorr_storage::{Database, StoreOptions};

use crate::admission::{AdmissionControl, PoolLedger, Quotas};
use crate::catalog::SharedCatalog;
use crate::session::{Control, Session, SessionSettings};

/// Server construction knobs.
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests, benches).
    pub addr: String,
    /// Service-wide admission quotas.
    pub quotas: Quotas,
    /// Settings each new session starts from.
    pub session_defaults: SessionSettings,
    /// Durable catalog home. `None` serves ephemerally from memory;
    /// `Some(dir)` recovers the last committed epoch from `dir` (ignoring
    /// the seed database unless the directory is fresh) and makes every
    /// later `\load`/`\drop`/`ANALYZE` crash-durable before it is
    /// acknowledged.
    pub data_dir: Option<std::path::PathBuf>,
    /// Buffer pool / segment knobs for the durable store.
    pub store: StoreOptions,
    /// Per-connection read deadline. A client that stalls mid-line longer
    /// than this is shed with a typed `;err` and disconnected (`None`
    /// waits forever — clients may legally idle between requests, so the
    /// default is off; chaos and production configs set it).
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline: a client that stops draining its
    /// socket is shed rather than parking the session thread.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            quotas: Quotas::default(),
            session_defaults: SessionSettings::default(),
            data_dir: None,
            store: StoreOptions::default(),
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// Connection-fault counters, for the chaos harness and `net`-style
/// reporting. All monotone; snapshot with [`ServerHandle::net_counters`].
#[derive(Debug, Default)]
pub struct NetCounters {
    accepted: AtomicU64,
    /// Connections that ended on a read/write error (client vanished).
    drops: AtomicU64,
    /// Partial (unterminated) command lines discarded at disconnect —
    /// the truncated-command-executes bug this counter guards against.
    partial_lines: AtomicU64,
    /// Connections shed because a read/write deadline fired.
    stalled_sheds: AtomicU64,
}

/// One snapshot of [`NetCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    pub accepted: u64,
    pub drops: u64,
    pub partial_lines: u64,
    pub stalled_sheds: u64,
}

impl NetCounters {
    fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            partial_lines: self.partial_lines.load(Ordering::Relaxed),
            stalled_sheds: self.stalled_sheds.load(Ordering::Relaxed),
        }
    }
}

/// The shared state every connection thread hangs off.
struct Shared {
    catalog: Arc<SharedCatalog>,
    admission: Arc<AdmissionControl>,
    defaults: SessionSettings,
    next_session: AtomicU64,
    stopping: AtomicBool,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    net: NetCounters,
}

/// A running server. Dropping the handle shuts it down.
pub struct ServerHandle {
    local_addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Serve `db` on `config.addr` until [`ServerHandle::shutdown`].
pub fn serve(db: Database, config: ServerConfig) -> Result<ServerHandle> {
    let listener = TcpListener::bind(
        config
            .addr
            .to_socket_addrs()
            .map_err(|e| Error::internal(format!("bad bind address {:?}: {e}", config.addr)))?
            .next()
            .ok_or_else(|| {
                Error::internal(format!(
                    "bind address {:?} resolved to nothing",
                    config.addr
                ))
            })?,
    )
    .map_err(|e| Error::internal(format!("bind {:?}: {e}", config.addr)))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| Error::internal(format!("local_addr: {e}")))?;

    let catalog = Arc::new(match &config.data_dir {
        Some(dir) => SharedCatalog::open_durable(dir, config.store.clone(), db)?,
        None => SharedCatalog::new(db),
    });
    let admission = Arc::new(AdmissionControl::new(config.quotas));
    // Shared-subplan materializations draw from the same memory pool as
    // query buffers: a big cached intermediate sheds queries, never OOMs.
    catalog
        .subplan_cache()
        .set_ledger(Arc::new(PoolLedger(Arc::clone(&admission))));
    let shared = Arc::new(Shared {
        catalog,
        admission,
        defaults: config.session_defaults,
        next_session: AtomicU64::new(1),
        stopping: AtomicBool::new(false),
        read_timeout: config.read_timeout,
        write_timeout: config.write_timeout,
        net: NetCounters::default(),
    });

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("decorr-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))
        .map_err(|e| Error::internal(format!("spawn accept loop: {e}")))?;

    Ok(ServerHandle { local_addr, shared, accept_thread: Some(accept_thread) })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue, // transient accept error: keep serving
        };
        let conn_shared = Arc::clone(&shared);
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        shared.net.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = std::thread::Builder::new()
            .name(format!("decorr-session-{id}"))
            .spawn(move || {
                // A connection error only ends this session.
                let _ = serve_connection(stream, id, &conn_shared);
            });
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Drive one connection: greeting, then request/response until `\quit`,
/// EOF or an I/O error. Only complete (newline-terminated) lines are ever
/// executed; a read deadline sheds the connection with a typed error.
///
/// Each reply is assembled whole and leaves in one `write_all` on a
/// `TCP_NODELAY` socket. A buffered writer smaller than the reply splits
/// it into segments, and with Nagle on, the tail segment of anything over
/// one buffer waits for the client's delayed ACK (~40 ms) before it is
/// sent.
fn serve_connection(mut stream: TcpStream, id: u64, shared: &Shared) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(shared.read_timeout);
    let _ = stream.set_write_timeout(shared.write_timeout);
    let _ = stream.set_nodelay(true);
    let mut session = Session::new(
        id,
        Arc::clone(&shared.catalog),
        Arc::clone(&shared.admission),
        shared.defaults.clone(),
    );
    let mut reader = BufReader::new(stream.try_clone()?);
    stream.write_all(format!(";hello decorr {id}\n").as_bytes())?;

    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // clean EOF between requests
            Ok(_) if !line.ends_with('\n') => {
                // EOF mid-line: the command is truncated. Executing it
                // would run a request the client never finished sending —
                // discard it, count it, and close.
                shared.net.partial_lines.fetch_add(1, Ordering::Relaxed);
                let _ = stream.write_all(
                    b";err i/o error: connection dropped mid-line; partial command discarded\n",
                );
                return Ok(());
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                // Stalled client: shed with a typed error instead of
                // parking this thread forever.
                shared.net.stalled_sheds.fetch_add(1, Ordering::Relaxed);
                let _ =
                    stream.write_all(b";err i/o error: read deadline exceeded; connection shed\n");
                return Ok(());
            }
            Err(e) => {
                shared.net.drops.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        // Per request, so one huge result does not pin its buffer to the
        // connection for as long as it stays open.
        let mut reply = String::new();
        let quit = match session.handle_line(trimmed) {
            Ok(resp) => {
                reply.reserve(resp.lines.iter().map(|l| l.len() + 1).sum::<usize>() + 16);
                for l in &resp.lines {
                    reply.push_str(l);
                    reply.push('\n');
                }
                let quit = resp.control == Control::Quit;
                if quit {
                    reply.push_str(";bye\n");
                } else {
                    let _ = writeln!(reply, ";ok {}", resp.lines.len());
                }
                quit
            }
            Err(e) => {
                // Typed errors cross the wire as one line; no payload ever
                // precedes them (handle_line returns rows only on success).
                let _ = writeln!(reply, ";err {e}");
                false
            }
        };
        if let Err(e) = stream.write_all(reply.as_bytes()) {
            note_write_failure(shared, &e);
            return if quit { Ok(()) } else { Err(e) };
        }
        if quit {
            return Ok(());
        }
    }
}

fn note_write_failure(shared: &Shared, e: &std::io::Error) {
    if is_timeout(e) {
        shared.net.stalled_sheds.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.net.drops.fetch_add(1, Ordering::Relaxed);
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The shared catalog, for out-of-band writers (tests, benches driving
    /// ANALYZE/reload races without burning a connection).
    pub fn catalog(&self) -> Arc<SharedCatalog> {
        Arc::clone(&self.shared.catalog)
    }

    /// The admission controller (for stats assertions).
    pub fn admission(&self) -> Arc<AdmissionControl> {
        Arc::clone(&self.shared.admission)
    }

    /// Connection-fault counters: accepts, drops, discarded partial
    /// lines, deadline sheds.
    pub fn net_counters(&self) -> NetSnapshot {
        self.shared.net.snapshot()
    }

    /// Stop accepting connections and join the accept loop. Existing
    /// session threads finish their current request and exit when their
    /// clients disconnect.
    pub fn shutdown(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        // Nudge the blocking accept() with one throwaway connection.
        if let Ok(s) = TcpStream::connect(self.local_addr) {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
