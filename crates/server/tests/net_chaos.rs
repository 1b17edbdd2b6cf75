//! Network-chaos acceptance tests: partial lines are discarded (never
//! executed), stalled connections are shed on the read deadline, and
//! [`ResilientClient`] rides injected drops with capped backoff —
//! every outcome a typed error or a success, never a hang. The net
//! faults come from a [`FaultPlane`]'s net site and are injected from the
//! client side on purpose: the server's contract under connection chaos
//! is observable entirely through its wire behavior and
//! [`decorr_server::NetSnapshot`] counters.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use decorr_common::{
    row, ChaosEnv, Clock, DataType, Error, FaultPlane, FaultRates, NetFault, Schema,
};
use decorr_server::{
    serve, LineClient, ResilientClient, RetryPolicy, ServerConfig, ServerHandle, Status,
};
use decorr_storage::{Database, StoreOptions};

fn marked_db(rows: i64) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::from_pairs(&[("x", DataType::Int)]))
        .unwrap();
    for i in 0..rows {
        t.insert(row![i]).unwrap();
    }
    db
}

/// Open a throwaway connection, send a *truncated* command (no newline)
/// and hang up. The server must discard it — observable as a bump in
/// `partial_lines` and, crucially, *not* as an executed command.
fn send_partial_line(addr: SocketAddr, fragment: &str) -> std::io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(fragment.as_bytes())?;
    s.flush()?;
    // Half-close the write side: the server sees EOF mid-line.
    s.shutdown(Shutdown::Write)
}

/// Open a throwaway connection, send half a command, then hold it open
/// (no newline, no close) for `hold`. With a server read deadline shorter
/// than `hold`, the server must shed the connection — observable as a
/// bump in `stalled_sheds` — instead of parking a session thread on the
/// silent socket.
fn stall_connection(addr: SocketAddr, hold: Duration) -> std::io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(b"\\settings")?;
    s.flush()?;
    std::thread::sleep(hold);
    Ok(())
}

/// Poll `pred` until it holds or ~2s elapse. Bounded: a chaos test must
/// never trade a server hang for a test hang.
fn eventually(mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn partial_line_is_discarded_not_executed() {
    let mut h = serve(marked_db(2), ServerConfig::default()).unwrap();
    let epoch_before = h.catalog().epoch();

    // A connection dies mid-command. `ANALYZE` *would* publish a new
    // epoch — the truncated line must be counted and dropped, not run.
    send_partial_line(h.local_addr(), "ANALYZE").unwrap();
    assert!(
        eventually(|| h.net_counters().partial_lines >= 1),
        "server never counted the partial line"
    );
    assert_eq!(
        h.catalog().epoch(),
        epoch_before,
        "a truncated command must never execute"
    );

    // The service is unaffected for healthy clients.
    let mut c = LineClient::connect(h.local_addr()).unwrap();
    assert_eq!(c.request("SELECT t.x FROM t").unwrap().status, Status::Ok);
    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn stalled_connection_is_shed_on_the_read_deadline() {
    let mut h = serve(
        marked_db(2),
        ServerConfig { read_timeout: Some(Duration::from_millis(50)), ..Default::default() },
    )
    .unwrap();
    let addr = h.local_addr();
    // Park a connection mid-line well past the deadline.
    let staller = std::thread::spawn(move || stall_connection(addr, Duration::from_millis(400)));
    assert!(
        eventually(|| h.net_counters().stalled_sheds >= 1),
        "server never shed the stalled connection"
    );
    // Shedding freed the session thread: a healthy client is served while
    // the staller still holds its socket.
    let mut c = LineClient::connect(addr).unwrap();
    assert_eq!(c.request("SELECT t.x FROM t").unwrap().status, Status::Ok);
    c.quit().unwrap();
    staller.join().unwrap().unwrap();
    h.shutdown();
}

#[test]
fn resilient_client_rides_injected_drops_deterministically() {
    let mut h = serve(marked_db(3), ServerConfig::default()).unwrap();
    let addr = h.local_addr();
    let plane = FaultPlane::new(7, FaultRates { drop: 300, ..FaultRates::QUIET });
    let mut client = ResilientClient::new(addr, RetryPolicy::default(), Clock::new());

    let mut dropped = 0u64;
    for _ in 0..60 {
        if plane.net_fault() == NetFault::DropBefore {
            client.sever();
            dropped += 1;
        }
        let r = client.request("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.status, Status::Ok, "every request must round-trip");
        assert_eq!(r.rows().next(), Some("(3)"));
    }
    assert!(dropped > 5, "seed 7 must inject drops ({dropped})");
    assert_eq!(plane.stats().drops, dropped);
    // Each injected drop forced a reconnect (+1 for the initial connect).
    assert_eq!(client.stats().reconnects, dropped + 1);
    h.shutdown();
}

#[test]
fn retries_are_capped_with_typed_error_never_a_hang() {
    let mut h = serve(marked_db(1), ServerConfig::default()).unwrap();
    let addr = h.local_addr();
    let clock = Clock::new();
    let policy = RetryPolicy { max_retries: 4, base_ticks: 1, max_ticks: 8 };
    let mut client = ResilientClient::new(addr, policy, clock.clone());
    assert_eq!(
        client.request("SELECT t.x FROM t").unwrap().status,
        Status::Ok
    );
    h.shutdown();
    client.sever();

    // The server is gone (and the connection with it): the client must
    // fail *closed* after its retry budget — typed, bounded, and with
    // capped exponential backoff.
    let err = client.request("SELECT t.x FROM t").unwrap_err();
    match err {
        Error::Io(m) => assert!(m.contains("after 4 retries"), "{m}"),
        other => panic!("expected typed Io error, got {other:?}"),
    }
    let s = client.stats();
    assert_eq!(s.retries, 4);
    // 1 + 2 + 4 + 8(capped) = 15 logical ticks, surfaced on the clock.
    assert_eq!(s.backoff_ticks, 15);
    assert_eq!(clock.now(), 15);
}

#[test]
fn seeded_net_schedule_replays_exactly() {
    let a = FaultPlane::chaos(99);
    let b = FaultPlane::chaos(99);
    let sa: Vec<NetFault> = (0..500).map(|_| a.net_fault()).collect();
    let sb: Vec<NetFault> = (0..500).map(|_| b.net_fault()).collect();
    assert_eq!(sa, sb, "same seed must give the same fault schedule");
    assert_eq!(a.stats(), b.stats());
    let c = FaultPlane::chaos(100);
    let sc: Vec<NetFault> = (0..500).map(|_| c.net_fault()).collect();
    assert_ne!(sa, sc, "different seeds must diverge");
    // The quiet plane injects nothing.
    let q = FaultPlane::quiet(99);
    assert!((0..500).all(|_| q.net_fault() == NetFault::None));
}

/// A durable server on a [`ChaosEnv`] whose buffer pool is a fraction of
/// the data, so every scan reads pages through the faulty device. The
/// device's faults stay off through the initial load.
fn durable_server(plane: &FaultPlane, rows: i64) -> ServerHandle {
    let env = ChaosEnv::new(plane.clone());
    env.set_faults(false);
    let store = StoreOptions { pool_bytes: 4 << 10, page_rows: 64, env: Arc::new(env.clone()) };
    let config = ServerConfig {
        data_dir: Some("/chaos/serve".into()),
        store,
        read_timeout: Some(Duration::from_millis(100)),
        ..Default::default()
    };
    let h = serve(marked_db(rows), config).unwrap();
    env.set_faults(true);
    h
}

/// One seed, one plane, both halves of the weather: the plane's disk site
/// faults the durable server's reads while its net site drops the
/// client's connection, sends partial lines and parks stalled sockets,
/// and the client's backoff runs on the plane's clock. Every reply is the
/// fault-free run's payload or a typed error — never a third thing.
#[test]
fn one_seed_drives_disk_and_network_faults() {
    const SEED: u64 = 3;
    const ROWS: i64 = 2_000;
    let queries = [
        "SELECT COUNT(*) FROM t",
        "SELECT t.x FROM t WHERE t.x < 40",
        "SELECT SUM(t.x) FROM t WHERE t.x > 1500",
    ];

    let reference: Vec<Vec<String>> = {
        let mut h = durable_server(&FaultPlane::quiet(SEED), ROWS);
        let mut c = LineClient::connect(h.local_addr()).unwrap();
        let payloads = queries
            .iter()
            .map(|q| {
                let r = c.request(q).unwrap();
                assert_eq!(r.status, Status::Ok, "{q}");
                r.rows().map(String::from).collect()
            })
            .collect();
        h.shutdown();
        payloads
    };

    let plane = FaultPlane::chaos(SEED);
    let mut h = durable_server(&plane, ROWS);
    let addr = h.local_addr();
    let epoch = h.catalog().epoch();
    let mut client = ResilientClient::new(addr, RetryPolicy::default(), plane.clock().clone());
    let mut stallers = Vec::new();
    let (mut identical, mut typed) = (0u64, 0u64);
    for i in 0..200 {
        match plane.net_fault() {
            NetFault::None => {}
            NetFault::DropBefore => client.sever(),
            NetFault::PartialLine => send_partial_line(addr, "ANALYZE").unwrap(),
            NetFault::Stall => stallers.push(std::thread::spawn(move || {
                stall_connection(addr, Duration::from_millis(300))
            })),
        }
        let q = i % queries.len();
        match client.request(queries[q]) {
            Ok(r) if r.status == Status::Ok => {
                assert_eq!(r.rows().collect::<Vec<_>>(), reference[q], "request {i}");
                identical += 1;
            }
            Ok(r) => {
                assert!(matches!(r.status, Status::Err(_)), "request {i}: {r:?}");
                typed += 1;
            }
            Err(e) => {
                assert!(matches!(e, Error::Io(_)), "request {i}: {e}");
                typed += 1;
            }
        }
    }
    for s in stallers {
        s.join().unwrap().unwrap();
    }

    let s = plane.stats();
    assert!(
        identical > 0 && typed > 0,
        "{identical} identical, {typed} typed"
    );
    assert!(s.disk_faults() > 0, "no disk fault: {s:?}");
    assert!(
        s.drops > 0 && s.partials > 0 && s.stalls > 0,
        "a net family never fired: {s:?}"
    );
    assert!(plane.clock().now() >= s.latency_ticks);
    assert!(
        eventually(|| {
            let n = h.net_counters();
            n.partial_lines >= s.partials && n.stalled_sheds >= s.stalls
        }),
        "server missed a partial line or a stall: {:?}",
        h.net_counters()
    );
    assert_eq!(h.catalog().epoch(), epoch, "a truncated ANALYZE executed");
    h.shutdown();
}
