//! TCP protocol smoke: greeting, payload/terminator framing, typed errors
//! over the wire, multi-client isolation, and writer/reader epoch safety
//! end-to-end.

use decorr_common::{row, DataType, Schema};
use decorr_server::{serve, LineClient, Quotas, ServerConfig, Status};
use decorr_storage::Database;

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

#[test]
fn greeting_framing_and_quit() {
    let mut h = serve(marked_db(3), ServerConfig::default()).unwrap();
    let mut c = LineClient::connect(h.local_addr()).unwrap();
    assert!(c.session_id() > 0);

    let r = c.request("SELECT t.x FROM t").unwrap();
    assert_eq!(r.status, Status::Ok);
    assert_eq!(r.rows().count(), 3);
    // Footer line travels as payload, prefixed `--`.
    assert!(r.lines.iter().any(|l| l.starts_with("-- 3 rows via")));

    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn errors_cross_the_wire_typed_with_no_payload() {
    let mut h = serve(marked_db(1), ServerConfig::default()).unwrap();
    let mut c = LineClient::connect(h.local_addr()).unwrap();

    let r = c.request("SELECT nope FROM nowhere").unwrap();
    match &r.status {
        Status::Err(m) => assert!(
            m.contains("catalog error") || m.contains("binding error"),
            "{m}"
        ),
        other => panic!("expected ;err, got {other:?}"),
    }
    assert!(r.lines.is_empty(), "errors must not deliver partial rows");

    // The connection is still healthy after an error.
    assert_eq!(
        c.request("SELECT COUNT(*) FROM t").unwrap().status,
        Status::Ok
    );
    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn sheds_cross_the_wire_typed_with_no_payload() {
    let mut h = serve(
        marked_db(4),
        ServerConfig {
            quotas: Quotas {
                max_concurrent: 1,
                queue_depth: 0,
                queue_wait_ms: 0,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    // Occupy the only slot out-of-band: every wire query must shed.
    let admission = h.admission();
    let blocker = admission.admit(0).unwrap();

    let mut c = LineClient::connect(h.local_addr()).unwrap();
    let r = c.request("SELECT t.x FROM t").unwrap();
    assert!(r.is_shed(), "expected a typed shed, got {:?}", r.status);
    assert!(r.lines.is_empty(), "a shed must not deliver partial rows");

    drop(blocker);
    let r = c.request("SELECT t.x FROM t").unwrap();
    assert_eq!(r.status, Status::Ok, "service recovers once the slot frees");
    assert_eq!(r.rows().count(), 4);
    c.quit().unwrap();
    h.shutdown();
}

#[test]
fn sessions_are_isolated_but_share_the_catalog() {
    let mut h = serve(marked_db(2), ServerConfig::default()).unwrap();
    let mut a = LineClient::connect(h.local_addr()).unwrap();
    let mut b = LineClient::connect(h.local_addr()).unwrap();
    assert_ne!(a.session_id(), b.session_id());

    // Session-local state (\strategy) does not leak across connections.
    let r = a.request("\\strategy kim").unwrap();
    assert!(r.lines.iter().any(|l| l.contains("unsound (COUNT bug)")));
    let r = b.request("\\session").unwrap();
    assert!(
        r.lines.iter().any(|l| l.contains("auto")),
        "b inherited a's strategy: {:?}",
        r.lines
    );

    // Catalog state is shared: a drop through `a` is visible to `b` …
    assert_eq!(a.request("\\drop t").unwrap().status, Status::Ok);
    match b.request("SELECT COUNT(*) FROM t").unwrap().status {
        Status::Err(m) => assert!(m.contains("catalog error"), "{m}"),
        other => panic!("b still sees the dropped table: {other:?}"),
    }
    a.quit().unwrap();
    b.quit().unwrap();
    h.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_rows() {
    let mut h = serve(marked_db(32), ServerConfig::default()).unwrap();
    let addr = h.local_addr();

    // The serial reference from one connection.
    let mut c = LineClient::connect(addr).unwrap();
    let reference: Vec<String> = c
        .request("SELECT t.x FROM t WHERE t.x > 7")
        .unwrap()
        .rows()
        .map(str::to_string)
        .collect();
    c.quit().unwrap();
    assert_eq!(reference.len(), 24);

    std::thread::scope(|s| {
        for _ in 0..4 {
            let reference = &reference;
            s.spawn(move || {
                let mut c = LineClient::connect(addr).unwrap();
                for _ in 0..10 {
                    let got: Vec<String> = c
                        .request("SELECT t.x FROM t WHERE t.x > 7")
                        .unwrap()
                        .rows()
                        .map(str::to_string)
                        .collect();
                    assert_eq!(&got, reference, "concurrent reply diverged from serial");
                }
                c.quit().unwrap();
            });
        }
    });
    h.shutdown();
}

/// A reply larger than one socket buffer's worth must not wait on the
/// client's delayed ACK: ~45 ms per request when the tail segment of a
/// reply is held back by Nagle, ~2 ms when each reply leaves whole on a
/// `TCP_NODELAY` socket. The median keeps one slow scheduling slice from
/// failing it.
#[test]
fn large_replies_do_not_stall_on_the_wire() {
    let mut h = serve(marked_db(2_500), ServerConfig::default()).unwrap();
    let mut c = LineClient::connect(h.local_addr()).unwrap();
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let r = c.request("SELECT t.x FROM t").unwrap();
            assert_eq!(r.status, Status::Ok);
            assert_eq!(r.rows().count(), 2_500);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = (ms[9] + ms[10]) / 2.0;
    assert!(
        median < 20.0,
        "median large-reply round trip {median:.1} ms: {ms:?}"
    );
    c.quit().unwrap();
    h.shutdown();
}
