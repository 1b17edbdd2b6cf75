//! The fault plane: one seeded injector behind every fault the repo
//! injects — node crashes, transient job errors and stragglers in the
//! shared-nothing simulator (`crates/parallel`), disk faults under the
//! durable store ([`crate::env::ChaosEnv`]) and connection faults against
//! the TCP service.
//!
//! A [`FaultPlane`] is one `u64` seed, one [`FaultRates`] table, one
//! logical [`Clock`], one op counter per site (each node, the disk, the
//! network) and one [`FaultStats`].
//! Every decision is one draw, `splitmix64(seed ^ salt ^ idx · K)`, keyed
//! on the site's op index with a salt and multiplier per decision, so a
//! failing seed replays exactly — and one seed can tear a disk write,
//! drop a connection and straggle a node in the same run.
//!
//! Delays never sleep: stragglers, retry backoff and disk latency advance
//! the plane's clock, which a query [`crate::Budget`] or a retrying client
//! may share. Cloning shares the plane.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::govern::Clock;
use crate::hash::splitmix64;

/// Index multipliers of the draws (each decision keeps the one it has
/// always used, so old seeds replay the same schedules).
const K_IDX: u64 = 0xE703_7ED1_A0B4_28DB;
const K_LANE: u64 = 0x8EBC_6AF0_9C88_C6E3;
const K_NODE: u64 = 0xA076_1D64_78BD_642F;
const K_CRASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// Where a fault is drawn. Each site consumes indices from its own
/// counter, so faults at one site never shift another site's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// One node of the simulated cluster: one index per job attempt.
    Node(usize),
    /// The in-memory disk: one index per read, write, sync or namespace op.
    Disk,
    /// The client side of the TCP service: one index per request.
    Net,
}

impl Site {
    fn slot(self) -> usize {
        match self {
            Site::Disk => 0,
            Site::Net => 1,
            Site::Node(n) => 2 + n,
        }
    }
}

/// One node's crash window over its job sequence: attempts with per-node
/// index in `[start, start + len)` find the node down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    pub node: usize,
    pub start: u64,
    pub len: u64,
}

/// What the plane may inject, per site. Probabilities are per mille of
/// the site's op stream; delays are `1..=ticks` logical ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRates {
    /// Node: one node's crash window.
    pub crash: Option<CrashWindow>,
    /// Node: an attempt fails once with a transient error.
    pub transient: u64,
    /// Node: an attempt succeeds after a straggler delay.
    pub straggle: u64,
    pub straggle_ticks: u64,
    /// Disk: a write fails with ENOSPC ([`crate::Error::StorageFull`]).
    pub enospc: u64,
    /// Disk: a write persists only a seeded prefix, then fails.
    pub torn: u64,
    /// Disk: a read fails with a transient EIO (a retry is a new index,
    /// so it redraws).
    pub read_eio: u64,
    /// Disk: an fsync reports success without making the bytes durable.
    pub lost_sync: u64,
    /// Disk: an op is delayed.
    pub latency: u64,
    pub latency_ticks: u64,
    /// Net: sever the client's connection before the request.
    pub drop: u64,
    /// Net: send a truncated command from a side connection, hang up.
    pub partial: u64,
    /// Net: park a side connection mid-line past the read deadline.
    pub stall: u64,
}

impl FaultRates {
    /// Inject nothing.
    pub const QUIET: FaultRates = FaultRates {
        crash: None,
        transient: 0,
        straggle: 0,
        straggle_ticks: 0,
        enospc: 0,
        torn: 0,
        read_eio: 0,
        lost_sync: 0,
        latency: 0,
        latency_ticks: 0,
        drop: 0,
        partial: 0,
        stall: 0,
    };

    /// The default chaos mix: rare-but-real background faults that bounded
    /// retry rides through and a correct store survives or fails closed
    /// on, frequent enough that a few hundred requests hit every net family.
    pub const CHAOS: FaultRates = FaultRates {
        crash: None,
        transient: 40,
        straggle: 30,
        straggle_ticks: 8,
        enospc: 15,
        torn: 10,
        read_eio: 25,
        lost_sync: 10,
        latency: 40,
        latency_ticks: 4,
        drop: 60,
        partial: 30,
        stall: 20,
    };
}

/// What the node site injects for one job attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Run normally.
    None,
    /// The node's database is unreachable; the attempt fails.
    NodeDown,
    /// The attempt fails once with a transient error; a retry may succeed.
    Transient,
    /// The attempt succeeds after a straggler delay of this many ticks.
    Straggle(u64),
}

/// The kind of disk op drawing the next disk fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DiskOp {
    Read,
    /// A write of this many bytes (0 for create / truncate: nothing to tear).
    Write(usize),
    /// A file fsync.
    Sync,
    /// Namespace ops and directory syncs: latency only.
    Meta,
}

/// What the disk site injects into one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DiskFault {
    None,
    /// ENOSPC.
    Full,
    /// A transient read EIO.
    Eio,
    /// Persist this many leading bytes of the write, then fail.
    Torn(usize),
    /// Report the fsync ok without making the bytes durable.
    LostSync,
}

/// What the net site injects before one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Run normally.
    None,
    /// Sever the connection first (the request then needs reconnect+retry).
    DropBefore,
    /// Send a truncated command from a side connection, then hang up.
    PartialLine,
    /// Park a side connection mid-line past the server's read deadline.
    Stall,
}

/// Everything the plane injected, plus the recoveries it was told about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Node: injected faults absorbed by retrying a job.
    pub retries: u64,
    /// Node: jobs that left their primary replica for a standby.
    pub failovers: u64,
    /// Node: logical ticks of straggler delay and retry backoff.
    pub delay_ticks: u64,
    /// Disk: writes rejected with ENOSPC (drawn or forced disk-full).
    pub enospc: u64,
    /// Disk: writes that persisted only a prefix before failing.
    pub torn_writes: u64,
    /// Disk: reads failed with a transient EIO.
    pub read_eio: u64,
    /// Disk: fsyncs that reported success without making bytes durable.
    pub lost_syncs: u64,
    /// Disk: logical latency ticks.
    pub latency_ticks: u64,
    /// Disk: simulated power cuts.
    pub crashes: u64,
    /// Net: connections severed before a request.
    pub drops: u64,
    /// Net: truncated commands sent.
    pub partials: u64,
    /// Net: side connections parked mid-line.
    pub stalls: u64,
}

impl FaultStats {
    /// Injected disk faults (latency excluded: delays are not failures).
    pub fn disk_faults(&self) -> u64 {
        self.enospc + self.torn_writes + self.read_eio + self.lost_syncs + self.crashes
    }
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    rates: FaultRates,
    clock: Clock,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    /// Op counters by [`Site::slot`], grown on first use.
    ops: Vec<u64>,
    stats: FaultStats,
}

/// The seeded fault injector. See the module docs.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    inner: Arc<Inner>,
}

impl FaultPlane {
    pub fn new(seed: u64, rates: FaultRates) -> FaultPlane {
        FaultPlane {
            inner: Arc::new(Inner { seed, rates, clock: Clock::new(), state: Mutex::default() }),
        }
    }

    /// A plane that injects nothing (the fault-free baseline).
    pub fn quiet(seed: u64) -> FaultPlane {
        Self::new(seed, FaultRates::QUIET)
    }

    /// The [`FaultRates::CHAOS`] mix on every site.
    pub fn chaos(seed: u64) -> FaultPlane {
        Self::new(seed, FaultRates::CHAOS)
    }

    /// The chaos mix plus a *finite* crash window early in one seeded
    /// node's job sequence, short enough that bounded retry outlasts it.
    pub fn crash_window(seed: u64, nodes: usize) -> FaultPlane {
        let start = splitmix64(seed ^ 0x11) % 2;
        let len = 1 + splitmix64(seed ^ 0x22) % 4;
        Self::with_crash(seed, nodes, start, len)
    }

    /// The chaos mix plus one seeded node down for good — the chaos
    /// sweep's scenario: with a live replica the query must recover
    /// byte-identically, without one it must fail closed with
    /// `Error::NodeFailed`.
    pub fn single_crash(seed: u64, nodes: usize) -> FaultPlane {
        Self::with_crash(seed, nodes, 0, u64::MAX)
    }

    fn with_crash(seed: u64, nodes: usize, start: u64, len: u64) -> FaultPlane {
        let node = (splitmix64(seed) % nodes.max(1) as u64) as usize;
        let crash = Some(CrashWindow { node, start, len });
        Self::new(seed, FaultRates { crash, ..FaultRates::CHAOS })
    }

    /// The clock every injected delay advances.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    pub fn stats(&self) -> FaultStats {
        self.state().stats
    }

    /// Record what a consumer did about a fault (a retry, a failover, a
    /// power cut, a forced ENOSPC).
    pub fn count(&self, f: impl FnOnce(&mut FaultStats)) {
        f(&mut self.state().stats)
    }

    /// Advance the clock by a straggler delay or retry backoff.
    pub fn delay(&self, ticks: u64) {
        self.inner.clock.advance(ticks);
        self.count(|s| s.delay_ticks += ticks);
    }

    /// Consume the next op index at `site`.
    pub(crate) fn next_op(&self, site: Site) -> u64 {
        let mut st = self.state();
        let slot = site.slot();
        if st.ops.len() <= slot {
            st.ops.resize(slot + 1, 0);
        }
        st.ops[slot] += 1;
        st.ops[slot] - 1
    }

    /// Op indices consumed at `site` so far.
    pub(crate) fn ops(&self, site: Site) -> u64 {
        self.state().ops.get(site.slot()).copied().unwrap_or(0)
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The one draw behind every decision.
    fn draw(&self, salt: u64, idx: u64, k: u64) -> u64 {
        splitmix64(self.inner.seed ^ salt ^ idx.wrapping_mul(k))
    }

    /// The node with a crash window, if any.
    pub fn crashed_node(&self) -> Option<usize> {
        self.inner.rates.crash.map(|c| c.node)
    }

    /// Consume one attempt index from `node`'s job sequence and return the
    /// injected fault for that attempt.
    pub fn begin_job(&self, node: usize) -> FaultEvent {
        let idx = self.next_op(Site::Node(node));
        let r = &self.inner.rates;
        if let Some(c) = r.crash {
            if c.node == node && idx >= c.start && idx - c.start < c.len {
                return FaultEvent::NodeDown;
            }
        }
        if self.draw((node as u64).wrapping_mul(K_NODE), idx, K_IDX) % 1000 < r.transient {
            return FaultEvent::Transient;
        }
        match self.straggle(node as u64 ^ idx.rotate_left(17)) {
            Some(d) => FaultEvent::Straggle(d),
            None => FaultEvent::None,
        }
    }

    fn straggle(&self, lane: u64) -> Option<u64> {
        let r = &self.inner.rates;
        let h = self.draw(0x5742_4747, lane, K_LANE);
        (h % 1000 < r.straggle).then(|| 1 + (h >> 32) % r.straggle_ticks.max(1))
    }

    /// The disk fault for op `idx`. Latency is applied (and counted) here;
    /// every returned fault is counted.
    pub(crate) fn disk_fault(&self, op: DiskOp, idx: u64) -> DiskFault {
        let r = &self.inner.rates;
        let h = self.draw(0, idx, K_IDX);
        if h % 1000 < r.latency {
            let ticks = 1 + (h >> 32) % r.latency_ticks.max(1);
            self.inner.clock.advance(ticks);
            self.count(|s| s.latency_ticks += ticks);
        }
        let d = splitmix64(h ^ 0x5EED_D15C) % 1000;
        let fault = match op {
            DiskOp::Write(_) if d < r.enospc => DiskFault::Full,
            DiskOp::Read if d < r.read_eio => DiskFault::Eio,
            DiskOp::Write(len) if len > 0 => {
                let t = self.draw(0x7042, idx, K_LANE);
                if t % 1000 < r.torn {
                    DiskFault::Torn(((t >> 32) as usize) % len)
                } else {
                    DiskFault::None
                }
            }
            DiskOp::Sync if self.draw(0xF5CC, idx, K_NODE) % 1000 < r.lost_sync => {
                DiskFault::LostSync
            }
            _ => DiskFault::None,
        };
        self.count(|s| match fault {
            DiskFault::Full => s.enospc += 1,
            DiskFault::Eio => s.read_eio += 1,
            DiskFault::Torn(_) => s.torn_writes += 1,
            DiskFault::LostSync => s.lost_syncs += 1,
            DiskFault::None => {}
        });
        fault
    }

    /// A power cut at disk op `at`: how many of the `delta` bytes appended
    /// to the file keyed `file` since its last honest sync had reached
    /// the platter.
    pub(crate) fn flushed_tail(&self, at: u64, file: u64, delta: u64) -> u64 {
        self.draw(file, at, K_CRASH) % (delta + 1)
    }

    /// Consume one request index and return the fault to inject before
    /// that request.
    pub fn net_fault(&self) -> NetFault {
        let idx = self.next_op(Site::Net);
        let r = &self.inner.rates;
        let d = self.draw(0x4E45_5443, idx, K_LANE) % 1000;
        let fault = if d < r.drop {
            NetFault::DropBefore
        } else if d < r.drop + r.partial {
            NetFault::PartialLine
        } else if d < r.drop + r.partial + r.stall {
            NetFault::Stall
        } else {
            NetFault::None
        };
        self.count(|s| match fault {
            NetFault::DropBefore => s.drops += 1,
            NetFault::PartialLine => s.partials += 1,
            NetFault::Stall => s.stalls += 1,
            NetFault::None => {}
        });
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain the first `per_node` events of each of `nodes` nodes.
    fn events(plane: &FaultPlane, nodes: usize, per_node: u64) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        for node in 0..nodes {
            for _ in 0..per_node {
                out.push(plane.begin_job(node));
            }
        }
        out
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = events(&FaultPlane::crash_window(42, 4), 4, 16);
        let b = events(&FaultPlane::crash_window(42, 4), 4, 16);
        assert_eq!(a, b);
        let c = events(&FaultPlane::crash_window(43, 4), 4, 16);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    /// One seed drives all three sites; the same seed gives the same
    /// decisions on each and the same counters.
    #[test]
    fn one_seed_replays_every_site() {
        let run = |seed: u64| {
            let plane = FaultPlane::single_crash(seed, 3);
            let nodes = events(&plane, 3, 64);
            let ops = [DiskOp::Read, DiskOp::Write(16), DiskOp::Sync, DiskOp::Meta];
            let disk: Vec<DiskFault> = (0..400)
                .map(|i| plane.disk_fault(ops[i % 4], plane.next_op(Site::Disk)))
                .collect();
            let net: Vec<NetFault> = (0..400).map(|_| plane.net_fault()).collect();
            (nodes, disk, net, plane.stats(), plane.clock().now())
        };
        let a = run(11);
        assert_eq!(a, run(11));
        assert_ne!(a, run(12), "different seeds should differ somewhere");
        let (_, _, _, s, now) = a;
        assert!(
            s.disk_faults() > 0 && s.drops > 0 && s.partials > 0 && s.stalls > 0,
            "{s:?}"
        );
        assert_eq!(now, s.latency_ticks, "only disk latency advanced the clock");
    }

    #[test]
    fn quiet_plane_injects_nothing() {
        let plane = FaultPlane::quiet(0);
        assert!(events(&plane, 3, 32).iter().all(|e| *e == FaultEvent::None));
        for op in [DiskOp::Read, DiskOp::Write(8), DiskOp::Sync, DiskOp::Meta] {
            assert!((0..64).all(|i| plane.disk_fault(op, i) == DiskFault::None));
        }
        assert!((0..64).all(|_| plane.net_fault() == NetFault::None));
        assert_eq!(plane.crashed_node(), None);
        assert_eq!(plane.stats(), FaultStats::default());
        assert_eq!(plane.clock().now(), 0);
    }

    #[test]
    fn single_crash_downs_exactly_one_node_forever() {
        let plane = FaultPlane::single_crash(7, 4);
        let victim = plane.crashed_node().expect("one node crashes");
        assert_eq!(
            plane.inner.rates.crash.map(|c| (c.start, c.len)),
            Some((0, u64::MAX))
        );
        for _ in 0..64 {
            assert_eq!(plane.begin_job(victim), FaultEvent::NodeDown);
        }
        for node in (0..4).filter(|&n| n != victim) {
            assert!((0..64).all(|_| plane.begin_job(node) != FaultEvent::NodeDown));
        }
    }

    #[test]
    fn finite_windows_close() {
        // Every window has len <= 5 < 16 attempts, so each node eventually
        // serves again.
        for seed in 0..32u64 {
            let plane = FaultPlane::crash_window(seed, 3);
            let victim = plane.crashed_node().expect("one victim");
            assert!(plane.inner.rates.crash.is_some_and(|c| c.len <= 5));
            let evs: Vec<FaultEvent> = (0..16).map(|_| plane.begin_job(victim)).collect();
            assert!(
                evs.iter().rev().take(8).all(|e| *e != FaultEvent::NodeDown),
                "seed {seed}: crash window should close within 8 attempts: {evs:?}"
            );
        }
    }

    #[test]
    fn straggle_decisions_are_lane_keyed() {
        let plane = FaultPlane::crash_window(5, 4);
        let picks: Vec<Option<u64>> = (0..256).map(|l| plane.straggle(l)).collect();
        assert_eq!(
            picks,
            (0..256).map(|l| plane.straggle(l)).collect::<Vec<_>>()
        );
        assert!(picks.iter().any(Option::is_some), "some lane straggles");
        assert!(picks.iter().any(Option::is_none), "some lane does not");
    }

    #[test]
    fn counters_accumulate_and_clones_share_them() {
        let plane = FaultPlane::quiet(0);
        let shared = plane.clone();
        plane.count(|s| s.retries += 2);
        shared.count(|s| s.failovers += 1);
        shared.delay(7);
        let s = plane.stats();
        assert_eq!((s.retries, s.failovers, s.delay_ticks), (2, 1, 7));
        assert_eq!(plane.clock().now(), 7);
        assert_eq!(plane.next_op(Site::Node(2)), 0);
        assert_eq!(shared.next_op(Site::Node(2)), 1);
        assert_eq!((plane.ops(Site::Node(2)), plane.ops(Site::Disk)), (2, 0));
    }
}
