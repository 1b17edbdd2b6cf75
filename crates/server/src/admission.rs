//! Admission control: execution slots, a bounded wait queue, per-session
//! quotas and a global memory pool.
//!
//! Every query passes through [`AdmissionControl::admit`] before touching
//! the executor. Admission composes the governance primitives of PR 4 into
//! service policy:
//!
//! * a fixed number of **execution slots** ([`Quotas::max_concurrent`])
//!   bounds intra-process parallelism;
//! * a **bounded queue** ([`Quotas::queue_depth`], [`Quotas::queue_wait_ms`])
//!   absorbs bursts; once it is full — or a queued query has waited too
//!   long — the request is **shed** with a typed [`Error::Overloaded`],
//!   never a panic and never a partial result (the query has not started);
//! * **per-session quotas** ([`Quotas::per_session_concurrent`]) stop one
//!   tenant from monopolizing the slots, failing with
//!   [`Error::QuotaExceeded`] so the caller can tell self-inflicted
//!   rejections from global pressure;
//! * a **global memory pool** ([`Quotas::mem_pool_rows`]) from which each
//!   admitted query reserves its [`ExecOptions::mem_budget`]
//!   (`per_query_mem_rows`); an operator over it spills when the catalog
//!   is durable, and the executor fails a query whose operator output
//!   exceeds `1024 ×` the reservation.
//!
//! The returned [`AdmissionPermit`] is RAII: dropping it (on success,
//! error or panic-unwind alike) frees the slot, the memory reservation and
//! the per-session count, and wakes one queued waiter.
//!
//! [`ExecOptions::mem_budget`]: decorr_exec::ExecOptions

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use decorr_common::{Error, FxHashMap, Result};

/// Service quotas; see the module docs for how each knob acts.
#[derive(Debug, Clone)]
pub struct Quotas {
    /// Queries executing at once, process-wide.
    pub max_concurrent: usize,
    /// Queries allowed to *wait* for a slot before new arrivals are shed.
    pub queue_depth: usize,
    /// How long a queued query may wait before it is shed. `0` sheds
    /// immediately whenever no slot is free.
    pub queue_wait_ms: u64,
    /// Concurrent queries allowed per session (pipelined clients).
    pub per_session_concurrent: usize,
    /// Global memory pool, in rows (the executor's budget unit).
    pub mem_pool_rows: usize,
    /// Each query's reservation from the pool — its `mem_budget`.
    pub per_query_mem_rows: usize,
    /// Default per-query logical-tick budget (`None`: no timeout).
    pub default_timeout_ticks: Option<u64>,
}

impl Default for Quotas {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Quotas {
            max_concurrent: cpus.max(2),
            queue_depth: 4 * cpus.max(2),
            queue_wait_ms: 2_000,
            per_session_concurrent: 2,
            // 4M rows across the process, 1M per query: at most four
            // queries hold a reservation at once, and an operator over its
            // reservation spills on a durable catalog.
            mem_pool_rows: 4 << 20,
            per_query_mem_rows: 1 << 20,
            default_timeout_ticks: None,
        }
    }
}

#[derive(Debug, Default)]
struct AdmState {
    running: usize,
    waiting: usize,
    mem_used: usize,
    per_session: FxHashMap<u64, usize>,
}

/// Monotonic service counters, snapshot via
/// [`AdmissionControl::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries granted a permit.
    pub admitted: u64,
    /// Arrivals shed because the wait queue was full.
    pub shed_queue_full: u64,
    /// Queued queries shed after waiting `queue_wait_ms`.
    pub shed_wait_timeout: u64,
    /// Rejections for exceeding a per-session quota.
    pub quota_rejections: u64,
}

impl AdmissionStats {
    /// Every shed, regardless of reason (excludes quota rejections).
    pub fn sheds(&self) -> u64 {
        self.shed_queue_full + self.shed_wait_timeout
    }
}

/// The admission controller. One per server; `&self` methods are
/// thread-safe.
#[derive(Debug)]
pub struct AdmissionControl {
    quotas: Quotas,
    state: Mutex<AdmState>,
    slot_freed: Condvar,
    admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_wait_timeout: AtomicU64,
    quota_rejections: AtomicU64,
}

fn poisoned() -> Error {
    Error::internal("admission lock poisoned: a holder panicked")
}

impl AdmissionControl {
    pub fn new(quotas: Quotas) -> Self {
        AdmissionControl {
            quotas,
            state: Mutex::new(AdmState::default()),
            slot_freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_wait_timeout: AtomicU64::new(0),
            quota_rejections: AtomicU64::new(0),
        }
    }

    pub fn quotas(&self) -> &Quotas {
        &self.quotas
    }

    /// Admit one query for `session`, blocking in the bounded queue if no
    /// slot is immediately free. Returns a typed error — never blocks
    /// unboundedly, never panics:
    ///
    /// * [`Error::QuotaExceeded`] — the session already runs its allowed
    ///   number of concurrent queries (checked first, and not queued: the
    ///   session's own earlier queries are the ones holding it up);
    /// * [`Error::Overloaded`] — the wait queue is full, or the query
    ///   waited `queue_wait_ms` without a slot (and memory) freeing up.
    pub fn admit(&self, session: u64) -> Result<AdmissionPermit<'_>> {
        let need = self
            .quotas
            .per_query_mem_rows
            .min(self.quotas.mem_pool_rows);
        let deadline = Instant::now() + Duration::from_millis(self.quotas.queue_wait_ms);
        let mut st = self.state.lock().map_err(|_| poisoned())?;

        if st.per_session.get(&session).copied().unwrap_or(0) >= self.quotas.per_session_concurrent
        {
            self.quota_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(Error::quota(format!(
                "session {session} already runs {} concurrent quer{} (limit {})",
                self.quotas.per_session_concurrent,
                if self.quotas.per_session_concurrent == 1 {
                    "y"
                } else {
                    "ies"
                },
                self.quotas.per_session_concurrent
            )));
        }

        let mut queued = false;
        loop {
            if st.running < self.quotas.max_concurrent
                && st.mem_used + need <= self.quotas.mem_pool_rows
            {
                break;
            }
            if !queued {
                if st.waiting >= self.quotas.queue_depth {
                    self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                    return Err(Error::overloaded(format!(
                        "shed: {} running, {} queued (queue depth {})",
                        st.running, st.waiting, self.quotas.queue_depth
                    )));
                }
                st.waiting += 1;
                queued = true;
            }
            let now = Instant::now();
            if now >= deadline {
                st.waiting -= 1;
                self.shed_wait_timeout.fetch_add(1, Ordering::Relaxed);
                return Err(Error::overloaded(format!(
                    "shed after queueing {} ms for an execution slot",
                    self.quotas.queue_wait_ms
                )));
            }
            let (g, _t) = self
                .slot_freed
                .wait_timeout(st, deadline - now)
                .map_err(|_| poisoned())?;
            st = g;
        }
        if queued {
            st.waiting -= 1;
        }
        st.running += 1;
        st.mem_used += need;
        *st.per_session.entry(session).or_insert(0) += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionPermit { control: self, session, mem_rows: need })
    }

    /// Monotonic counters so far.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_wait_timeout: self.shed_wait_timeout.load(Ordering::Relaxed),
            quota_rejections: self.quota_rejections.load(Ordering::Relaxed),
        }
    }

    /// Queries currently executing.
    pub fn running(&self) -> usize {
        self.state.lock().map(|s| s.running).unwrap_or(0)
    }

    /// Try to reserve `rows` rows of the global pool for cached results
    /// (the shared-subplan cache charges its residency here, so cached
    /// intermediates and running queries draw from the same budget).
    /// Non-blocking: a refusal means "do not cache", never "wait".
    pub fn try_reserve_cache_rows(&self, rows: usize) -> bool {
        let Ok(mut st) = self.state.lock() else {
            return false;
        };
        if st.mem_used + rows <= self.quotas.mem_pool_rows {
            st.mem_used += rows;
            true
        } else {
            false
        }
    }

    /// Return rows reserved with [`Self::try_reserve_cache_rows`] to the
    /// pool (cache eviction / clear), waking queued queries that were
    /// blocked on memory.
    pub fn release_cache_rows(&self, rows: usize) {
        if let Ok(mut st) = self.state.lock() {
            st.mem_used = st.mem_used.saturating_sub(rows);
        }
        self.slot_freed.notify_all();
    }

    fn release(&self, session: u64, mem_rows: usize) {
        if let Ok(mut st) = self.state.lock() {
            st.running = st.running.saturating_sub(1);
            st.mem_used = st.mem_used.saturating_sub(mem_rows);
            if let Some(n) = st.per_session.get_mut(&session) {
                *n -= 1;
                if *n == 0 {
                    st.per_session.remove(&session);
                }
            }
        }
        self.slot_freed.notify_all();
    }
}

/// [`decorr_exec::CacheLedger`] over the admission controller's memory
/// pool: the shared-subplan cache charges the rows it retains against
/// the same global pool running queries reserve from, so cached
/// intermediates can never oversubscribe memory the admission policy
/// promised to queries.
#[derive(Debug, Clone)]
pub struct PoolLedger(pub std::sync::Arc<AdmissionControl>);

impl decorr_exec::CacheLedger for PoolLedger {
    fn try_reserve(&self, rows: u64) -> bool {
        self.0.try_reserve_cache_rows(rows as usize)
    }

    fn release(&self, rows: u64) {
        self.0.release_cache_rows(rows as usize);
    }
}

/// An admitted query's slot + memory reservation. Dropping releases both.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    control: &'a AdmissionControl,
    session: u64,
    mem_rows: usize,
}

impl AdmissionPermit<'_> {
    /// The memory reservation, in rows — the query's
    /// [`decorr_exec::ExecOptions::mem_budget`].
    pub fn mem_rows(&self) -> usize {
        self.mem_rows
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.control.release(self.session, self.mem_rows);
    }
}
