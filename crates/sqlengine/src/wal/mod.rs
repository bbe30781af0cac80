//! Durability: write-ahead logging, checkpointing, and crash recovery.
//!
//! The engine logs *logical* redo records: one CRC-framed batch per
//! auto-commit statement (or per explicit `COMMIT`), containing the DDL and
//! row mutations that statement performed. Because replay starts from the
//! exact catalog state the checkpoint captured and runs through the same
//! `Table` mutation code paths, row indexes inside the records are
//! deterministic and the recovered state is bit-identical to the state the
//! original process had after the last durable batch.
//!
//! Invariants:
//!
//! * WAL order equals catalog mutation order — every append happens while
//!   the writer still holds the catalog write lock.
//! * A batch is logged only for mutations that actually happened; a
//!   statement that fails halfway logs exactly its applied prefix.
//! * Recovery never fails on a torn tail: the log is truncated at the first
//!   record that does not parse or does not carry the expected sequence
//!   number. Corruption *behind* a valid record cannot be detected (CRCs are
//!   per-record), which is the standard WAL contract.
//! * A checkpoint at sequence `S` makes every frame with `seq < S`
//!   redundant; recovery skips them, which makes a crash between checkpoint
//!   publication and WAL truncation harmless.
//!
//! Fault handling on the write path: if an append fails (torn or not), the
//! WAL truncates itself back to the last durable length so the tear cannot
//! poison later records. If even that repair fails, the log is *wedged* —
//! all further durable mutations are refused with a clean error while
//! reads keep working.
//!
//! Group commit (`EngineConfig::wal_group_commit`, effective under
//! [`SyncPolicy::Always`]): instead of appending + fsyncing inline, a
//! statement *enqueues* its encoded frame under the catalog lock (so queue
//! order still equals mutation order) and receives a sequence ticket; after
//! releasing the lock it blocks in `Wal::wait_durable`, where the first
//! waiter becomes the flush leader and writes every queued frame with a
//! single append + fsync. Overlapping writers therefore share one fsync,
//! while strictly serial traffic degenerates to exactly today's one fsync
//! per statement. Acknowledgement semantics are unchanged: a statement
//! returns only after its frame is on disk, and a crash loses only
//! unacknowledged tail frames — never a prefix-breaking hole, because
//! frames reach the file in sequence order as one contiguous group.

mod checkpoint;
mod codec;
mod storage;

pub use codec::{crc32, frame_boundaries};
pub use storage::{FaultKind, FaultyIo, FileIo, MemIo, StorageIo};

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::catalog::{Catalog, Column, Schema, Table};
use crate::error::{EngineError, Result};
use crate::exec::check_deadline;
use crate::sync::Mutex;
use crate::trace::{AttrValue, TraceScope, WaitClass};
use crate::value::{DataType, Row};

/// WAL file name inside the storage root.
pub const WAL_FILE: &str = "wal.log";
/// Checkpoint file name inside the storage root.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

/// Bounded retry policy for WAL append/fsync failures
/// (`EngineConfig::wal_retry`).
///
/// A transient disk hiccup (the model [`FaultyIo::arm_transient`] injects)
/// fails an operation cleanly; with `attempts > 1` the WAL repairs the file
/// back to the last durable length and retries up to `attempts` total times,
/// sleeping `backoff * attempt_number` between tries (deterministic linear
/// backoff — no jitter, so tests reproduce exactly). The default is a single
/// attempt (no retry), preserving fail-fast semantics for fault-injection
/// tests and callers that do their own retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRetry {
    /// Total attempts per logical write (1 = no retry).
    pub attempts: u32,
    /// Base sleep between attempts; attempt `n` sleeps `backoff * n`.
    pub backoff: Duration,
}

impl Default for WalRetry {
    fn default() -> Self {
        WalRetry {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// When the log is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Fsync after every record batch (every auto-commit statement and
    /// every `COMMIT`). Strongest guarantee, slowest writes.
    Always,
    /// Fsync only on explicit `COMMIT` (and on checkpoints). A power loss
    /// may drop recent auto-commit statements, but acknowledged
    /// transactions survive and the log is never left inconsistent.
    #[default]
    OnCommit,
    /// Never fsync; durability is delegated to the OS page cache. Survives
    /// process crashes, not power loss.
    Never,
}

/// One logical redo operation. Rows are recorded exactly as the statement
/// submitted them (pre-coercion); replay runs them through the same
/// `Table::insert_row` / `replace_row` / `delete_rows` / `create_index`
/// code as the original execution, so coercion and index maintenance are
/// reapplied deterministically.
#[derive(Debug, Clone)]
pub(crate) enum WalOp {
    CreateTable {
        name: String,
        columns: Vec<(String, DataType)>,
        primary_key: Vec<String>,
    },
    DropTable {
        name: String,
    },
    CreateIndex {
        table: String,
        name: String,
        columns: Vec<String>,
        unique: bool,
    },
    Insert {
        table: String,
        rows: Vec<Row>,
    },
    Replace {
        table: String,
        idx: u64,
        row: Row,
    },
    Delete {
        table: String,
        idxs: Vec<u64>,
    },
}

struct WalInner {
    /// Sequence number the next batch will carry.
    next_seq: u64,
    /// Bytes of the WAL file known to be fully written (the repair target
    /// after a torn append).
    wal_len: u64,
    /// Buffered ops while an explicit transaction is open; flushed as one
    /// batch at `COMMIT`, discarded at `ROLLBACK`.
    pending: Option<Vec<WalOp>>,
    /// Set (with the cause) when a failed append could not be repaired; all
    /// further durable mutations are refused while reads keep serving —
    /// degraded read-only mode.
    wedged: Option<String>,
    /// Group-commit mode only: encoded frames (whole, in sequence order)
    /// enqueued for the next leader flush.
    group_queue: Vec<u8>,
    /// Byte length of each queued frame, for per-frame append telemetry at
    /// flush time.
    group_lens: Vec<u64>,
}

/// The write-ahead log attached to a durable [`Database`].
///
/// [`Database`]: crate::Database
pub struct Wal {
    io: Arc<dyn StorageIo>,
    sync: SyncPolicy,
    /// Checkpoint once the log exceeds this many bytes (0 disables the
    /// automatic trigger).
    checkpoint_after: u64,
    /// Group commit: `log`/`commit` enqueue their frame and hand back a
    /// ticket; [`Wal::wait_durable`] elects a flush leader that writes the
    /// whole queue with one append + one fsync. Only effective under
    /// [`SyncPolicy::Always`].
    group_commit: bool,
    /// Bounded retry policy for transient append/fsync failures.
    retry: WalRetry,
    inner: Mutex<WalInner>,
    /// Every frame with `seq < durable_before` is appended and fsynced.
    /// The fast path of [`Wal::wait_durable`] reads this without a lock.
    durable_before: std::sync::atomic::AtomicU64,
    /// Serializes group flushes (leader election). Lock order: `flush_lock`
    /// before `inner`, never the reverse; IO happens with only `flush_lock`
    /// held so writers keep enqueueing into the next group meanwhile.
    flush_lock: Mutex<()>,
    /// Engine-wide registry for append / fsync / checkpoint metrics.
    telemetry: Arc<crate::telemetry::Telemetry>,
}

impl Wal {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        io: Arc<dyn StorageIo>,
        sync: SyncPolicy,
        group_commit: bool,
        checkpoint_after: u64,
        retry: WalRetry,
        next_seq: u64,
        wal_len: u64,
        telemetry: Arc<crate::telemetry::Telemetry>,
    ) -> Wal {
        Wal {
            io,
            sync,
            group_commit: group_commit && sync == SyncPolicy::Always,
            checkpoint_after,
            retry: WalRetry {
                attempts: retry.attempts.max(1),
                backoff: retry.backoff,
            },
            inner: Mutex::new(WalInner {
                next_seq,
                wal_len,
                pending: None,
                wedged: None,
                group_queue: Vec::new(),
                group_lens: Vec::new(),
            }),
            durable_before: std::sync::atomic::AtomicU64::new(next_seq),
            flush_lock: Mutex::new(()),
            telemetry,
        }
    }

    /// Record the ops of one statement. Outside a transaction this writes
    /// (and per policy fsyncs) one batch immediately; inside a transaction
    /// the ops are buffered until `COMMIT`. Callers must still hold the
    /// catalog write lock, which is what keeps log order equal to catalog
    /// mutation order.
    ///
    /// In group-commit mode the frame is only *enqueued* here; the returned
    /// ticket must be passed to [`Wal::wait_durable`] after the catalog lock
    /// drops, and the statement is acknowledged only once that returns.
    /// `None` means the write is already as durable as the sync policy
    /// promises (or nothing needed writing).
    #[cfg_attr(not(test), allow(dead_code))] // untraced convenience used by the test suites
    pub(crate) fn log(
        &self,
        catalog: &Catalog,
        ops: Vec<WalOp>,
        deadline: Option<Instant>,
    ) -> Result<Option<u64>> {
        self.log_traced(catalog, ops, deadline, None)
    }

    /// [`Wal::log`] with an optional trace scope: WAL spans (inline fsync,
    /// retry backoff) recorded while writing parent under the statement's
    /// exec span.
    pub(crate) fn log_traced(
        &self,
        catalog: &Catalog,
        ops: Vec<WalOp>,
        deadline: Option<Instant>,
        trace: Option<&TraceScope<'_>>,
    ) -> Result<Option<u64>> {
        if ops.is_empty() {
            return Ok(None);
        }
        let mut inner = self.inner.lock();
        if let Some(pending) = &mut inner.pending {
            pending.extend(ops);
            return Ok(None);
        }
        let ticket = self.write_batch(&mut inner, &ops, false, deadline, trace)?;
        if ticket.is_none() {
            self.maybe_checkpoint(&mut inner, catalog)?;
        }
        Ok(ticket)
    }

    /// Start buffering: called at `BEGIN`.
    pub(crate) fn begin(&self) {
        let mut inner = self.inner.lock();
        if inner.pending.is_none() {
            inner.pending = Some(Vec::new());
        }
    }

    /// Flush the buffered transaction as a single batch: called at `COMMIT`.
    /// Returns a group-commit ticket like [`Wal::log`]; the optional trace
    /// scope works as in [`Wal::log_traced`].
    pub(crate) fn commit_traced(
        &self,
        catalog: &Catalog,
        deadline: Option<Instant>,
        trace: Option<&TraceScope<'_>>,
    ) -> Result<Option<u64>> {
        let mut inner = self.inner.lock();
        let Some(ops) = inner.pending.take() else {
            return Ok(None);
        };
        if ops.is_empty() {
            return Ok(None);
        }
        let ticket = self.write_batch(&mut inner, &ops, true, deadline, trace)?;
        if ticket.is_none() {
            self.maybe_checkpoint(&mut inner, catalog)?;
        }
        Ok(ticket)
    }

    /// Discard the buffered transaction: called at `ROLLBACK`. Nothing was
    /// written since `BEGIN`, so the durable state already equals the
    /// restored in-memory state.
    pub(crate) fn rollback(&self) {
        self.inner.lock().pending = None;
    }

    /// Fold the current catalog into a checkpoint and truncate the log.
    pub(crate) fn checkpoint(&self, catalog: &Catalog) -> Result<()> {
        // A group flush in flight must finish before the file is truncated
        // out from under it (lock order: flush_lock before inner).
        let _flush = self.group_commit.then(|| self.flush_lock.lock());
        let mut inner = self.inner.lock();
        self.checkpoint_locked(&mut inner, catalog)
    }

    /// Bytes currently in the WAL file (diagnostics / tests).
    pub(crate) fn wal_bytes(&self) -> u64 {
        self.inner.lock().wal_len
    }

    /// Whether the automatic checkpoint trigger has tripped. Group-commit
    /// callers check this after [`Wal::wait_durable`], once they can take
    /// the catalog lock again (the non-group path checkpoints inline).
    pub(crate) fn wants_checkpoint(&self) -> bool {
        self.checkpoint_after > 0 && self.inner.lock().wal_len >= self.checkpoint_after
    }

    /// Whether the log is wedged: degraded read-only mode, writes refused
    /// with the wedge cause while reads keep serving.
    pub(crate) fn degraded(&self) -> bool {
        self.inner.lock().wedged.is_some()
    }

    /// Fail fast when the log is wedged. Write statements call this
    /// *before* mutating the in-memory catalog, so degraded read-only mode
    /// refuses the whole statement instead of applying a change that could
    /// never become durable.
    pub(crate) fn check_writable(&self) -> Result<()> {
        match &self.inner.lock().wedged {
            Some(cause) => Err(Self::wedged_error(cause)),
            None => Ok(()),
        }
    }

    /// The error every durable mutation returns while the log is wedged.
    /// Classified as retryable ([`EngineError::Wal`]): a reopened database
    /// recovers and can serve the same statement.
    fn wedged_error(cause: &str) -> EngineError {
        EngineError::wal(format!(
            "write-ahead log is wedged ({cause}); degraded read-only mode — \
             reads keep serving, reopen the database to recover writes"
        ))
    }

    /// Block until frame `seq` is durable. The first waiter becomes the
    /// flush leader and writes the *entire* queue with one append + one
    /// fsync; waiters that arrive while a flush is in flight coalesce into
    /// the next group. Callers must not hold the catalog lock — blocking
    /// here while holding it would serialize the writers whose overlap the
    /// group exists to exploit.
    ///
    /// With a `deadline`, the wait is bounded: a waiter that cannot become
    /// leader (or finish as one) before the deadline returns
    /// [`EngineError::Timeout`]. Its frame stays queued — the next leader
    /// flushes it — and the statement is *not* acknowledged, so timing out
    /// here never loses an acked commit.
    #[cfg_attr(not(test), allow(dead_code))] // untraced convenience used by the test suites
    pub(crate) fn wait_durable(&self, seq: u64, deadline: Option<Instant>) -> Result<()> {
        self.wait_durable_traced(seq, deadline, None)
    }

    /// [`Wal::wait_durable`] with an optional trace scope. When the fast
    /// path misses (the frame is not yet durable), the whole wait is rolled
    /// up into the `fsync` wait class and — when traced — recorded as a
    /// `wal.fsync_wait` span attributed with the role this statement played
    /// (`leader` flushed the group itself; `follower` waited on another
    /// statement's flush). The fast path stays clock-free.
    pub(crate) fn wait_durable_traced(
        &self,
        seq: u64,
        deadline: Option<Instant>,
        trace: Option<&TraceScope<'_>>,
    ) -> Result<()> {
        use std::sync::atomic::Ordering;
        if self.durable_before.load(Ordering::Acquire) > seq {
            return Ok(());
        }
        let waited_from = (self.telemetry.enabled() || trace.is_some()).then(Instant::now);
        let mut led = false;
        let result = self.wait_durable_slow(seq, deadline, trace, &mut led);
        if let Some(from) = waited_from {
            if self.telemetry.enabled() {
                self.telemetry.wait_fsync_us.record(from.elapsed());
            }
            if let Some(scope) = trace {
                let role = if led { "leader" } else { "follower" };
                scope.record_wait(
                    "wal.fsync_wait",
                    WaitClass::Fsync,
                    from,
                    vec![("role", AttrValue::Text(role))],
                );
            }
        }
        result
    }

    fn wait_durable_slow(
        &self,
        seq: u64,
        deadline: Option<Instant>,
        trace: Option<&TraceScope<'_>>,
        led: &mut bool,
    ) -> Result<()> {
        use std::sync::atomic::Ordering;
        let Some(dl) = deadline else {
            // No deadline: block on the leader lock directly (the hot
            // serving path — no polling overhead).
            loop {
                if self.durable_before.load(Ordering::Acquire) > seq {
                    return Ok(());
                }
                let _leader = self.flush_lock.lock();
                if self.durable_before.load(Ordering::Acquire) > seq {
                    continue; // re-check via the fast path, then return
                }
                *led = true;
                self.flush_group(None, trace)?;
            }
        };
        loop {
            if self.durable_before.load(Ordering::Acquire) > seq {
                return Ok(());
            }
            check_deadline(Some(dl))?;
            match self.flush_lock.try_lock() {
                Some(_leader) => {
                    if self.durable_before.load(Ordering::Acquire) > seq {
                        continue;
                    }
                    *led = true;
                    self.flush_group(Some(dl), trace)?;
                }
                // Another leader is flushing; poll instead of blocking
                // unboundedly behind its IO.
                None => std::thread::sleep(Duration::from_micros(50)),
            }
        }
    }

    /// Write the queued group to storage: one append + one fsync for every
    /// frame enqueued so far, retried per [`WalRetry`] with truncate-repair
    /// between attempts. Caller holds `flush_lock`. The fsync itself feeds
    /// only the `wal_fsync` latency histogram — the leader's *wait* is
    /// already rolled up by [`Wal::wait_durable_traced`], so recording it
    /// here too would double-count.
    fn flush_group(&self, deadline: Option<Instant>, trace: Option<&TraceScope<'_>>) -> Result<()> {
        use std::sync::atomic::Ordering;
        // Steal the queue under a brief inner lock; IO runs without it.
        let (bytes, lens, hi, base_len) = {
            let mut inner = self.inner.lock();
            if let Some(cause) = &inner.wedged {
                return Err(Self::wedged_error(cause));
            }
            if inner.group_queue.is_empty() {
                // Nothing left to write (a checkpoint folded the queue).
                self.durable_before.store(inner.next_seq, Ordering::Release);
                return Ok(());
            }
            (
                std::mem::take(&mut inner.group_queue),
                std::mem::take(&mut inner.group_lens),
                inner.next_seq,
                inner.wal_len,
            )
        };
        let mut attempt = 1u32;
        let err = loop {
            let io_result = self.io.append(WAL_FILE, &bytes).and_then(|()| {
                let sync_started = self.telemetry.enabled().then(std::time::Instant::now);
                self.io.sync(WAL_FILE)?;
                if let Some(t) = sync_started {
                    self.telemetry.record_wal_fsync(t.elapsed());
                }
                Ok(())
            });
            match io_result {
                Ok(()) => {
                    let mut inner = self.inner.lock();
                    inner.wal_len = base_len + bytes.len() as u64;
                    for len in lens {
                        self.telemetry.record_wal_append(len);
                    }
                    self.durable_before.store(hi, Ordering::Release);
                    return Ok(());
                }
                Err(e) => {
                    // Cut any torn bytes off the file before deciding what
                    // comes next; an unrepairable file wedges the log.
                    if self.io.truncate(WAL_FILE, base_len).is_err() {
                        self.inner.lock().wedged =
                            Some("group flush failed and truncate repair also failed".into());
                        break e;
                    }
                    let expired = deadline.is_some_and(|d| Instant::now() >= d);
                    if attempt >= self.retry.attempts || expired {
                        break e;
                    }
                    self.telemetry.wal_retries.incr();
                    let slept_from =
                        (self.telemetry.enabled() || trace.is_some()).then(Instant::now);
                    std::thread::sleep(self.retry.backoff * attempt);
                    if let Some(from) = slept_from {
                        self.record_retry_wait(from, attempt, trace);
                    }
                    attempt += 1;
                }
            }
        };
        // Retries exhausted (or the repair wedged the log): put the group
        // back at the *front* of the queue — dropping it would leave a
        // sequence gap that recovery (rightly) treats as the end of the
        // log, silently discarding every later commit.
        let mut inner = self.inner.lock();
        if inner.wedged.is_none() {
            let mut requeued = bytes;
            requeued.extend_from_slice(&inner.group_queue);
            inner.group_queue = requeued;
            let mut relens = lens;
            relens.extend_from_slice(&inner.group_lens);
            inner.group_lens = relens;
        }
        Err(err)
    }

    /// Record one WAL retry backoff sleep into the `wal_retry` wait-class
    /// rollup and (when traced) as a `wal.retry` span.
    fn record_retry_wait(&self, from: Instant, attempt: u32, trace: Option<&TraceScope<'_>>) {
        if self.telemetry.enabled() {
            self.telemetry.wait_wal_retry_us.record(from.elapsed());
        }
        if let Some(scope) = trace {
            scope.record_wait(
                "wal.retry",
                WaitClass::WalRetry,
                from,
                vec![("attempt", AttrValue::Int(i64::from(attempt)))],
            );
        }
    }

    fn write_batch(
        &self,
        inner: &mut WalInner,
        ops: &[WalOp],
        is_commit: bool,
        deadline: Option<Instant>,
        trace: Option<&TraceScope<'_>>,
    ) -> Result<Option<u64>> {
        if let Some(cause) = &inner.wedged {
            return Err(Self::wedged_error(cause));
        }
        let frame = codec::encode_batch(inner.next_seq, ops);
        if self.group_commit {
            // Enqueue under the catalog write lock (held by the caller),
            // which keeps queue order equal to catalog mutation order; the
            // append + fsync happen in `wait_durable` after the lock drops.
            let seq = inner.next_seq;
            inner.group_lens.push(frame.len() as u64);
            inner.group_queue.extend_from_slice(&frame);
            inner.next_seq += 1;
            return Ok(Some(seq));
        }
        let want_sync = match self.sync {
            SyncPolicy::Always => true,
            SyncPolicy::OnCommit => is_commit,
            SyncPolicy::Never => false,
        };
        let mut attempt = 1u32;
        loop {
            let io_result = self.io.append(WAL_FILE, &frame).and_then(|()| {
                if !want_sync {
                    return Ok(());
                }
                let sync_started =
                    (self.telemetry.enabled() || trace.is_some()).then(std::time::Instant::now);
                self.io.sync(WAL_FILE)?;
                if let Some(t) = sync_started {
                    let took = t.elapsed();
                    if self.telemetry.enabled() {
                        self.telemetry.record_wal_fsync(took);
                        self.telemetry.wait_fsync_us.record(took);
                    }
                    if let Some(scope) = trace {
                        scope.record_wait(
                            "wal.fsync",
                            WaitClass::Fsync,
                            t,
                            vec![("role", AttrValue::Text("inline"))],
                        );
                    }
                }
                Ok(())
            });
            match io_result {
                Ok(()) => break,
                Err(e) => {
                    // A torn append (or an appended-but-unsynced frame)
                    // would make bookkeeping and file disagree; cut the
                    // file back to the last durable length.
                    if self.io.truncate(WAL_FILE, inner.wal_len).is_err() {
                        inner.wedged = Some("write failed and truncate repair also failed".into());
                        return Err(e);
                    }
                    let expired = deadline.is_some_and(|d| Instant::now() >= d);
                    if attempt >= self.retry.attempts || expired {
                        return Err(e);
                    }
                    self.telemetry.wal_retries.incr();
                    let slept_from =
                        (self.telemetry.enabled() || trace.is_some()).then(Instant::now);
                    std::thread::sleep(self.retry.backoff * attempt);
                    if let Some(from) = slept_from {
                        self.record_retry_wait(from, attempt, trace);
                    }
                    attempt += 1;
                }
            }
        }
        inner.next_seq += 1;
        inner.wal_len += frame.len() as u64;
        self.telemetry.record_wal_append(frame.len() as u64);
        Ok(None)
    }

    fn maybe_checkpoint(&self, inner: &mut WalInner, catalog: &Catalog) -> Result<()> {
        if self.checkpoint_after > 0 && inner.wal_len >= self.checkpoint_after {
            self.checkpoint_locked(inner, catalog)?;
        }
        Ok(())
    }

    fn checkpoint_locked(&self, inner: &mut WalInner, catalog: &Catalog) -> Result<()> {
        if let Some(cause) = &inner.wedged {
            return Err(Self::wedged_error(cause));
        }
        let json = checkpoint::encode_checkpoint(catalog, inner.next_seq);
        // Publication point: after this rename, every WAL frame below
        // next_seq is redundant (recovery skips them), so a crash before
        // the truncate below loses nothing.
        self.io.write_atomic(CHECKPOINT_FILE, json.as_bytes())?;
        if self.io.truncate(WAL_FILE, 0).is_err() {
            // The checkpoint is durable; stale frames are skipped by seq on
            // recovery. But our length bookkeeping no longer matches the
            // file, so refuse further writes rather than risk mis-repair.
            inner.wedged = Some("checkpoint written but WAL truncation failed".into());
            return Err(EngineError::wal(
                "checkpoint written but WAL truncation failed; reopen to recover",
            ));
        }
        inner.wal_len = 0;
        if self.group_commit {
            // Frames still queued are covered by the checkpoint — their
            // catalog mutations are part of the snapshot just published, and
            // it was written at `next_seq`, above every queued frame. Drop
            // them and acknowledge their waiting committers.
            inner.group_queue.clear();
            inner.group_lens.clear();
            self.durable_before
                .store(inner.next_seq, std::sync::atomic::Ordering::Release);
        }
        self.telemetry.record_wal_checkpoint(json.len() as u64);
        Ok(())
    }
}

/// Everything recovery reconstructs from storage.
pub(crate) struct Recovered {
    pub catalog: Catalog,
    pub next_seq: u64,
    pub wal_len: u64,
}

/// Load the latest checkpoint and replay the WAL on top of it, truncating
/// the log at the first torn or corrupt record. Never fails on a damaged
/// *tail*; fails only if storage itself errors or the checkpoint (which is
/// written atomically) is unreadable.
pub(crate) fn recover(io: &dyn StorageIo) -> Result<Recovered> {
    let (checkpoint_seq, mut catalog) = match io.read(CHECKPOINT_FILE)? {
        Some(bytes) => {
            let json = std::str::from_utf8(&bytes)
                .map_err(|_| EngineError::wal("corrupt checkpoint: invalid UTF-8"))?;
            checkpoint::decode_checkpoint(json)?
        }
        None => (0, Catalog::new()),
    };

    let wal = io.read(WAL_FILE)?.unwrap_or_default();
    let mut pos = 0usize;
    let mut valid_len = 0usize;
    let mut next_seq = checkpoint_seq;
    while let Some(frame) = codec::next_frame(&wal, pos) {
        if frame.seq < checkpoint_seq {
            // Already folded into the checkpoint (crash between checkpoint
            // publication and WAL truncation).
            pos = frame.end;
            valid_len = frame.end;
            continue;
        }
        if frame.seq != next_seq {
            // A sequence gap means the bytes here are stale or misplaced;
            // nothing after them can be trusted.
            break;
        }
        // Apply on a scratch clone so a batch that fails mid-way (which
        // recovery treats as corruption) leaves the catalog at the previous
        // batch boundary — recovered states are always commit-consistent.
        let mut scratch = catalog.clone();
        let ok = frame
            .ops
            .iter()
            .all(|op| apply_op(&mut scratch, op).is_ok());
        if !ok {
            break;
        }
        catalog = scratch;
        next_seq = frame.seq + 1;
        pos = frame.end;
        valid_len = frame.end;
    }
    if (valid_len as u64) < wal.len() as u64 {
        io.truncate(WAL_FILE, valid_len as u64)?;
    }
    Ok(Recovered {
        catalog,
        next_seq,
        wal_len: valid_len as u64,
    })
}

/// Apply one redo op to a catalog, through the same code paths the original
/// statement used.
pub(crate) fn apply_op(catalog: &mut Catalog, op: &WalOp) -> Result<()> {
    match op {
        WalOp::CreateTable {
            name,
            columns,
            primary_key,
        } => {
            let schema = Schema::new(
                columns
                    .iter()
                    .map(|(name, ty)| Column {
                        name: name.clone(),
                        ty: *ty,
                    })
                    .collect(),
            );
            let table = Table::new(name.clone(), schema, primary_key)?;
            catalog.create_table(table, false)?;
        }
        WalOp::DropTable { name } => {
            catalog.drop_table(name, false)?;
        }
        WalOp::CreateIndex {
            table,
            name,
            columns,
            unique,
        } => {
            catalog
                .get_mut(table)?
                .create_index(name, columns, *unique)?;
        }
        WalOp::Insert { table, rows } => {
            let t = catalog.get_mut(table)?;
            for row in rows {
                t.insert_row(row.clone(), None)?;
            }
        }
        WalOp::Replace { table, idx, row } => {
            let t = catalog.get_mut(table)?;
            let idx = *idx as usize;
            if idx >= t.row_count() {
                return Err(EngineError::wal("replace index out of range"));
            }
            t.replace_row(idx, row.clone())?;
        }
        WalOp::Delete { table, idxs } => {
            let t = catalog.get_mut(table)?;
            let n = t.row_count() as u64;
            if idxs.iter().any(|&i| i >= n) {
                return Err(EngineError::wal("delete index out of range"));
            }
            t.delete_rows(idxs.iter().map(|&i| i as usize).collect())?;
        }
    }
    Ok(())
}

/// Append a freshly inserted row to `ops`, merging into a trailing
/// [`WalOp::Insert`] for the same table so bulk loads stay one op. Merging
/// only the *adjacent* op preserves ordering against interleaved
/// replace/delete ops.
pub(crate) fn push_insert(ops: &mut Vec<WalOp>, table: &str, row: Row) {
    if let Some(WalOp::Insert { table: t, rows }) = ops.last_mut() {
        if t == table {
            rows.push(row);
            return;
        }
    }
    ops.push(WalOp::Insert {
        table: table.to_string(),
        rows: vec![row],
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn io_with_ops(batches: &[Vec<WalOp>]) -> MemIo {
        let io = MemIo::new();
        for (seq, ops) in batches.iter().enumerate() {
            io.append(WAL_FILE, &codec::encode_batch(seq as u64, ops))
                .unwrap();
        }
        io.sync(WAL_FILE).unwrap();
        io
    }

    fn create_t() -> WalOp {
        WalOp::CreateTable {
            name: "t".into(),
            columns: vec![
                ("id".into(), DataType::Integer),
                ("v".into(), DataType::Text),
            ],
            primary_key: vec!["id".into()],
        }
    }

    fn insert_t(id: i64) -> WalOp {
        WalOp::Insert {
            table: "t".into(),
            rows: vec![vec![Value::Int(id), Value::text(format!("v{id}"))]],
        }
    }

    #[test]
    fn recover_replays_in_order() {
        let io = io_with_ops(&[vec![create_t()], vec![insert_t(1)], vec![insert_t(2)]]);
        let r = recover(&io).unwrap();
        assert_eq!(r.next_seq, 3);
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 2);
        assert_eq!(r.wal_len, io.size(WAL_FILE).unwrap());
    }

    #[test]
    fn recover_truncates_torn_tail() {
        let io = io_with_ops(&[vec![create_t()], vec![insert_t(1)]]);
        // Tear the log mid-way through a third record.
        let frame = codec::encode_batch(2, &[insert_t(2)]);
        io.append(WAL_FILE, &frame[..frame.len() - 3]).unwrap();
        let before = io.size(WAL_FILE).unwrap();
        let r = recover(&io).unwrap();
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 1);
        assert_eq!(r.next_seq, 2);
        let after = io.size(WAL_FILE).unwrap();
        assert!(after < before, "torn tail must be truncated");
        assert_eq!(after, r.wal_len);
        // The truncated log now recovers cleanly and can be appended to.
        io.append(WAL_FILE, &codec::encode_batch(2, &[insert_t(2)]))
            .unwrap();
        let r2 = recover(&io).unwrap();
        assert_eq!(r2.catalog.get("t").unwrap().row_count(), 2);
    }

    #[test]
    fn recover_skips_frames_behind_checkpoint() {
        // Simulate a crash between checkpoint publication and truncation:
        // the checkpoint covers seq < 2 but the log still has seqs 0..3.
        let io = io_with_ops(&[vec![create_t()], vec![insert_t(1)], vec![insert_t(2)]]);
        let mut catalog = Catalog::new();
        apply_op(&mut catalog, &create_t()).unwrap();
        apply_op(&mut catalog, &insert_t(1)).unwrap();
        io.write_atomic(
            CHECKPOINT_FILE,
            checkpoint::encode_checkpoint(&catalog, 2).as_bytes(),
        )
        .unwrap();
        let r = recover(&io).unwrap();
        // seq 0 and 1 skipped (already in the checkpoint), seq 2 applied.
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 2);
        assert_eq!(r.next_seq, 3);
    }

    #[test]
    fn recover_stops_at_sequence_gap() {
        let io = MemIo::new();
        io.append(WAL_FILE, &codec::encode_batch(0, &[create_t()]))
            .unwrap();
        io.append(WAL_FILE, &codec::encode_batch(5, &[insert_t(1)]))
            .unwrap();
        let r = recover(&io).unwrap();
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 0);
        assert_eq!(r.next_seq, 1);
        // The gap frame was truncated away.
        assert_eq!(io.size(WAL_FILE).unwrap(), r.wal_len);
        let bounds = frame_boundaries(&io.read(WAL_FILE).unwrap().unwrap());
        assert_eq!(bounds.len(), 1);
    }

    #[test]
    fn recover_treats_unappliable_batch_as_corruption() {
        // Second batch inserts a duplicate primary key — it can never have
        // been produced by a healthy run, so recovery stops before it and
        // keeps the first batch's state.
        let io = io_with_ops(&[vec![create_t(), insert_t(1)], vec![insert_t(1)]]);
        let r = recover(&io).unwrap();
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 1);
        assert_eq!(r.next_seq, 1);
        // A batch that fails mid-way leaves no partial effects: batch 2
        // below applies one good row then conflicts, and the good row must
        // not leak into the recovered state.
        let io = io_with_ops(&[
            vec![create_t(), insert_t(1)],
            vec![insert_t(2), insert_t(2)],
        ]);
        let r = recover(&io).unwrap();
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 1);
    }

    fn plain_wal(io: Arc<dyn StorageIo>, retry: WalRetry) -> Wal {
        Wal::new(
            io,
            SyncPolicy::Always,
            false,
            0,
            retry,
            0,
            0,
            Arc::new(crate::telemetry::Telemetry::disabled()),
        )
    }

    #[test]
    fn wal_append_failure_repairs_to_last_durable_length() {
        let io = Arc::new(FaultyIo::new());
        let wal = plain_wal(Arc::clone(&io) as Arc<dyn StorageIo>, WalRetry::default());
        let catalog = Catalog::new();
        wal.log(&catalog, vec![create_t()], None).unwrap();
        let len_before = io.size(WAL_FILE).unwrap();

        // Torn append: 5 bytes land, then the write errors. (`arm` resets
        // the write counter, so index 0 is the very next write.)
        io.arm(0, FaultKind::ShortWrite(5));
        let err = wal.log(&catalog, vec![insert_t(1)], None).unwrap_err();
        assert!(matches!(err, EngineError::Wal(_)));
        assert_eq!(
            io.size(WAL_FILE).unwrap(),
            len_before,
            "torn bytes must be truncated away"
        );

        // The log still works afterwards.
        wal.log(&catalog, vec![insert_t(1)], None).unwrap();
        let r = recover(io.as_ref()).unwrap();
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 1);
    }

    #[test]
    fn wal_retry_rides_out_transient_faults() {
        let io = Arc::new(FaultyIo::new());
        let wal = plain_wal(
            Arc::clone(&io) as Arc<dyn StorageIo>,
            WalRetry {
                attempts: 4,
                backoff: Duration::ZERO,
            },
        );
        let catalog = Catalog::new();
        // The next 3 operations fail (append, retried append, its fsync...),
        // then the backend heals: a 4-attempt policy must succeed without
        // surfacing an error.
        io.arm_transient(3);
        wal.log(&catalog, vec![create_t()], None).unwrap();
        assert_eq!(io.transient_fired(), 3);
        let r = recover(io.as_ref()).unwrap();
        assert!(r.catalog.get("t").is_ok());
    }

    #[test]
    fn wal_retry_exhaustion_still_repairs_and_recovers() {
        let io = Arc::new(FaultyIo::new());
        let wal = plain_wal(
            Arc::clone(&io) as Arc<dyn StorageIo>,
            WalRetry {
                attempts: 2,
                backoff: Duration::ZERO,
            },
        );
        let catalog = Catalog::new();
        wal.log(&catalog, vec![create_t()], None).unwrap();
        let len_before = io.size(WAL_FILE).unwrap();
        io.arm_transient(10); // outlives the 2-attempt policy
        let err = wal.log(&catalog, vec![insert_t(1)], None).unwrap_err();
        assert!(matches!(err, EngineError::Wal(_)));
        assert!(err.is_retryable());
        assert_eq!(io.size(WAL_FILE).unwrap(), len_before);
        assert!(!wal.degraded(), "truncate repair succeeded — not wedged");
        // Heal (disarm the remaining failures) and confirm the log works.
        io.arm_transient(0);
        wal.log(&catalog, vec![insert_t(1)], None).unwrap();
        let r = recover(io.as_ref()).unwrap();
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 1);
    }

    fn group_wal(io: Arc<dyn StorageIo>) -> Wal {
        Wal::new(
            io,
            SyncPolicy::Always,
            true,
            0,
            WalRetry::default(),
            0,
            0,
            Arc::new(crate::telemetry::Telemetry::disabled()),
        )
    }

    #[test]
    fn group_commit_coalesces_queued_frames_into_one_flush() {
        let io = Arc::new(MemIo::new());
        let wal = group_wal(Arc::clone(&io) as Arc<dyn StorageIo>);
        let catalog = Catalog::new();
        let t1 = wal.log(&catalog, vec![create_t()], None).unwrap().unwrap();
        let t2 = wal.log(&catalog, vec![insert_t(1)], None).unwrap().unwrap();
        assert_eq!((t1, t2), (0, 1));
        // Nothing reaches storage until a waiter drives the flush.
        assert_eq!(io.size(WAL_FILE).unwrap(), 0);
        wal.wait_durable(t2, None).unwrap();
        let bytes = io.read(WAL_FILE).unwrap().unwrap();
        assert_eq!(frame_boundaries(&bytes).len(), 2);
        assert_eq!(wal.wal_bytes(), bytes.len() as u64);
        // The earlier ticket is durable too, without further IO.
        wal.wait_durable(t1, None).unwrap();
        let r = recover(io.as_ref()).unwrap();
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 1);
        assert_eq!(r.next_seq, 2);
    }

    #[test]
    fn group_commit_flush_failure_requeues_whole_group() {
        let io = Arc::new(FaultyIo::new());
        let wal = group_wal(Arc::clone(&io) as Arc<dyn StorageIo>);
        let catalog = Catalog::new();
        let t1 = wal.log(&catalog, vec![create_t()], None).unwrap().unwrap();
        let t2 = wal.log(&catalog, vec![insert_t(1)], None).unwrap().unwrap();
        // Tear the group append mid-way; the leader must repair the file
        // and keep both frames queued (dropping them would leave a
        // recovery-fatal sequence gap for any later commit).
        io.arm(0, FaultKind::ShortWrite(7));
        let err = wal.wait_durable(t2, None).unwrap_err();
        assert!(matches!(err, EngineError::Wal(_)));
        assert_eq!(io.size(WAL_FILE).unwrap(), 0, "torn group truncated away");
        // A retry flushes the requeued group in order.
        wal.wait_durable(t1, None).unwrap();
        wal.wait_durable(t2, None).unwrap();
        let r = recover(io.as_ref()).unwrap();
        assert_eq!(r.catalog.get("t").unwrap().row_count(), 1);
        assert_eq!(r.next_seq, 2);
    }

    #[test]
    fn group_commit_checkpoint_covers_queued_frames() {
        let io = Arc::new(MemIo::new());
        let wal = group_wal(Arc::clone(&io) as Arc<dyn StorageIo>);
        let mut catalog = Catalog::new();
        apply_op(&mut catalog, &create_t()).unwrap();
        let t1 = wal.log(&catalog, vec![create_t()], None).unwrap().unwrap();
        // Checkpoint while the frame is still queued: the snapshot already
        // contains its mutation, so the queue folds into it and the waiter
        // is acknowledged without any WAL append.
        wal.checkpoint(&catalog).unwrap();
        wal.wait_durable(t1, None).unwrap();
        assert_eq!(io.size(WAL_FILE).unwrap(), 0);
        let r = recover(io.as_ref()).unwrap();
        assert!(r.catalog.get("t").is_ok());
        assert_eq!(r.next_seq, 1);
    }

    #[test]
    fn push_insert_merges_adjacent_only() {
        let mut ops = Vec::new();
        push_insert(&mut ops, "t", vec![Value::Int(1)]);
        push_insert(&mut ops, "t", vec![Value::Int(2)]);
        ops.push(WalOp::Replace {
            table: "t".into(),
            idx: 0,
            row: vec![Value::Int(9)],
        });
        push_insert(&mut ops, "t", vec![Value::Int(3)]);
        assert_eq!(ops.len(), 3);
        let WalOp::Insert { rows, .. } = &ops[0] else {
            panic!("first op should be a merged insert");
        };
        assert_eq!(rows.len(), 2);
    }
}
