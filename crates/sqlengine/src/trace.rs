//! Hierarchical statement tracing with wait-state attribution.
//!
//! A [`TraceCtx`] records one statement's causal span tree: admission queue
//! wait, parse / sema / plan phases, per-operator execution (derived from the
//! same `OpStats` tree that `EXPLAIN ANALYZE` renders, so the two can never
//! disagree), and WAL activity (append, retry backoff, group-commit fsync
//! wait with leader/follower attribution). Each span carries a name, a parent
//! span id, a start offset and duration in microseconds, an optional wait
//! class, an optional row count, and a small set of typed attributes.
//!
//! Capture is governed by [`TraceSampling`] (`EngineConfig::trace_sampling`):
//! off by default, so the untraced serving path performs **zero** additional
//! clock reads. When sampling is on, every statement records tentatively and
//! the keep decision happens at finish: errors and statements slower than
//! `slow_query_threshold` are always kept, everything else passes through a
//! deterministic seeded sampler keyed by statement id. Kept traces land in a
//! bounded ring inside [`Telemetry`](crate::Telemetry) and are queryable as
//! `sys.trace_spans` (joinable to `sys.query_log` on `statement_id`);
//! wait-time rollups are always on (contended paths only) and queryable as
//! `sys.wait_events`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::exec::OpStats;
use crate::rng::SplitMix64;
use crate::sync::Mutex;
use crate::telemetry::Phase;

/// Sampling policy for per-statement trace capture.
///
/// `Off` (the default) records nothing and adds no clock reads to any
/// statement path. `On` tentatively captures every statement; at finish,
/// errors and slow statements are always kept, and everything else is kept
/// with probability `rate` decided by a deterministic sampler seeded with
/// `seed` and keyed by the statement id (so a given id's keep decision is
/// reproducible across runs).
#[derive(Debug, Clone, Copy, Default)]
pub enum TraceSampling {
    /// No trace capture (release default).
    #[default]
    Off,
    /// Tentative capture for every statement; keep errors + slow always,
    /// others with probability `rate` under a seeded deterministic sampler.
    On { rate: f64, seed: u64 },
}

impl TraceSampling {
    /// Whether statements should tentatively capture spans at all.
    pub fn is_on(self) -> bool {
        matches!(self, TraceSampling::On { .. })
    }

    /// The keep decision for a finished statement. Errors and slow
    /// statements are always kept; the rest go through the seeded sampler.
    pub fn keep(self, statement_id: u64, error_or_slow: bool) -> bool {
        match self {
            TraceSampling::Off => false,
            TraceSampling::On { rate, seed } => {
                if error_or_slow {
                    return true;
                }
                if rate >= 1.0 {
                    return true;
                }
                if rate <= 0.0 {
                    return false;
                }
                // The first draw of a stream seeded per statement: sampling
                // is deterministic without any shared mutable PRNG state.
                SplitMix64::new(seed ^ statement_id).next_f64() < rate
            }
        }
    }
}

/// Wait classes rolled up into `sys.wait_events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// Time queued behind the admission gate before running.
    Admission,
    /// Time waiting on a WAL fsync (group-commit leader, follower, or an
    /// inline non-group fsync).
    Fsync,
    /// Backoff sleeps between WAL write retries.
    WalRetry,
    /// Coordinator time blocked waiting on the worker pool.
    WorkerIdle,
}

impl WaitClass {
    pub fn as_str(self) -> &'static str {
        match self {
            WaitClass::Admission => "admission",
            WaitClass::Fsync => "fsync",
            WaitClass::WalRetry => "wal_retry",
            WaitClass::WorkerIdle => "worker_idle",
        }
    }
}

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Int(i64),
    Text(&'static str),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Text(v) => write!(f, "{v}"),
        }
    }
}

/// One recorded span. `start_us` is the offset from the statement's trace
/// origin; ids are unique within one statement with the root at
/// [`ROOT_SPAN`] and the execution phase pre-reserved at [`EXEC_SPAN`].
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    /// Parent span id (`None` only for the root).
    pub parent: Option<u32>,
    pub name: String,
    pub start_us: u64,
    pub duration_us: u64,
    pub wait_class: Option<WaitClass>,
    /// Output rows for execution-operator spans.
    pub rows: Option<u64>,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRec {
    /// Attributes rendered as `k=v` pairs separated by spaces (the
    /// `sys.trace_spans.attrs` column).
    pub fn attrs_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.attrs {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
        }
        out
    }
}

/// Id of the statement root span (duration = whole statement).
pub const ROOT_SPAN: u32 = 0;
/// Pre-reserved id of the execution-phase span, so WAL spans recorded while
/// the executor runs can parent under it before it is itself recorded.
pub const EXEC_SPAN: u32 = 1;

/// Per-statement span recorder. Created once per traced statement on the
/// origin of the statement's clock (read before admission, so queue wait is
/// visible) and finished when the statement finishes. Span recording takes
/// a short mutex per span — traced statements are the sampled minority,
/// never the untraced hot path.
#[derive(Debug)]
pub struct TraceCtx {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl TraceCtx {
    /// A recorder whose span offsets count from `origin`.
    pub fn new(origin: Instant) -> TraceCtx {
        TraceCtx {
            origin,
            next_id: AtomicU32::new(EXEC_SPAN + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microsecond offset of `t` from the trace origin.
    pub fn offset_us(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.origin)
            .map_or(0, |d| d.as_micros() as u64)
    }

    /// Allocate a fresh span id (for callers that need the id before the
    /// span body is known).
    pub fn alloc_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: SpanRec) {
        self.spans.lock().push(span);
    }

    /// Record a span that started at `from` and ends now.
    pub fn record_since(
        &self,
        parent: u32,
        name: impl Into<String>,
        from: Instant,
        wait_class: Option<WaitClass>,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> u32 {
        let id = self.alloc_id();
        self.record(SpanRec {
            id,
            parent: Some(parent),
            name: name.into(),
            start_us: self.offset_us(from),
            duration_us: from.elapsed().as_micros() as u64,
            wait_class,
            rows: None,
            attrs,
        });
        id
    }

    /// Record a top-level span (a child of the root) over an interval the
    /// statement clock measured, `(start_us, duration_us)` from the origin.
    /// The `exec` phase takes the pre-reserved [`EXEC_SPAN`] id.
    pub(crate) fn record_phase(
        &self,
        name: &'static str,
        (start_us, duration_us): (u64, u64),
        wait_class: Option<WaitClass>,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let id = if name == Phase::Exec.name() {
            EXEC_SPAN
        } else {
            self.alloc_id()
        };
        self.record(SpanRec {
            id,
            parent: Some(ROOT_SPAN),
            name: name.into(),
            start_us,
            duration_us,
            wait_class,
            rows: None,
            attrs,
        });
    }

    /// Record the execution-operator subtree from an `EXPLAIN ANALYZE`
    /// stats tree, parented under the pre-reserved exec span. Row counts
    /// are copied verbatim from the stats tree, so `sys.trace_spans` and
    /// `EXPLAIN ANALYZE` agree by construction. Operator start offsets are
    /// derived (parent start + preceding siblings' durations): `OpStats`
    /// records durations only, and operator spans nest, so the derived
    /// offsets always stay inside the parent interval.
    pub fn record_op_tree(&self, stats: &OpStats, exec_start_us: u64) {
        self.record_op_node(stats, EXEC_SPAN, exec_start_us);
    }

    fn record_op_node(&self, stats: &OpStats, parent: u32, start_us: u64) {
        let id = self.alloc_id();
        let mut attrs = vec![("rows_in", AttrValue::Int(stats.rows_in as i64))];
        if stats.workers > 1 {
            attrs.push(("workers", AttrValue::Int(stats.workers as i64)));
            attrs.push(("morsels", AttrValue::Int(stats.morsels as i64)));
        }
        if let Some(mode) = crate::exec::mode_of_label(&stats.label) {
            attrs.push(("mode", AttrValue::Text(mode)));
        }
        if stats.mem_bytes > 0 {
            attrs.push(("peak_mem_bytes", AttrValue::Int(stats.mem_bytes as i64)));
        }
        self.record(SpanRec {
            id,
            parent: Some(parent),
            name: op_span_name(&stats.label),
            start_us,
            duration_us: stats.elapsed.as_micros() as u64,
            wait_class: None,
            rows: Some(stats.rows_out as u64),
            attrs,
        });
        let mut child_start = start_us;
        for child in &stats.children {
            self.record_op_node(child, id, child_start);
            child_start += child.elapsed.as_micros() as u64;
        }
    }

    /// Finish the trace: record the root statement span and return all
    /// spans, root first, children in recording order.
    pub fn finish(self, name: impl Into<String>, total_us: u64) -> Vec<SpanRec> {
        let mut spans = self.spans.into_inner();
        spans.insert(
            0,
            SpanRec {
                id: ROOT_SPAN,
                parent: None,
                name: name.into(),
                start_us: 0,
                duration_us: total_us,
                wait_class: None,
                rows: None,
                attrs: Vec::new(),
            },
        );
        spans
    }
}

/// Span name of an operator: the `EXPLAIN` label up to its detail bracket /
/// mode suffix (details travel as typed attributes instead).
fn op_span_name(label: &str) -> String {
    label.split([' ', '[']).next().unwrap_or(label).to_string()
}

/// Borrowed handle threaded into subsystems (WAL) that record spans under a
/// fixed parent while a statement executes.
#[derive(Clone, Copy)]
pub struct TraceScope<'a> {
    pub ctx: &'a TraceCtx,
    pub parent: u32,
}

impl TraceScope<'_> {
    /// Record a wait span that started at `from` and ends now.
    pub fn record_wait(
        &self,
        name: &'static str,
        wait_class: WaitClass,
        from: Instant,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        self.ctx
            .record_since(self.parent, name, from, Some(wait_class), attrs);
    }
}

/// One kept statement trace, stored in the bounded ring inside `Telemetry`
/// and surfaced as `sys.trace_spans`.
#[derive(Debug, Clone)]
pub struct StatementTrace {
    pub statement_id: u64,
    pub spans: Vec<SpanRec>,
}

/// Wait totals extracted from one statement's spans, backfilled into the
/// `sys.query_log` columns `queue_wait_us` / `fsync_wait_us` / `retry_count`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitTotals {
    pub queue_wait_us: u64,
    pub fsync_wait_us: u64,
    pub retry_count: u64,
}

impl WaitTotals {
    pub fn from_spans(spans: &[SpanRec]) -> WaitTotals {
        let mut totals = WaitTotals::default();
        for span in spans {
            match span.wait_class {
                Some(WaitClass::Admission) => totals.queue_wait_us += span.duration_us,
                Some(WaitClass::Fsync) => totals.fsync_wait_us += span.duration_us,
                Some(WaitClass::WalRetry) => totals.retry_count += 1,
                _ => {}
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_and_respects_rate_bounds() {
        let on = TraceSampling::On {
            rate: 0.5,
            seed: 42,
        };
        for id in 0..64u64 {
            assert_eq!(on.keep(id, false), on.keep(id, false));
            assert!(on.keep(id, true), "errors/slow are always kept");
        }
        let kept = (0..1000u64).filter(|&id| on.keep(id, false)).count();
        assert!((300..=700).contains(&kept), "kept = {kept}");
        assert!(!TraceSampling::Off.keep(7, true));
        let always = TraceSampling::On { rate: 1.0, seed: 0 };
        assert!(always.keep(7, false));
        let never = TraceSampling::On { rate: 0.0, seed: 0 };
        assert!(!never.keep(7, false));
        assert!(never.keep(7, true));
    }

    /// The statement ids in `0..1000` that `rate: 0.25, seed: 0x5EED` keeps.
    /// Pinning every decision means a change to the stream or the sampler
    /// cannot silently move which traces are kept.
    const KEPT_AT_QUARTER_RATE: [u64; 261] = [
        0, 2, 7, 17, 27, 33, 43, 52, 54, 55, 57, 59, 61, 64, 67, 70, 73, 76, 81, 87, 90, 91, 95,
        96, 98, 104, 106, 109, 113, 116, 120, 122, 128, 131, 132, 139, 141, 144, 152, 165, 166,
        168, 169, 178, 181, 191, 195, 197, 200, 206, 208, 214, 222, 224, 231, 232, 235, 240, 245,
        248, 250, 251, 252, 253, 255, 256, 259, 261, 264, 277, 280, 281, 282, 284, 289, 292, 293,
        298, 302, 304, 306, 320, 334, 335, 338, 341, 346, 353, 357, 361, 362, 369, 371, 373, 374,
        379, 380, 381, 382, 384, 386, 388, 390, 395, 396, 400, 404, 409, 415, 425, 427, 438, 446,
        447, 449, 450, 451, 454, 458, 465, 468, 469, 471, 474, 478, 484, 487, 490, 491, 495, 497,
        500, 501, 502, 503, 518, 519, 530, 534, 537, 538, 548, 563, 567, 570, 572, 580, 589, 592,
        594, 595, 598, 599, 607, 608, 610, 613, 614, 621, 622, 629, 655, 658, 663, 665, 666, 684,
        692, 695, 696, 702, 704, 705, 709, 712, 722, 723, 724, 728, 729, 730, 735, 739, 741, 746,
        751, 754, 757, 765, 767, 768, 770, 779, 780, 782, 783, 787, 788, 789, 792, 793, 795, 797,
        800, 801, 803, 804, 805, 809, 810, 811, 813, 815, 820, 823, 826, 829, 830, 831, 838, 840,
        841, 847, 850, 851, 859, 864, 865, 867, 873, 876, 878, 884, 885, 887, 889, 893, 897, 902,
        904, 906, 913, 925, 926, 930, 934, 935, 936, 943, 947, 948, 949, 950, 957, 971, 973, 976,
        978, 987, 988, 992,
    ];

    #[test]
    fn sampler_keeps_the_recorded_statement_ids() {
        let on = TraceSampling::On {
            rate: 0.25,
            seed: 0x5EED,
        };
        let kept: Vec<u64> = (0..1000u64).filter(|&id| on.keep(id, false)).collect();
        assert_eq!(kept, KEPT_AT_QUARTER_RATE);
    }

    #[test]
    fn wait_totals_fold_by_class() {
        let ctx = TraceCtx::new(Instant::now());
        let from = Instant::now();
        let scope = TraceScope {
            ctx: &ctx,
            parent: EXEC_SPAN,
        };
        scope.record_wait("admission.queue", WaitClass::Admission, from, Vec::new());
        scope.record_wait("wal.fsync_wait", WaitClass::Fsync, from, Vec::new());
        scope.record_wait("wal.retry", WaitClass::WalRetry, from, Vec::new());
        scope.record_wait("wal.retry", WaitClass::WalRetry, from, Vec::new());
        let spans = ctx.finish("statement", 10);
        let totals = WaitTotals::from_spans(&spans);
        assert_eq!(totals.retry_count, 2);
        assert_eq!(spans[0].id, ROOT_SPAN);
        assert_eq!(spans[0].parent, None);
    }

    #[test]
    fn attrs_render_as_pairs() {
        let span = SpanRec {
            id: 2,
            parent: Some(ROOT_SPAN),
            name: "plan".into(),
            start_us: 0,
            duration_us: 5,
            wait_class: None,
            rows: None,
            attrs: vec![
                ("cache", AttrValue::Text("hit")),
                ("nodes", AttrValue::Int(3)),
            ],
        };
        assert_eq!(span.attrs_text(), "cache=hit nodes=3");
    }
}
