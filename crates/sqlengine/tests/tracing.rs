//! Hierarchical statement tracing: differential correctness against
//! `EXPLAIN ANALYZE`, span-tree nesting invariants, sampling semantics,
//! wait-state attribution under a saturated admission gate, and the
//! traced-vs-untraced overhead bound on the cached serving hot path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlengine::{Database, EngineConfig, TraceSampling, Value};

/// Tiny deterministic PRNG so fixtures are identical on every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn seeded_db(config: EngineConfig, rows: usize) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (g INTEGER, x INTEGER, w REAL)")
        .unwrap();
    let mut rng = Lcg(0x7E1E);
    let mut data = Vec::with_capacity(rows);
    for _ in 0..rows {
        data.push(vec![
            Value::Int((rng.next() % 13) as i64),
            Value::Int((rng.next() % 1000) as i64),
            Value::Float((rng.next() % 10_000) as f64 / 100.0),
        ]);
    }
    db.insert_rows("t", data).unwrap();
    db
}

fn always_on() -> TraceSampling {
    TraceSampling::On {
        rate: 1.0,
        seed: 0xC0FFEE,
    }
}

/// Extract `(operator, rows)` pairs in render order: from `EXPLAIN ANALYZE`
/// lines (`rows_out=N`) or `EXPLAIN (TRACE)` lines (` rows=N`).
fn op_rows(rendered: &str, marker: &str) -> Vec<(String, u64)> {
    rendered
        .lines()
        .filter_map(|line| {
            let at = line.find(marker)?;
            let tail = &line[at + marker.len()..];
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            let op = line.trim_start().split([' ', '[']).next()?.to_string();
            Some((op, digits.parse().ok()?))
        })
        .collect()
}

fn rendered(db: &Database, sql: &str) -> String {
    db.query(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.to_string(),
            other => panic!("expected text line, got {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------------
// Differential: EXPLAIN (TRACE) vs EXPLAIN ANALYZE
// ---------------------------------------------------------------------

#[test]
fn explain_trace_exec_subtree_matches_explain_analyze_rows() {
    let db = seeded_db(EngineConfig::default(), 500);
    let sql = "SELECT g, SUM(w) FROM t WHERE x >= 250 GROUP BY g ORDER BY g";

    let analyze = rendered(&db, &format!("EXPLAIN ANALYZE {sql}"));
    let trace = rendered(&db, &format!("EXPLAIN (TRACE) {sql}"));

    // Same operators, same observed row counts, same (preorder) order: the
    // trace's exec subtree is derived from the very OpStats tree ANALYZE
    // renders, so the two can never disagree.
    let analyzed = op_rows(&analyze, "rows_out=");
    let traced = op_rows(&trace, " rows=");
    assert!(!analyzed.is_empty(), "ANALYZE rendered no operators");
    assert_eq!(analyzed, traced, "\nANALYZE:\n{analyze}\nTRACE:\n{trace}");

    // The trace additionally shows the statement phases around execution.
    for phase in ["statement (", "plan (", "exec ("] {
        assert!(trace.contains(phase), "missing {phase:?} in:\n{trace}");
    }
    assert!(trace.contains("cache=miss") || trace.contains("cache=hit"));
}

// ---------------------------------------------------------------------
// Span-tree nesting invariant
// ---------------------------------------------------------------------

#[test]
fn child_span_durations_sum_within_parent_duration() {
    let db = seeded_db(
        EngineConfig::default().with_trace_sampling(always_on()),
        500,
    );
    db.query("SELECT g, COUNT(*) FROM t GROUP BY g").unwrap();
    db.query("SELECT g, COUNT(*) FROM t GROUP BY g").unwrap(); // cache hit
    db.execute("INSERT INTO t VALUES (99, 99, 9.9)").unwrap(); // DML path
    db.query("SELECT COUNT(*) FROM t a JOIN t b ON a.g = b.g WHERE a.x < 40")
        .unwrap();

    let traces = db.telemetry().traces();
    assert!(
        traces.len() >= 4,
        "expected every statement kept at rate 1.0"
    );
    for trace in &traces {
        for parent in &trace.spans {
            let children: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.parent == Some(parent.id))
                .collect();
            let sum: u64 = children.iter().map(|c| c.duration_us).sum();
            // Each span truncates to whole microseconds, so allow 1µs of
            // rounding slack per child.
            assert!(
                sum <= parent.duration_us + children.len() as u64 + 1,
                "children of {} ({}µs) sum to {sum}µs in trace {:?}",
                parent.name,
                parent.duration_us,
                trace.spans
            );
            for child in &children {
                assert!(
                    child.start_us >= parent.start_us,
                    "child {} starts before parent {}",
                    child.name,
                    parent.name
                );
            }
        }
        // Every non-root span's parent exists.
        for span in &trace.spans {
            if let Some(p) = span.parent {
                assert!(
                    trace.spans.iter().any(|s| s.id == p),
                    "span {} has dangling parent {p}",
                    span.name
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sampling semantics + query-log backfill
// ---------------------------------------------------------------------

#[test]
fn sampling_off_records_zero_spans_and_null_wait_columns() {
    let db = seeded_db(EngineConfig::default(), 64);
    db.query("SELECT COUNT(*) FROM t").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1, 1.0)").unwrap();

    assert!(db.telemetry().traces().is_empty());
    let spans = db.query("SELECT * FROM sys.trace_spans").unwrap();
    assert!(spans.rows.is_empty(), "{:?}", spans.rows);

    // Unsampled statements report NULL wait columns (unknown), not zero.
    let log = db
        .query("SELECT queue_wait_us, fsync_wait_us, retry_count FROM sys.query_log")
        .unwrap();
    assert!(!log.rows.is_empty());
    for row in &log.rows {
        assert_eq!(row, &vec![Value::Null, Value::Null, Value::Null]);
    }
}

#[test]
fn kept_traces_join_query_log_by_statement_id() {
    let db = seeded_db(
        EngineConfig::default()
            .with_trace_sampling(always_on())
            // Everything is "slow" at a 1µs threshold, so the README's
            // slow-statement join shape has rows to find.
            .with_slow_query_threshold(Duration::from_micros(1)),
        128,
    );
    db.query("SELECT g, SUM(w) FROM t GROUP BY g").unwrap();
    db.query("SELECT g, SUM(w) FROM t GROUP BY g").unwrap();

    // Wait columns are backfilled (0, not NULL) for sampled statements.
    let log = db
        .query("SELECT id, queue_wait_us FROM sys.query_log WHERE slow = 1")
        .unwrap();
    assert!(!log.rows.is_empty());
    assert!(log.rows.iter().all(|r| r[1] == Value::Int(0)));

    // Every logged statement's trace is queryable by statement id, with a
    // root span named "statement" and an exec subtree.
    for row in &log.rows {
        let Value::Int(id) = row[0] else { panic!() };
        let spans = db
            .query(&format!(
                "SELECT name, parent_id FROM sys.trace_spans WHERE statement_id = {id}"
            ))
            .unwrap();
        assert!(
            spans
                .rows
                .iter()
                .any(|r| r[0] == Value::text("statement") && r[1] == Value::Null),
            "statement {id} has no root span: {:?}",
            spans.rows
        );
        assert!(spans.rows.iter().any(|r| r[0] == Value::text("exec")));
    }

    // The second execution was a cache hit and its plan span says so.
    let attrs = db
        .query("SELECT attrs FROM sys.trace_spans WHERE name = 'plan'")
        .unwrap();
    let texts: Vec<String> = attrs
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.to_string(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert!(texts.iter().any(|t| t.contains("cache=miss")), "{texts:?}");
    assert!(texts.iter().any(|t| t.contains("cache=hit")), "{texts:?}");
}

#[test]
fn deterministic_sampler_keeps_a_rate_sized_subset() {
    let db = seeded_db(
        EngineConfig::default().with_trace_sampling(TraceSampling::On { rate: 0.5, seed: 7 }),
        64,
    );
    for _ in 0..200 {
        db.query("SELECT COUNT(*) FROM t").unwrap();
    }
    let kept = db.telemetry().traces().len();
    assert!(
        (40..=160).contains(&kept),
        "rate 0.5 kept {kept} of 200 traces"
    );
}

// ---------------------------------------------------------------------
// sys.histograms
// ---------------------------------------------------------------------

#[test]
fn sys_histograms_exposes_power_of_two_buckets() {
    let db = seeded_db(EngineConfig::default(), 64);
    for _ in 0..8 {
        db.query("SELECT COUNT(*) FROM t").unwrap();
    }
    let rows = db
        .query(
            "SELECT metric, bucket_lo_us, bucket_hi_us, count FROM sys.histograms \
             WHERE metric = 'statement.total_us'",
        )
        .unwrap()
        .rows;
    assert!(!rows.is_empty());
    let mut total = 0i64;
    for row in &rows {
        let (Value::Int(lo), Value::Int(hi), Value::Int(count)) = (&row[1], &row[2], &row[3])
        else {
            panic!("unexpected row {row:?}");
        };
        assert!(lo < hi, "bucket [{lo}, {hi}) is empty-range");
        assert!(
            *hi == 1 || (*hi & (*hi - 1)) == 0,
            "hi {hi} not a power of two"
        );
        assert!(*count > 0, "empty buckets are omitted");
        total += count;
    }
    // 8 queries + fixture DDL/DML all recorded a statement duration.
    assert!(total >= 8, "bucket counts sum to {total}");
}

// ---------------------------------------------------------------------
// Wait-state attribution under a saturated admission gate
// ---------------------------------------------------------------------

#[test]
fn saturated_gate_attributes_admission_wait() {
    let db = Database::with_config(
        EngineConfig::default()
            .with_trace_sampling(always_on())
            .with_max_concurrent_statements(1)
            .with_admission_queue_depth(16),
    );
    db.execute("CREATE TABLE big (n INTEGER)").unwrap();
    let values: Vec<String> = (0..1500).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
        .unwrap();
    let db = Arc::new(db);

    // A query heavy enough to hold the only slot while the probe queues.
    let db2 = Arc::clone(&db);
    let busy = std::thread::spawn(move || {
        db2.query("SELECT COUNT(*) FROM big a, big b WHERE a.n + b.n > 0")
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));
    db.query("SELECT COUNT(*) FROM big WHERE n = 7").unwrap();
    busy.join().unwrap();

    // The queued statement's trace carries an admission wait span, and the
    // backfilled query-log column agrees.
    let log = db
        .query(
            "SELECT queue_wait_us FROM sys.query_log \
             WHERE sql LIKE '%WHERE n = 7%' AND sql NOT LIKE '%query_log%'",
        )
        .unwrap();
    assert_eq!(log.rows.len(), 1);
    let Value::Int(queue_wait) = log.rows[0][0] else {
        panic!("queue_wait_us must be backfilled, got {:?}", log.rows[0][0]);
    };
    assert!(
        queue_wait > 0,
        "queued statement reports {queue_wait}µs wait"
    );

    let spans = db
        .query("SELECT name FROM sys.trace_spans WHERE wait_class = 'admission'")
        .unwrap();
    assert!(!spans.rows.is_empty(), "no admission wait span recorded");

    // The always-on rollup shows the same contention, trace or no trace.
    let events = db
        .query("SELECT count, total_us FROM sys.wait_events WHERE wait_class = 'admission'")
        .unwrap();
    assert_eq!(events.rows.len(), 1);
    let (Value::Int(count), Value::Int(total_us)) = (&events.rows[0][0], &events.rows[0][1]) else {
        panic!("{:?}", events.rows);
    };
    assert!(*count >= 1, "admission rollup count = {count}");
    assert!(*total_us > 0, "admission rollup total_us = {total_us}");
}

// ---------------------------------------------------------------------
// Overhead bound: trace sampling on vs off on the cached serving path
// ---------------------------------------------------------------------

#[test]
fn tracing_overhead_on_cached_plan_hot_path_is_bounded() {
    // Same interleaved min-of-batches shape as the telemetry overhead pin:
    // the minimum over many rounds approximates the true cost, and the
    // bound is the best attempt so one quiet window suffices.
    let sql = "SELECT g, SUM(w) FROM t WHERE x >= 0 GROUP BY g";
    let on = seeded_db(
        EngineConfig::default().with_trace_sampling(always_on()),
        2000,
    );
    let off = seeded_db(EngineConfig::default(), 2000);
    for _ in 0..5 {
        on.query(sql).unwrap();
        off.query(sql).unwrap();
    }

    let batch = |db: &Database| {
        let started = Instant::now();
        for _ in 0..8 {
            db.query(sql).unwrap();
        }
        started.elapsed()
    };
    let mut best_ratio = f64::MAX;
    for attempt in 0..6 {
        let (mut best_on, mut best_off) = (Duration::MAX, Duration::MAX);
        for _ in 0..20 {
            best_on = best_on.min(batch(&on));
            best_off = best_off.min(batch(&off));
        }
        let ratio = best_on.as_secs_f64() / best_off.as_secs_f64();
        best_ratio = best_ratio.min(ratio);
        if best_ratio < 1.05 {
            break;
        }
        eprintln!("attempt {attempt}: ratio {ratio:.3} (on={best_on:?} off={best_off:?})");
    }
    assert!(
        best_ratio < 1.05,
        "trace-sampling overhead must stay under 5% (best ratio {best_ratio:.3})"
    );
    // Sanity: the traced side actually captured the traffic, the untraced
    // side recorded nothing.
    assert!(!on.telemetry().traces().is_empty());
    assert!(off.telemetry().traces().is_empty());
}

// ---------------------------------------------------------------------
// One statement path: every entry point counts and traces alike
// ---------------------------------------------------------------------

/// `(exec.vectorized_ops, exec.row_ops)` moved by running `f`.
fn mode_counts(db: &Database, f: impl FnOnce()) -> (u64, u64) {
    let t = db.telemetry();
    let before = (t.vectorized_ops.get(), t.row_ops.get());
    f();
    (
        t.vectorized_ops.get() - before.0,
        t.row_ops.get() - before.1,
    )
}

/// `(name, rows)` of the operator spans under `exec` in the latest kept
/// trace, in recording order.
fn last_trace_operators(db: &Database) -> Vec<(String, u64)> {
    let traces = db.telemetry().traces();
    let trace = traces.last().expect("rate 1.0 keeps every trace");
    let exec = trace
        .spans
        .iter()
        .find(|s| s.name == "exec" && s.parent == Some(0))
        .expect("every query trace has an exec span");
    let mut under_exec = vec![exec.id];
    let mut ops = Vec::new();
    for span in &trace.spans {
        if let (Some(parent), Some(rows)) = (span.parent, span.rows) {
            if under_exec.contains(&parent) {
                under_exec.push(span.id);
                ops.push((span.name.clone(), rows));
            }
        }
    }
    ops
}

#[test]
fn every_entry_point_counts_modes_and_traces_operators_alike() {
    let sql = "SELECT g, SUM(w) FROM t WHERE x >= 250 GROUP BY g";
    let db = seeded_db(EngineConfig::default(), 500);
    let via_execute = mode_counts(&db, || {
        db.execute(sql).unwrap();
    });
    let via_script = mode_counts(&db, || {
        db.execute_script(&format!("{sql};")).unwrap();
    });
    let via_explain_sql = mode_counts(&db, || {
        db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    });
    let via_explain_api = mode_counts(&db, || {
        db.explain_analyze(sql).unwrap();
    });
    assert!(
        via_execute.0 > 0,
        "the query runs vectorized: {via_execute:?}"
    );
    assert_eq!(via_script, via_execute, "execute_script vs execute");
    assert_eq!(
        via_explain_sql, via_explain_api,
        "EXPLAIN ANALYZE SQL vs API"
    );
    assert_eq!(via_explain_api, via_execute, "explain_analyze vs execute");

    let traced = seeded_db(
        EngineConfig::default().with_trace_sampling(always_on()),
        500,
    );
    traced.execute(sql).unwrap();
    let from_execute = last_trace_operators(&traced);
    traced.execute_script(&format!("{sql};")).unwrap();
    let from_script = last_trace_operators(&traced);
    assert!(!from_execute.is_empty(), "no operator spans under exec");
    assert_eq!(from_script, from_execute);
}

// ---------------------------------------------------------------------
// One clock: sys.query_log and sys.trace_spans agree
// ---------------------------------------------------------------------

#[test]
fn query_log_phases_equal_their_trace_spans() {
    let db = seeded_db(
        EngineConfig::default().with_trace_sampling(always_on()),
        300,
    );
    let first = db.telemetry().query_log().last().unwrap().id;
    let sql = "SELECT g, SUM(w) FROM t WHERE x > 10 GROUP BY g";
    db.query(sql).unwrap(); // miss
    db.query(sql).unwrap(); // hit
    db.execute("INSERT INTO t VALUES (5, 5, 5.0)").unwrap(); // DML
    db.execute_script("SELECT COUNT(*) FROM t WHERE g = 3;")
        .unwrap(); // script
    db.prepare("SELECT x FROM t WHERE g = ?")
        .unwrap()
        .query(&[Value::Int(4)])
        .unwrap(); // prepared

    let log = db
        .query(&format!(
            "SELECT id, parse_us, sema_us, plan_us, exec_us, duration_ms, slow, cache_hit \
             FROM sys.query_log WHERE id > {first} ORDER BY id"
        ))
        .unwrap()
        .rows;
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer, got {other:?}"),
    };
    let ids: Vec<i64> = log.iter().map(|r| int(&r[0])).collect();
    assert_eq!(ids.len(), 5, "{log:?}");
    let spans = db
        .query(&format!(
            "SELECT statement_id, name, duration_us, parent_id FROM sys.trace_spans \
             WHERE statement_id > {first} AND (parent_id IS NULL OR parent_id = 0)"
        ))
        .unwrap()
        .rows;
    let span_us = |id: i64, name: &str| {
        spans
            .iter()
            .find(|s| int(&s[0]) == id && s[1] == Value::text(name))
            .map(|s| int(&s[2]))
    };
    // Which phases each entry point runs: miss, hit, DML, script, prepared.
    let expected = [
        ["parse", "sema", "plan", "exec"].as_slice(),
        &["plan", "exec"],
        &["parse", "sema", "exec"],
        &["sema", "plan", "exec"],
        &["plan", "exec"],
    ];
    for (row, runs) in log.iter().zip(expected) {
        let id = int(&row[0]);
        for (col, phase) in [(1, "parse"), (2, "sema"), (3, "plan"), (4, "exec")] {
            let logged = int(&row[col]);
            match span_us(id, phase) {
                Some(us) => {
                    assert!(runs.contains(&phase), "statement {id} ran {phase}");
                    assert_eq!(logged, us, "statement {id}: {phase}_us vs its span");
                }
                None => {
                    assert!(!runs.contains(&phase), "statement {id} has no {phase} span");
                    assert_eq!(logged, 0, "statement {id}: {phase}_us without a span");
                }
            }
        }
        let Value::Float(ms) = row[5] else {
            panic!("duration_ms is a float: {row:?}");
        };
        let root = span_us(id, "statement").expect("every kept trace has a root");
        assert_eq!((ms * 1000.0).round() as i64, root, "statement {id}");
    }
    assert_eq!(log[1][7], Value::Int(1), "the second run is a cache hit");

    // The slow flag and the keep decision read the same total: with the
    // sampler keeping nothing, exactly the slow statements keep traces.
    let db = seeded_db(
        EngineConfig::default()
            .with_trace_sampling(TraceSampling::On { rate: 0.0, seed: 1 })
            .with_slow_query_threshold(Duration::from_micros(1)),
        64,
    );
    db.query("SELECT COUNT(*) FROM t").unwrap();
    let kept: Vec<u64> = db
        .telemetry()
        .traces()
        .iter()
        .map(|t| t.statement_id)
        .collect();
    for entry in db.telemetry().query_log() {
        assert_eq!(entry.slow, kept.contains(&entry.id), "{entry:?}");
    }
}
