//! Columnar chunk storage derived from row storage.
//!
//! Tables remain row-stores (`Arc<Vec<Row>>` is the durable, snapshotted
//! representation); this module maintains a *derived* columnar image of the
//! same data for the vectorized executor: fixed-size [`ColumnChunk`]s of
//! typed column vectors with null masks, dictionary-encoding low-cardinality
//! TEXT columns (token strings in the BornSQL corpus shape). Chunks are
//! never written to snapshots or the WAL — recovery rebuilds them lazily
//! from the replayed rows.
//!
//! Consistency is enforced structurally rather than by validation: a table's
//! [`ChunkSlot`] is only ever shared between table values (and plan
//! snapshots) holding *identical* rows. Every mutation of `rows` installs a
//! fresh slot — the append path carries the already-built chunks forward
//! incrementally, every other mutation resets to an empty slot and lets the
//! next vectorized query rebuild. A stale plan snapshot therefore keeps a
//! consistent (rows, chunks) pair alive rather than observing a torn one.
//!
//! Exactness invariant: reconstructing any value from its chunk yields a
//! `Value` *bit-identical* to the stored row value (`Int(2)` never comes
//! back as `Float(2.0)`), so vectorized and row execution are exchangeable.
//! A column only takes a typed representation when every non-null value is
//! exactly that variant; mixed columns fall back to a plain `Value` vector.

use std::collections::HashMap;
use std::sync::Arc;

use crate::sync::Mutex;
use crate::value::{Row, Value};

/// Rows per chunk. Matches one executor morsel: the vectorized pipeline
/// hands whole chunks to workers, so a morsel *is* a chunk.
pub const CHUNK_ROWS: usize = 1024;

/// Maximum distinct strings a per-chunk dictionary may hold before the
/// column falls back to plain values (low-cardinality columns — class
/// labels, token vocabularies sliced per chunk — stay well under this).
const DICT_MAX_VALUES: usize = 256;

/// A per-chunk null mask: bit set = NULL at that row offset.
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    words: Vec<u64>,
    set: usize,
}

impl NullMask {
    fn push(&mut self, len: usize, null: bool) {
        let word = len / 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        if null {
            self.words[word] |= 1 << (len % 64);
            self.set += 1;
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    pub fn count(&self) -> usize {
        self.set
    }
}

/// Typed storage for one column of one chunk. Typed variants keep a
/// placeholder (0 / 0.0 / code 0) at null offsets; the null mask is
/// authoritative.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Every non-null value is `Value::Int`.
    Int(Vec<i64>),
    /// Every non-null value is `Value::Float`.
    Float(Vec<f64>),
    /// Every non-null value is `Value::Str` and the chunk-local cardinality
    /// stayed within `DICT_MAX_VALUES`: rows hold codes into `values`
    /// (first-occurrence order); `index` is the reverse map for appends.
    Dict {
        codes: Vec<u32>,
        values: Vec<Arc<str>>,
        index: HashMap<Arc<str>, u32>,
    },
    /// Mixed / high-cardinality fallback: the values themselves.
    Values(Vec<Value>),
}

/// One column of one chunk: typed data plus the null mask.
#[derive(Debug, Clone)]
pub struct ColVec {
    pub data: ColumnData,
    pub nulls: NullMask,
    non_null: usize,
}

impl ColVec {
    fn new() -> ColVec {
        ColVec {
            data: ColumnData::Values(Vec::new()),
            nulls: NullMask::default(),
            non_null: 0,
        }
    }

    /// Append one value, promoting the representation as needed: the first
    /// non-null value picks the typed layout; a later value of a different
    /// variant (or a dictionary overflow) demotes the column to `Values`.
    fn push(&mut self, len: usize, v: &Value) {
        self.nulls.push(len, v.is_null());
        if v.is_null() {
            match &mut self.data {
                ColumnData::Int(xs) => xs.push(0),
                ColumnData::Float(xs) => xs.push(0.0),
                ColumnData::Dict { codes, .. } => codes.push(0),
                ColumnData::Values(xs) => xs.push(Value::Null),
            }
            return;
        }
        if self.non_null == 0 {
            // All prior values (if any) were NULL: adopt this value's typed
            // layout, backfilling placeholders for the nulls.
            self.data = match v {
                Value::Int(_) => ColumnData::Int(vec![0; len]),
                Value::Float(_) => ColumnData::Float(vec![0.0; len]),
                Value::Str(_) => ColumnData::Dict {
                    codes: vec![0; len],
                    values: Vec::new(),
                    index: HashMap::new(),
                },
                Value::Null => unreachable!("null handled above"),
            };
        }
        self.non_null += 1;
        match (&mut self.data, v) {
            (ColumnData::Int(xs), Value::Int(i)) => xs.push(*i),
            (ColumnData::Float(xs), Value::Float(f)) => xs.push(*f),
            (
                ColumnData::Dict {
                    codes,
                    values,
                    index,
                },
                Value::Str(s),
            ) => match index.get(s.as_ref()) {
                Some(&code) => codes.push(code),
                None if values.len() < DICT_MAX_VALUES => {
                    let code = values.len() as u32;
                    values.push(Arc::clone(s));
                    index.insert(Arc::clone(s), code);
                    codes.push(code);
                }
                None => {
                    self.demote(len);
                    match &mut self.data {
                        ColumnData::Values(xs) => xs.push(v.clone()),
                        _ => unreachable!("demote yields Values"),
                    }
                }
            },
            (ColumnData::Values(xs), _) => xs.push(v.clone()),
            _ => {
                // Variant mismatch: demote to plain values, then push.
                self.demote(len);
                match &mut self.data {
                    ColumnData::Values(xs) => xs.push(v.clone()),
                    _ => unreachable!("demote yields Values"),
                }
            }
        }
    }

    /// Rebuild this column as `Values`, reconstructing the `len` values
    /// stored so far.
    fn demote(&mut self, len: usize) {
        let xs: Vec<Value> = (0..len).map(|i| self.value_at(i)).collect();
        self.data = ColumnData::Values(xs);
    }

    /// Reconstruct the exact stored `Value` at row offset `i`.
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        if self.nulls.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(xs) => Value::Int(xs[i]),
            ColumnData::Float(xs) => Value::Float(xs[i]),
            ColumnData::Dict { codes, values, .. } => {
                Value::Str(Arc::clone(&values[codes[i] as usize]))
            }
            ColumnData::Values(xs) => xs[i].clone(),
        }
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i)
    }

    pub fn is_dict(&self) -> bool {
        matches!(self.data, ColumnData::Dict { .. })
    }
}

/// A fixed-capacity run of rows stored column-wise.
#[derive(Debug, Clone)]
pub struct ColumnChunk {
    len: usize,
    columns: Vec<ColVec>,
}

impl ColumnChunk {
    fn new(width: usize) -> ColumnChunk {
        ColumnChunk {
            len: 0,
            columns: (0..width).map(|_| ColVec::new()).collect(),
        }
    }

    fn push_row(&mut self, row: &Row) {
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(self.len, v);
        }
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn width(&self) -> usize {
        self.columns.len()
    }

    #[inline]
    pub fn column(&self, c: usize) -> &ColVec {
        &self.columns[c]
    }

    /// Reconstruct the exact stored value at (row offset, column).
    #[inline]
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value_at(row)
    }
}

/// The chunked image of one table snapshot: all chunks plus summary stats.
#[derive(Debug, Clone)]
pub struct ChunkedTable {
    chunks: Vec<Arc<ColumnChunk>>,
    width: usize,
    rows: usize,
}

impl ChunkedTable {
    /// Build the columnar image of `rows` (one pass, chunk at a time).
    pub fn build(rows: &[Row], width: usize) -> ChunkedTable {
        let mut chunks = Vec::with_capacity(rows.len().div_ceil(CHUNK_ROWS));
        for slice in rows.chunks(CHUNK_ROWS) {
            let mut chunk = ColumnChunk::new(width);
            for row in slice {
                chunk.push_row(row);
            }
            chunks.push(Arc::new(chunk));
        }
        ChunkedTable {
            chunks,
            width,
            rows: rows.len(),
        }
    }

    /// A copy with `row` appended: the last chunk is extended copy-on-write
    /// (or a new chunk is started), every full chunk is shared untouched.
    fn appended(&self, row: &Row) -> ChunkedTable {
        let mut chunks = self.chunks.clone();
        match chunks.last_mut() {
            Some(last) if last.len() < CHUNK_ROWS => Arc::make_mut(last).push_row(row),
            _ => {
                let mut chunk = ColumnChunk::new(self.width);
                chunk.push_row(row);
                chunks.push(Arc::new(chunk));
            }
        }
        ChunkedTable {
            chunks,
            width: self.width,
            rows: self.rows + 1,
        }
    }

    pub fn chunks(&self) -> &[Arc<ColumnChunk>] {
        &self.chunks
    }

    pub fn row_count(&self) -> usize {
        self.rows
    }

    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Number of table columns dictionary-encoded in at least one chunk.
    pub fn dict_columns(&self) -> usize {
        (0..self.width)
            .filter(|&c| self.chunks.iter().any(|ch| ch.column(c).is_dict()))
            .count()
    }
}

/// A table's lazily built chunk cache.
///
/// Cloning shares the cache (tables clone into plan snapshots constantly);
/// the sharing discipline in the module docs — fresh slot on every rows
/// mutation — is what keeps a shared slot consistent with the rows Arc it
/// was captured alongside.
#[derive(Debug, Clone, Default)]
pub struct ChunkSlot(Arc<Mutex<Option<Arc<ChunkedTable>>>>);

impl ChunkSlot {
    pub fn empty() -> ChunkSlot {
        ChunkSlot::default()
    }

    /// The built chunks, building from `rows` on first use. Callers must
    /// pass the rows snapshot this slot was captured with.
    pub fn get_or_build(&self, rows: &[Row], width: usize) -> Arc<ChunkedTable> {
        let mut slot = self.0.lock();
        match &*slot {
            Some(built) => Arc::clone(built),
            None => {
                let built = Arc::new(ChunkedTable::build(rows, width));
                *slot = Some(Arc::clone(&built));
                built
            }
        }
    }

    /// The built chunks, if any (no build is triggered — `sys.tables` and
    /// metrics report the *observed* state, demonstrating laziness).
    pub fn peek(&self) -> Option<Arc<ChunkedTable>> {
        self.0.lock().clone()
    }

    /// The slot for a table whose rows just gained `row` at the end: carries
    /// built chunks forward incrementally, stays lazy when unbuilt. Always a
    /// *fresh* slot — the old one keeps serving the old rows snapshot.
    pub fn appended(&self, row: &Row) -> ChunkSlot {
        match self.peek() {
            Some(built) => ChunkSlot(Arc::new(Mutex::new(Some(Arc::new(built.appended(row)))))),
            None => ChunkSlot::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rows: &[Row], width: usize) -> ChunkedTable {
        ChunkedTable::build(rows, width)
    }

    #[test]
    fn typed_columns_round_trip_exactly() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Float(0.5), Value::text("a")],
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Int(-3), Value::Float(2.0), Value::text("b")],
            vec![Value::Int(7), Value::Float(-1.25), Value::text("a")],
        ];
        let ct = v(&rows, 3);
        assert_eq!(ct.chunk_count(), 1);
        assert_eq!(ct.dict_columns(), 1);
        let chunk = &ct.chunks()[0];
        assert!(matches!(chunk.column(0).data, ColumnData::Int(_)));
        assert!(matches!(chunk.column(1).data, ColumnData::Float(_)));
        assert!(chunk.column(2).is_dict());
        for (i, row) in rows.iter().enumerate() {
            for (c, val) in row.iter().enumerate() {
                let got = chunk.value_at(i, c);
                // PartialEq equates Int(2) and Float(2.0); pin the variant too.
                assert_eq!(&got, val);
                assert_eq!(got.data_type(), val.data_type(), "row {i} col {c}");
            }
        }
    }

    #[test]
    fn mixed_column_demotes_to_values() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1)],
            vec![Value::Float(2.5)],
            vec![Value::text("x")],
        ];
        let ct = v(&rows, 1);
        let col = ct.chunks()[0].column(0);
        assert!(matches!(col.data, ColumnData::Values(_)));
        assert_eq!(col.value_at(0), Value::Int(1));
        assert_eq!(col.value_at(0).data_type(), crate::value::DataType::Integer);
        assert_eq!(col.value_at(1), Value::Float(2.5));
        assert_eq!(col.value_at(2), Value::text("x"));
    }

    #[test]
    fn all_null_prefix_adopts_first_typed_value() {
        let rows: Vec<Row> = vec![vec![Value::Null], vec![Value::Null], vec![Value::Int(9)]];
        let ct = v(&rows, 1);
        let col = ct.chunks()[0].column(0);
        assert!(matches!(col.data, ColumnData::Int(_)));
        assert!(col.is_null(0) && col.is_null(1));
        assert_eq!(col.value_at(2), Value::Int(9));
        assert_eq!(col.nulls.count(), 2);
    }

    #[test]
    fn dictionary_overflow_falls_back() {
        let rows: Vec<Row> = (0..DICT_MAX_VALUES as i64 + 10)
            .map(|i| vec![Value::text(format!("tok{i}"))])
            .collect();
        let ct = v(&rows, 1);
        let col = ct.chunks()[0].column(0);
        assert!(matches!(col.data, ColumnData::Values(_)));
        assert_eq!(col.value_at(3), Value::text("tok3"));
    }

    #[test]
    fn chunks_split_at_capacity_and_appends_extend() {
        let rows: Vec<Row> = (0..CHUNK_ROWS as i64 + 5)
            .map(|i| vec![Value::Int(i)])
            .collect();
        let ct = v(&rows, 1);
        assert_eq!(ct.chunk_count(), 2);
        assert_eq!(ct.chunks()[0].len(), CHUNK_ROWS);
        assert_eq!(ct.chunks()[1].len(), 5);

        let appended = ct.appended(&vec![Value::Int(999)]);
        assert_eq!(appended.row_count(), CHUNK_ROWS + 6);
        assert_eq!(appended.chunks()[1].len(), 6);
        assert_eq!(appended.chunks()[1].value_at(5, 0), Value::Int(999));
        // The original is untouched and the full chunk is shared, not copied.
        assert_eq!(ct.chunks()[1].len(), 5);
        assert!(Arc::ptr_eq(&ct.chunks()[0], &appended.chunks()[0]));
    }

    #[test]
    fn slot_builds_lazily_and_append_carries_forward() {
        let rows: Vec<Row> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let slot = ChunkSlot::empty();
        assert!(slot.peek().is_none());
        // Unbuilt slots stay lazy across appends.
        assert!(slot.appended(&vec![Value::Int(10)]).peek().is_none());

        let built = slot.get_or_build(&rows, 1);
        assert_eq!(built.row_count(), 10);
        assert!(Arc::ptr_eq(&built, &slot.get_or_build(&rows, 1)));

        let next = slot.appended(&vec![Value::Int(10)]);
        let carried = next.peek().expect("built state carried forward");
        assert_eq!(carried.row_count(), 11);
        assert_eq!(carried.chunks()[0].value_at(10, 0), Value::Int(10));
        // The original slot still serves the 10-row snapshot.
        assert_eq!(slot.peek().unwrap().row_count(), 10);
    }
}
