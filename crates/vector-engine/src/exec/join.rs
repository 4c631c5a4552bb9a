//! Join operators: nested-loop cross join and vectorized hash equi-join.

use crate::column::{Batch, ColumnVector};
use crate::error::Result;
use crate::exec::hash::{hash_key_columns, keys_equal, KeyTable};
use crate::exec::physical::Operator;
use crate::exec::simple::concat_batches;
use crate::expr::Expr;
use std::sync::Arc;

fn glue(left: Batch, right: Batch) -> Batch {
    let mut cols = left.into_columns();
    cols.extend(right.into_columns());
    Batch::new(cols)
}

/// Cartesian product. The right side is materialized (the build side);
/// the left side streams. Used when no equality conjunct is available —
/// notably the ML-To-SQL input function, which cross-joins the fact table
/// with the model's input-layer edges (Sec. 4.3.1).
pub struct CrossJoinExec {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    vector_size: usize,
    right_batch: Option<Arc<Batch>>,
    current_left: Option<Batch>,
    left_row: usize,
    right_pos: usize,
}

impl CrossJoinExec {
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        vector_size: usize,
    ) -> CrossJoinExec {
        CrossJoinExec {
            left,
            right,
            vector_size: vector_size.max(1),
            right_batch: None,
            current_left: None,
            left_row: 0,
            right_pos: 0,
        }
    }

    fn build(&mut self) -> Result<()> {
        let mut batches = Vec::new();
        while let Some(b) = self.right.next()? {
            batches.push(b);
        }
        self.right_batch = Some(Arc::new(concat_batches(&batches)));
        Ok(())
    }
}

impl Operator for CrossJoinExec {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.right_batch.is_none() {
            self.build()?;
        }
        let right = Arc::clone(self.right_batch.as_ref().expect("built"));
        let r_rows = right.num_rows();
        if r_rows == 0 {
            return Ok(None);
        }
        loop {
            if self.current_left.is_none() {
                match self.left.next()? {
                    None => return Ok(None),
                    Some(b) => {
                        if b.num_rows() == 0 {
                            continue;
                        }
                        self.current_left = Some(b);
                        self.left_row = 0;
                        self.right_pos = 0;
                    }
                }
            }
            let left = self.current_left.as_ref().expect("set above");
            let l_rows = left.num_rows();
            let mut li = Vec::with_capacity(self.vector_size);
            let mut ri = Vec::with_capacity(self.vector_size);
            while li.len() < self.vector_size && self.left_row < l_rows {
                let take = (self.vector_size - li.len()).min(r_rows - self.right_pos);
                for k in 0..take {
                    li.push(self.left_row);
                    ri.push(self.right_pos + k);
                }
                self.right_pos += take;
                if self.right_pos == r_rows {
                    self.right_pos = 0;
                    self.left_row += 1;
                }
            }
            if li.is_empty() {
                self.current_left = None;
                continue;
            }
            let out = glue(left.take(&li), right.take(&ri));
            if self.left_row >= l_rows {
                self.current_left = None;
            }
            return Ok(Some(out));
        }
    }

    fn close(&mut self) {
        self.right_batch = None;
        self.current_left = None;
        self.left.close();
        self.right.close();
    }
}

/// Inner hash equi-join following the classic two-phase pattern the paper's
/// ModelJoin mirrors (Sec. 5.1): the right side is consumed into a hash
/// table (build), the left side streams (probe). Key expressions may be
/// computed (`node - offset`).
///
/// Batch-at-a-time and allocation-free on the per-row path: the build side
/// retains its evaluated key columns and indexes the *distinct* keys
/// through a [`KeyTable`]; duplicate build rows chain through a `next_row`
/// array in ascending row order. Each probe batch computes one reusable
/// hash vector ([`hash_key_columns`]), resolves its key by typed column
/// comparison ([`keys_equal`]) once per probe row, and then walks the
/// matching key's row list directly — no composite key, no `Value`, no
/// string clone, no per-duplicate hash check. Output is produced by
/// columnar gather (`Batch::take` over selection vectors).
pub struct HashJoinExec {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    vector_size: usize,
    built: Option<BuildSide>,
    /// Carry-over matches of the current probe batch.
    pending: Option<Pending>,
    /// Reused probe-batch hash vector.
    probe_hashes: Vec<u64>,
    /// Recycled selection-vector buffers: once a probe batch's matches are
    /// fully emitted, its `li`/`ri` allocations come back here, so steady
    /// state reallocates nothing even at high match fan-out.
    li_buf: Vec<usize>,
    ri_buf: Vec<usize>,
}

struct BuildSide {
    batch: Batch,
    /// Evaluated key columns, retained for collision resolution.
    key_cols: Vec<Arc<ColumnVector>>,
    /// One entry per distinct key.
    table: KeyTable,
    /// Per table entry: first build row carrying that key (also the
    /// representative row compared by `keys_equal`).
    first_row: Vec<u32>,
    /// CSR duplicate lists: entry `e` owns build rows
    /// `rows_list[offsets[e]..offsets[e + 1]]`, ascending. A contiguous
    /// slice per key keeps the emit loop free of pointer chasing even at
    /// high match fan-out.
    offsets: Vec<u32>,
    rows_list: Vec<u32>,
}

struct Pending {
    left_batch: Batch,
    /// Matched (probe, build) row indices as two parallel selection vectors.
    li: Vec<usize>,
    ri: Vec<usize>,
    offset: usize,
}

impl HashJoinExec {
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        vector_size: usize,
    ) -> HashJoinExec {
        assert_eq!(left_keys.len(), right_keys.len(), "key arity mismatch");
        HashJoinExec {
            left,
            right,
            left_keys,
            right_keys,
            vector_size: vector_size.max(1),
            built: None,
            pending: None,
            probe_hashes: Vec::new(),
            li_buf: Vec::new(),
            ri_buf: Vec::new(),
        }
    }

    fn build(&mut self) -> Result<()> {
        let mut batches = Vec::new();
        while let Some(b) = self.right.next()? {
            batches.push(b);
        }
        let batch = concat_batches(&batches);
        let rows = batch.num_rows();
        let mut key_cols = Vec::new();
        let mut table = KeyTable::with_capacity(rows);
        let mut first_row: Vec<u32> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut entry_of: Vec<u32> = vec![0; rows];
        if rows > 0 {
            let cols: Result<Vec<Arc<ColumnVector>>> =
                self.right_keys.iter().map(|e| e.eval(&batch)).collect();
            key_cols = cols?;
            let mut hashes = Vec::new();
            hash_key_columns(&key_cols, rows, &mut hashes);
            for (row, &h) in hashes.iter().enumerate() {
                let entry = table
                    .candidates(h)
                    .find(|&c| keys_equal(&key_cols, first_row[c] as usize, &key_cols, row));
                let e = match entry {
                    Some(e) => e,
                    None => {
                        table.insert(h);
                        first_row.push(row as u32);
                        counts.push(0);
                        first_row.len() - 1
                    }
                };
                counts[e] += 1;
                entry_of[row] = e as u32;
            }
        }
        // Counts → CSR: prefix sums, then scatter rows (ascending scan keeps
        // each per-key list in build-row order).
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..counts.len()].to_vec();
        let mut rows_list = vec![0u32; rows];
        for (row, &e) in entry_of.iter().enumerate() {
            rows_list[cursor[e as usize] as usize] = row as u32;
            cursor[e as usize] += 1;
        }
        self.built = Some(BuildSide { batch, key_cols, table, first_row, offsets, rows_list });
        Ok(())
    }

    fn emit(&mut self) -> Option<Batch> {
        let build = self.built.as_ref().expect("built");
        let pending = self.pending.as_mut()?;
        if pending.offset >= pending.li.len() {
            self.recycle();
            return None;
        }
        let end = (pending.offset + self.vector_size).min(pending.li.len());
        let li = &pending.li[pending.offset..end];
        let ri = &pending.ri[pending.offset..end];
        // Build rows matching one probe key are usually consecutive (tables
        // laid out grouped by key), so the build-side gather is run-copied.
        let out = glue(pending.left_batch.take(li), build.batch.take_runs(ri));
        pending.offset = end;
        if pending.offset >= pending.li.len() {
            self.recycle();
        }
        Some(out)
    }

    /// Reclaim a finished probe batch's selection-vector allocations.
    fn recycle(&mut self) {
        if let Some(p) = self.pending.take() {
            self.li_buf = p.li;
            self.ri_buf = p.ri;
        }
    }
}

impl Operator for HashJoinExec {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.built.is_none() {
            self.build()?;
        }
        loop {
            if let Some(batch) = self.emit() {
                return Ok(Some(batch));
            }
            let build_empty = self.built.as_ref().expect("built").table.is_empty();
            let Some(left_batch) = self.left.next()? else {
                return Ok(None);
            };
            if build_empty || left_batch.num_rows() == 0 {
                continue;
            }
            let key_cols: Result<Vec<Arc<ColumnVector>>> =
                self.left_keys.iter().map(|e| e.eval(&left_batch)).collect();
            let key_cols = key_cols?;
            let build = self.built.as_ref().expect("built");
            hash_key_columns(&key_cols, left_batch.num_rows(), &mut self.probe_hashes);
            let mut li = std::mem::take(&mut self.li_buf);
            let mut ri = std::mem::take(&mut self.ri_buf);
            li.clear();
            ri.clear();
            for (row, &h) in self.probe_hashes.iter().enumerate() {
                // Entries are distinct keys, so at most one candidate can
                // pass `keys_equal`; its CSR row list is already in
                // ascending build-row order (the seed operator's
                // deterministic order).
                let entry = build.table.candidates(h).find(|&c| {
                    keys_equal(&build.key_cols, build.first_row[c] as usize, &key_cols, row)
                });
                if let Some(e) = entry {
                    let matches =
                        &build.rows_list[build.offsets[e] as usize..build.offsets[e + 1] as usize];
                    li.resize(li.len() + matches.len(), row);
                    ri.extend(matches.iter().map(|&r| r as usize));
                }
            }
            if li.is_empty() {
                continue;
            }
            self.pending = Some(Pending { left_batch, li, ri, offset: 0 });
        }
    }

    fn close(&mut self) {
        self.built = None;
        self.pending = None;
        self.left.close();
        self.right.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::physical::drain;
    use crate::exec::simple::ValuesExec;
    use crate::expr::BinaryOp;
    use crate::types::{DataType, Value};

    fn ints(name_rows: Vec<i64>) -> Box<dyn Operator> {
        let rows = name_rows.into_iter().map(|n| vec![Value::Int(n)]).collect();
        Box::new(ValuesExec::new(rows, vec![DataType::Int]))
    }

    fn pairs(rows: Vec<(i64, f64)>) -> Box<dyn Operator> {
        let rows = rows.into_iter().map(|(a, b)| vec![Value::Int(a), Value::Float(b)]).collect();
        Box::new(ValuesExec::new(rows, vec![DataType::Int, DataType::Float]))
    }

    fn collect_rows(batches: Vec<Batch>) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for b in batches {
            for r in 0..b.num_rows() {
                out.push(b.row(r));
            }
        }
        out
    }

    #[test]
    fn cross_join_produces_full_product() {
        let j = CrossJoinExec::new(ints(vec![1, 2, 3]), ints(vec![10, 20]), 4);
        let rows = collect_rows(drain(Box::new(j)).unwrap());
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(10)]);
        assert_eq!(rows[1], vec![Value::Int(1), Value::Int(20)]);
        assert_eq!(rows[5], vec![Value::Int(3), Value::Int(20)]);
    }

    #[test]
    fn cross_join_respects_vector_size() {
        let j = CrossJoinExec::new(ints((0..10).collect()), ints(vec![1, 2, 3]), 4);
        let batches = drain(Box::new(j)).unwrap();
        assert!(batches.iter().all(|b| b.num_rows() <= 4));
        let total: usize = batches.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn cross_join_with_empty_side() {
        let j = CrossJoinExec::new(ints(vec![1, 2]), ints(vec![]), 4);
        assert!(drain(Box::new(j)).unwrap().is_empty());
        let j = CrossJoinExec::new(ints(vec![]), ints(vec![1, 2]), 4);
        assert!(drain(Box::new(j)).unwrap().is_empty());
    }

    #[test]
    fn hash_join_matches_duplicates_on_build_side() {
        // left ids 1..4, right has two rows with id 2.
        let left = ints(vec![1, 2, 3, 4]);
        let right = pairs(vec![(2, 0.1), (2, 0.2), (4, 0.4), (9, 0.9)]);
        let j = HashJoinExec::new(left, right, vec![Expr::col(0)], vec![Expr::col(0)], 1024);
        let rows = collect_rows(drain(Box::new(j)).unwrap());
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r[0] == r[1]));
        // Duplicate build matches come out in build-row order.
        assert_eq!(rows[0][2], Value::Float(0.1));
        assert_eq!(rows[1][2], Value::Float(0.2));
    }

    #[test]
    fn hash_join_with_computed_key() {
        // right key = node - 10
        let left = ints(vec![0, 1, 2]);
        let right = ints(vec![10, 11, 15]);
        let j = HashJoinExec::new(
            left,
            right,
            vec![Expr::col(0)],
            vec![Expr::binary(BinaryOp::Sub, Expr::col(0), Expr::lit(Value::Int(10)))],
            1024,
        );
        let rows = collect_rows(drain(Box::new(j)).unwrap());
        assert_eq!(rows.len(), 2); // 0<->10, 1<->11
    }

    #[test]
    fn hash_join_mixed_numeric_key_types() {
        let left = ints(vec![1, 2, 3]);
        let right = Box::new(ValuesExec::new(
            vec![vec![Value::Float(2.0)], vec![Value::Float(2.5)]],
            vec![DataType::Float],
        ));
        let j = HashJoinExec::new(left, right, vec![Expr::col(0)], vec![Expr::col(0)], 1024);
        let rows = collect_rows(drain(Box::new(j)).unwrap());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(2));
    }

    #[test]
    fn hash_join_string_keys_without_probe_allocation() {
        let strs = |ss: Vec<&str>| -> Box<dyn Operator> {
            let rows = ss.into_iter().map(|s| vec![Value::Str(s.into())]).collect();
            Box::new(ValuesExec::new(rows, vec![DataType::Str]))
        };
        let j = HashJoinExec::new(
            strs(vec!["a", "b", "c", "b"]),
            strs(vec!["b", "x"]),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            1024,
        );
        let rows = collect_rows(drain(Box::new(j)).unwrap());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[0] == Value::Str("b".into())));
    }

    #[test]
    fn hash_join_empty_build_is_empty() {
        let j = HashJoinExec::new(
            ints(vec![1, 2]),
            ints(vec![]),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            1024,
        );
        assert!(drain(Box::new(j)).unwrap().is_empty());
    }

    #[test]
    fn multi_column_keys() {
        let left = pairs(vec![(1, 1.0), (1, 2.0)]);
        let right = pairs(vec![(1, 2.0), (1, 3.0)]);
        let j = HashJoinExec::new(
            left,
            right,
            vec![Expr::col(0), Expr::col(1)],
            vec![Expr::col(0), Expr::col(1)],
            1024,
        );
        let rows = collect_rows(drain(Box::new(j)).unwrap());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Float(2.0));
    }

    #[test]
    fn vector_size_bounds_output_batches() {
        // 4 probe rows each matching 3 build rows → 12 output rows in
        // batches of ≤ 5.
        let left = ints(vec![7, 7, 7, 7]);
        let right = ints(vec![7, 7, 7]);
        let j = HashJoinExec::new(left, right, vec![Expr::col(0)], vec![Expr::col(0)], 5);
        let batches = drain(Box::new(j)).unwrap();
        assert!(batches.iter().all(|b| b.num_rows() <= 5));
        let total: usize = batches.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 12);
    }
}
