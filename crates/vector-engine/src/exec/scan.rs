//! Table scan with column selection, partition pruning on hash-placed
//! tables, and SMA block pruning.

use crate::column::Batch;
use crate::error::Result;
use crate::exec::hash::hash_value;
use crate::exec::physical::Operator;
use crate::expr::BinaryOp;
use crate::plan::logical::PrunePredicate;
use crate::storage::Table;
use crate::types::{DataType, Value};
use obs::metrics as om;
use std::cmp::Ordering;
use std::sync::Arc;

/// The one partition of `table` that can hold rows matching `pruning`:
/// on a hash-placed table ([`Table::declare_placement_key`]) a `key =
/// literal` predicate names partition `hash(literal) % partition_count()`,
/// hashed as the rows were, so `INT 3` and `FLOAT 3.0` agree. `None` when
/// any partition may match: a round-robin table, or no equality on the
/// key. An `OR` of equalities or a range pins nothing, and neither does a
/// literal the key column can never equal.
pub fn pinned_partition(table: &Table, pruning: &[PrunePredicate]) -> Option<usize> {
    let key = table.placement_key()?;
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Float);
    let key_type = table.schema().column(key).dtype;
    pruning.iter().find_map(|p| {
        let v = &p.value;
        let comparable = v.data_type() == key_type || numeric(v.data_type()) && numeric(key_type);
        (p.column == key && p.op == BinaryOp::Eq && comparable)
            .then(|| (hash_value(v) % table.partition_count() as u64) as usize)
    })
}

/// Scans a table block by block, loading only its listed columns. Blocks
/// whose min/max SMA proves the pruning predicates can never match are
/// skipped without being read — the paper's Sec. 4.4 optimization
/// ("applying the filter before joining ... enabling block pruning of the
/// model table").
pub struct ScanExec {
    table: Arc<Table>,
    /// Table ordinals of the columns to load, in output order.
    columns: Vec<usize>,
    /// Checked against each block's SMA; `PrunePredicate::column` is a
    /// table ordinal, whether or not that column is in `columns`.
    pruning: Vec<PrunePredicate>,
    /// The partitions to read, `[first, end)`: one (a parallel worker's,
    /// or the one a pin names), all, or none (a worker's partition that
    /// the pin rules out).
    partitions: (usize, usize),
    /// Restrict to a `[start, end)` row range within each scanned
    /// partition — the sub-partition morsel unit the unified scheduler
    /// queues, so one skewed partition can be balanced across workers.
    rows: Option<(usize, usize)>,
    /// Per-partition row counts captured at construction: the scan's
    /// snapshot. Appends only add rows past these counts — rows topping
    /// up a short last block, then new blocks — so a scan that reads no
    /// row past them sees a consistent prefix of the table; concurrent
    /// appends (and their WAL/page traffic in persistent mode) are
    /// invisible to it.
    snapshot: Vec<usize>,
    /// The partition to read next and, once the scan has found its start
    /// row there, the next block and the partition row it starts at.
    cursor: (usize, Option<(usize, usize)>),
    /// Statistics: blocks skipped by SMA pruning.
    pub blocks_pruned: usize,
    /// Statistics: blocks actually read.
    pub blocks_read: usize,
}

impl ScanExec {
    /// A scan of every column of `table`.
    pub fn new(
        table: Arc<Table>,
        pruning: Vec<PrunePredicate>,
        partition: Option<usize>,
    ) -> ScanExec {
        let columns = (0..table.schema().len()).collect();
        ScanExec::with_rows(table, columns, pruning, partition, None)
    }

    /// A scan of the given `columns` (table ordinals, in output order),
    /// optionally restricted to a row range — morsel execution splits one
    /// partition across several tasks this way. A pin
    /// ([`pinned_partition`]) narrows the scan to its partition.
    pub fn with_rows(
        table: Arc<Table>,
        columns: Vec<usize>,
        pruning: Vec<PrunePredicate>,
        partition: Option<usize>,
        rows: Option<(usize, usize)>,
    ) -> ScanExec {
        let snapshot = table.snapshot();
        let asked = partition.map_or((0, snapshot.len()), |p| (p, p + 1));
        let partitions = match pinned_partition(&table, &pruning) {
            Some(pin) if (asked.0..asked.1).contains(&pin) => (pin, pin + 1),
            Some(_) => (asked.0, asked.0),
            None => asked,
        };
        om::EXEC_SCAN_PARTITIONS_PRUNED
            .add((asked.1 - asked.0 - (partitions.1 - partitions.0)) as u64);
        ScanExec {
            table,
            columns,
            pruning,
            partitions,
            rows,
            snapshot,
            cursor: (partitions.0, None),
            blocks_pruned: 0,
            blocks_read: 0,
        }
    }

    fn block_survives(&self, min: &Value, max: &Value, pred: &PrunePredicate) -> bool {
        let v = &pred.value;
        match pred.op {
            // Some value in [min, max] can equal v.
            BinaryOp::Eq => {
                min.total_cmp(v) != Ordering::Greater && max.total_cmp(v) != Ordering::Less
            }
            BinaryOp::Lt => min.total_cmp(v) == Ordering::Less,
            BinaryOp::LtEq => min.total_cmp(v) != Ordering::Greater,
            BinaryOp::Gt => max.total_cmp(v) == Ordering::Greater,
            BinaryOp::GtEq => max.total_cmp(v) != Ordering::Less,
            // Non-range operators never prune.
            _ => true,
        }
    }
}

impl Operator for ScanExec {
    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            let (p, at) = self.cursor;
            if p >= self.partitions.1 {
                return Ok(None);
            }
            // Bound by the construction-time snapshot: rows appended since
            // then, in new blocks or in a block this scan reads, stay
            // invisible to it.
            let (lo, hi) = self.rows.unwrap_or((0, usize::MAX));
            let hi = hi.min(self.snapshot.get(p).copied().unwrap_or(0));
            enum Step {
                EndOfPartition,
                Pruned((usize, usize)),
                Read(Result<Batch>, (usize, usize)),
            }
            let step = self.table.with_partitions(|parts| {
                let part = &parts[p];
                let (b, first) = at.unwrap_or_else(|| part.block_at(lo));
                if lo >= hi || first >= hi || b >= part.block_count() {
                    return Step::EndOfPartition;
                }
                let len = part.block_len(b);
                let next = (b + 1, first + len);
                for pred in &self.pruning {
                    let (min, max) = part.sma(pred.column, b);
                    if !self.block_survives(min, max, pred) {
                        return Step::Pruned(next);
                    }
                }
                let batch = part.block_batch(b, &self.columns, self.table.storage_env());
                // Only a range start inside the block, or the snapshot
                // ending in it, reads part of a block.
                let (from, to) = (lo.saturating_sub(first), (hi - first).min(len));
                let batch =
                    batch.map(|batch| if to - from == len { batch } else { batch.slice(from, to) });
                Step::Read(batch, next)
            });
            match step {
                Step::EndOfPartition => {
                    self.cursor = (p + 1, None);
                }
                Step::Pruned(next) => {
                    self.blocks_pruned += 1;
                    self.cursor = (p, Some(next));
                }
                Step::Read(batch, next) => {
                    self.blocks_read += 1;
                    self.cursor = (p, Some(next));
                    return Ok(Some(batch?));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnVector;
    use crate::config::EngineConfig;
    use crate::exec::physical::drain;
    use crate::storage::{ColumnDef, Schema};
    use crate::types::DataType;

    fn table() -> Arc<Table> {
        let cfg = EngineConfig { vector_size: 4, partitions: 2, ..Default::default() };
        let t = Arc::new(Table::new(
            "t",
            Schema::new(vec![ColumnDef::new("id", DataType::Int)]).unwrap(),
            &cfg,
        ));
        t.append(vec![ColumnVector::Int((0..16).collect())]).unwrap();
        t
    }

    #[test]
    fn full_scan_reads_everything() {
        let t = table();
        let batches = drain(Box::new(ScanExec::new(t, vec![], None))).unwrap();
        let total: usize = batches.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn partition_restricted_scan() {
        let t = table();
        let b0 = drain(Box::new(ScanExec::new(Arc::clone(&t), vec![], Some(0)))).unwrap();
        let b1 = drain(Box::new(ScanExec::new(t, vec![], Some(1)))).unwrap();
        let n0: usize = b0.iter().map(Batch::num_rows).sum();
        let n1: usize = b1.iter().map(Batch::num_rows).sum();
        assert_eq!(n0 + n1, 16);
        assert_eq!(n0, 8);
    }

    #[test]
    fn block_range_scan_splits_a_partition_into_morsels() {
        let t = table();
        // Appends round-robin whole blocks: partition 0 holds blocks
        // [0..4) and [8..12), partition 1 holds [4..8) and [12..16). A
        // morsel is a row range of whole blocks.
        let m0 = drain(Box::new(ScanExec::with_rows(
            Arc::clone(&t),
            vec![0],
            vec![],
            Some(0),
            Some((0, 4)),
        )))
        .unwrap();
        let m1 = drain(Box::new(ScanExec::with_rows(
            Arc::clone(&t),
            vec![0],
            vec![],
            Some(0),
            Some((4, 8)),
        )))
        .unwrap();
        let rows = |bs: &[Batch]| -> Vec<i64> {
            bs.iter().flat_map(|b| b.column(0).as_int().unwrap().to_vec()).collect()
        };
        assert_eq!(rows(&m0), vec![0, 1, 2, 3]);
        assert_eq!(rows(&m1), vec![8, 9, 10, 11]);
        // An end past the real row count clamps instead of panicking.
        let tail = drain(Box::new(ScanExec::with_rows(t, vec![0], vec![], Some(1), Some((4, 99)))))
            .unwrap();
        assert_eq!(rows(&tail), vec![12, 13, 14, 15]);
    }

    #[test]
    fn sma_pruning_skips_blocks_without_changing_results() {
        let t = table();
        // Blocks hold [0..4), [4..8), [8..12), [12..16): id >= 12 keeps 1.
        let pred = PrunePredicate { column: 0, op: BinaryOp::GtEq, value: Value::Int(12) };
        let mut scan = ScanExec::new(Arc::clone(&t), vec![pred], None);
        scan.open().unwrap();
        let mut rows = Vec::new();
        while let Some(b) = scan.next().unwrap() {
            rows.extend(b.column(0).as_int().unwrap().to_vec());
        }
        assert_eq!(scan.blocks_pruned, 3);
        assert_eq!(scan.blocks_read, 1);
        // The surviving block contains exactly the matching rows (here the
        // block boundary aligns; in general the Filter above re-checks).
        assert_eq!(rows, vec![12, 13, 14, 15]);
    }

    #[test]
    fn eq_pruning_keeps_only_candidate_blocks() {
        let t = table();
        let pred = PrunePredicate { column: 0, op: BinaryOp::Eq, value: Value::Int(5) };
        let mut scan = ScanExec::new(t, vec![pred], None);
        scan.open().unwrap();
        let mut rows = Vec::new();
        while let Some(b) = scan.next().unwrap() {
            rows.extend(b.column(0).as_int().unwrap().to_vec());
        }
        assert_eq!(rows, vec![4, 5, 6, 7]);
        assert_eq!(scan.blocks_pruned, 3);
    }

    #[test]
    fn column_list_and_sma_pruning_use_different_columns() {
        // (id, v, w): prune on id (table ordinal 0), load only w then v.
        let cfg = EngineConfig { vector_size: 4, partitions: 2, ..Default::default() };
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("w", DataType::Int),
        ])
        .unwrap();
        let t = Arc::new(Table::new("t", schema, &cfg));
        t.append(vec![
            ColumnVector::Int((0..16).collect()),
            ColumnVector::Float((0..16).map(|i| i as f64 * 0.5).collect()),
            ColumnVector::Int((0..16).map(|i| -i).collect()),
        ])
        .unwrap();
        let pred = PrunePredicate { column: 0, op: BinaryOp::GtEq, value: Value::Int(12) };
        let mut scan = ScanExec::with_rows(t, vec![2, 1], vec![pred], None, None);
        let batches = {
            let mut out = Vec::new();
            while let Some(b) = scan.next().unwrap() {
                out.push(b);
            }
            out
        };
        assert_eq!((scan.blocks_pruned, scan.blocks_read), (3, 1));
        assert_eq!(batches.len(), 1);
        let b = &batches[0];
        assert_eq!(b.num_columns(), 2, "only the listed columns are loaded");
        assert_eq!(b.column(0).as_int().unwrap(), &[-12, -13, -14, -15]);
        assert_eq!(b.column(1).as_float().unwrap(), &[6.0, 6.5, 7.0, 7.5]);
    }

    /// Pruning predicates of the first scan in `plan`.
    fn scan_pruning(plan: &crate::plan::logical::LogicalPlan) -> Vec<PrunePredicate> {
        use crate::plan::logical::LogicalPlan;
        match plan {
            LogicalPlan::Scan { pruning, .. } => pruning.clone(),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
                scan_pruning(input)
            }
            other => panic!("unexpected plan node {other:?}"),
        }
    }

    #[test]
    fn a_key_pin_on_a_hash_placed_table_reads_one_partition() {
        let cfg =
            EngineConfig { vector_size: 4, partitions: 4, parallelism: 1, ..Default::default() };
        let engine = crate::Engine::new(cfg);
        engine.execute("CREATE TABLE t (id INT, v INT)").unwrap();
        let t = engine.table("t").unwrap();
        t.declare_placement_key("id").unwrap();
        let ids: Vec<i64> = (0..200).collect();
        let vs: Vec<i64> = ids.iter().map(|i| i % 7).collect();
        engine.insert_columns("t", vec![ColumnVector::Int(ids), ColumnVector::Int(vs)]).unwrap();
        let blocks: Vec<usize> =
            t.with_partitions(|parts| parts.iter().map(|p| p.block_count()).collect());
        let owner = (hash_value(&Value::Int(77)) % 4) as usize;
        // (statement, the partition it is pinned to, rows it returns)
        for (sql, pin, rows) in [
            ("SELECT v FROM t WHERE id = 77", Some(owner), 1),
            ("SELECT v FROM t WHERE 77.0 = id", Some(owner), 1),
            ("SELECT v FROM t WHERE id = 77 OR id = 78", None, 2),
            ("SELECT v FROM t WHERE id > 190", None, 9),
            ("SELECT id FROM t WHERE v = 0", None, 29),
        ] {
            let pruning = scan_pruning(&engine.plan(sql).unwrap());
            assert_eq!(pinned_partition(&t, &pruning), pin, "{sql}");
            let mut scan = ScanExec::new(Arc::clone(&t), pruning, None);
            while scan.next().unwrap().is_some() {}
            let visited = scan.blocks_read + scan.blocks_pruned;
            let expect = pin.map_or(blocks.iter().sum(), |p| blocks[p]);
            assert_eq!(visited, expect, "{sql}: blocks of the partitions it reads");
            assert_eq!(engine.execute(sql).unwrap().num_rows(), rows, "{sql}");
        }
        // A worker scanning another partition reads nothing at all.
        let pruning = scan_pruning(&engine.plan("SELECT v FROM t WHERE id = 77").unwrap());
        let other = (owner + 1) % 4;
        let mut scan = ScanExec::new(Arc::clone(&t), pruning, Some(other));
        assert!(scan.next().unwrap().is_none());
        assert_eq!(scan.blocks_read + scan.blocks_pruned, 0);
    }

    #[test]
    fn noteq_never_prunes() {
        let t = table();
        let pred = PrunePredicate { column: 0, op: BinaryOp::NotEq, value: Value::Int(5) };
        let mut scan = ScanExec::new(t, vec![pred], None);
        scan.open().unwrap();
        let mut n = 0;
        while let Some(b) = scan.next().unwrap() {
            n += b.num_rows();
        }
        assert_eq!(n, 16);
        assert_eq!(scan.blocks_pruned, 0);
    }
}
