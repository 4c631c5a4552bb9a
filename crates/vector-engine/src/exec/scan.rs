//! Table scan with column selection and SMA block pruning.

use crate::column::Batch;
use crate::error::Result;
use crate::exec::physical::Operator;
use crate::expr::BinaryOp;
use crate::plan::logical::PrunePredicate;
use crate::storage::Table;
use crate::types::Value;
use std::cmp::Ordering;
use std::sync::Arc;

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
    /// Restrict to one partition (parallel workers) or scan all.
    partition: Option<usize>,
    /// Restrict to a `[start, end)` block range within each scanned
    /// partition — the sub-partition morsel unit the unified scheduler
    /// steals, so one skewed partition can be balanced across workers.
    blocks: Option<(usize, usize)>,
    /// Per-partition block counts captured at construction: the scan's
    /// snapshot. Blocks are immutable and append-only, so bounding the
    /// cursor by these counts pins a consistent prefix of the table —
    /// concurrent appends (and their WAL/page traffic in persistent
    /// mode) are invisible to an in-flight scan.
    snapshot: Vec<usize>,
    /// (partition, block) cursor.
    cursor: (usize, usize),
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
        ScanExec::with_blocks(table, columns, pruning, partition, None)
    }

    /// A scan of the given `columns` (table ordinals, in output order),
    /// optionally restricted to a block range — morsel execution splits
    /// one partition across several tasks this way.
    pub fn with_blocks(
        table: Arc<Table>,
        columns: Vec<usize>,
        pruning: Vec<PrunePredicate>,
        partition: Option<usize>,
        blocks: Option<(usize, usize)>,
    ) -> ScanExec {
        let start_p = partition.unwrap_or(0);
        let start_b = blocks.map_or(0, |(s, _)| s);
        let snapshot = table.snapshot();
        ScanExec {
            table,
            columns,
            pruning,
            partition,
            blocks,
            snapshot,
            cursor: (start_p, start_b),
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
            let (p, b) = self.cursor;
            let end_partition = match self.partition {
                Some(part) => part + 1,
                None => self.table.partition_count(),
            };
            if p >= end_partition {
                return Ok(None);
            }
            enum Step {
                EndOfPartition,
                Pruned,
                Read(Result<Batch>),
            }
            let step = self.table.with_partitions(|parts| {
                let part = &parts[p];
                // Bound by the construction-time snapshot: blocks
                // appended since then stay invisible to this scan.
                let snap = self.snapshot.get(p).copied().unwrap_or(0);
                let end_block = self.blocks.map_or(snap, |(_, e)| e.min(snap));
                if b >= end_block {
                    return Step::EndOfPartition;
                }
                for pred in &self.pruning {
                    let (min, max) = part.sma(pred.column, b);
                    if !self.block_survives(min, max, pred) {
                        return Step::Pruned;
                    }
                }
                Step::Read(part.block_batch(b, &self.columns, self.table.storage_env()))
            });
            match step {
                Step::EndOfPartition => {
                    self.cursor = (p + 1, self.blocks.map_or(0, |(s, _)| s));
                }
                Step::Pruned => {
                    self.blocks_pruned += 1;
                    self.cursor = (p, b + 1);
                }
                Step::Read(batch) => {
                    self.blocks_read += 1;
                    self.cursor = (p, b + 1);
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
        // [0..4) and [8..12), partition 1 holds [4..8) and [12..16).
        let m0 = drain(Box::new(ScanExec::with_blocks(
            Arc::clone(&t),
            vec![0],
            vec![],
            Some(0),
            Some((0, 1)),
        )))
        .unwrap();
        let m1 = drain(Box::new(ScanExec::with_blocks(
            Arc::clone(&t),
            vec![0],
            vec![],
            Some(0),
            Some((1, 2)),
        )))
        .unwrap();
        let rows = |bs: &[Batch]| -> Vec<i64> {
            bs.iter().flat_map(|b| b.column(0).as_int().unwrap().to_vec()).collect()
        };
        assert_eq!(rows(&m0), vec![0, 1, 2, 3]);
        assert_eq!(rows(&m1), vec![8, 9, 10, 11]);
        // An end past the real block count clamps instead of panicking.
        let tail =
            drain(Box::new(ScanExec::with_blocks(t, vec![0], vec![], Some(1), Some((1, 99)))))
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
        let mut scan = ScanExec::with_blocks(t, vec![2, 1], vec![pred], None, None);
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
