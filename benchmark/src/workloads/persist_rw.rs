//! `persist_rw`: the operator's view of `data_dir`. One client (so page,
//! byte and fsync counts repeat exactly) mixes range reads that fit the
//! buffer pool, full-table reads that are four times the pool, and
//! durable inserts, with a checkpoint every 256 inserts. Reads that fit
//! the cache, reads that do not, and writes share one buffer pool, one
//! WAL and one DML lock — a gain for scans bought with insert latency, or
//! for ingest bought with space, shows. Nothing above `vector-engine`
//! runs.
//!
//! Sizes against the cache: 262,144 rows × (id + 8 floats) ≈ 1,294 data
//! pages against a 324-page pool (¼); the hot region is 64 pages.
//!
//! The table grows under the inserts (a 64-row insert takes a page per
//! column), and scans slow down with it. So that a value does not depend
//! on how many inserts a faster or slower host fitted into a window,
//! every window starts from a freshly loaded fixture and runs a fixed
//! number of operations: the state a window passes through is the same in
//! every window of every run.

use std::path::{Path, PathBuf};
use std::time::Instant;

use vector_engine::{Engine, EngineConfig, QueryResult, Value};

use super::{push_latency, timed, Leg, LegOut, Replay};
use crate::gen::{self, Rng};
use crate::stats;
use crate::trace;

pub const ROWS: usize = 262_144;
pub const POOL_PAGES: usize = 324;
pub const FLOAT_COLS: usize = 8;
pub const ROW_BYTES: u64 = 8 * (1 + FLOAT_COLS as u64);
pub const INSERT_ROWS: usize = 64;
pub const CHECKPOINT_EVERY: usize = 256;
/// Insert records the WAL holds when the crash image is cut, so that
/// every recovery replays the same amount of log.
pub const CRASH_WAL_INSERTS: usize = 192;
/// Operation mix per block of 50: hot range aggregates, full-table
/// aggregates, durable inserts (see README for why the full-table share
/// is 2 % and not the 10 % first proposed). The order inside a block is
/// seeded; the shares are exact, so every window sees the same mix.
const BLOCK: [(Op, usize); 3] = [(Op::Hot, 29), (Op::Full, 1), (Op::Insert, 20)];
const BLOCK_OPS: usize = 50;
/// Blocks a window runs per second of its nominal length: what the
/// reference host gets through, so that a run measures for about the
/// seconds it was asked to.
const BLOCKS_PER_SECOND: f64 = 9.0;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Hot,
    Full,
    Insert,
}
const FULL_SQL: &str = "SELECT COUNT(*), SUM(c0) FROM facts";
const CHECK_SQL: &str = "SELECT COUNT(*), SUM(id) FROM facts";

pub struct PersistLeg {
    dir: PathBuf,
    config: EngineConfig,
    engine: Option<Engine>,
    seed: u64,
    base_rows: usize,
    /// Fixtures loaded so far; salts the operation streams, so that every
    /// window draws a sequence of its own.
    loads: u64,
    next_id: i64,
    /// Acknowledged state: rows and the sum of their ids.
    acked_rows: i64,
    acked_id_sum: i64,
    since_checkpoint: usize,
    /// WAL size at the last two acknowledgements.
    wal_acks: [u64; 2],
    insert_rng: Rng,
    /// Draws hot ranges and shuffles blocks.
    mix_rng: Rng,
}

fn int_at(r: &QueryResult, col: usize) -> Option<i64> {
    match r.row(0).get(col) {
        Some(Value::Int(v)) => Some(*v),
        // SUM over an INT column may come back as a float.
        Some(Value::Float(f)) => Some(*f as i64),
        _ => None,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl PersistLeg {
    pub fn engine(&self) -> &Engine {
        self.engine.as_ref().expect("engine is open")
    }

    /// A hot range starting at offset `at` (a draw in `[0, 1)`) into the
    /// part of the hot region a range can start in.
    fn hot_sql(&self, at: f64) -> String {
        let a = (self.base_rows / 2) as i64 + (at * (self.range_rows() * 3 / 4) as f64) as i64;
        format!(
            "SELECT COUNT(*), SUM(c0) FROM facts WHERE id BETWEEN {a} AND {}",
            a + self.range_rows() - 1
        )
    }

    /// Rows per hot range: 64 of the ~1,294 pages, i.e. 1/20 of the rows,
    /// hold the hot region, and a range covers 4/7 of it. The region sits
    /// in the middle of the table whatever the seed, so that how its
    /// ranges fall across block boundaries is part of the workload and
    /// not of the seed; the seed draws where in the region a range starts.
    fn range_rows(&self) -> i64 {
        (self.base_rows / 32) as i64
    }

    /// One acknowledged durable insert of [`INSERT_ROWS`] rows.
    pub fn insert(&mut self, request_id: u64) -> f64 {
        let cols =
            gen::fact_columns(&mut self.insert_rng, self.next_id, INSERT_ROWS, FLOAT_COLS, false);
        let engine = self.engine.as_ref().expect("engine is open");
        let (n, us) = timed("sql.Engine.insert_columns", request_id, || {
            engine.insert_columns("facts", cols).expect("durable insert")
        });
        assert_eq!(n, INSERT_ROWS);
        let last = self.next_id + INSERT_ROWS as i64 - 1;
        self.acked_id_sum += (self.next_id + last) * INSERT_ROWS as i64 / 2;
        self.acked_rows += INSERT_ROWS as i64;
        self.next_id = last + 1;
        self.since_checkpoint += 1;
        self.wal_acks = [self.wal_acks[1], engine.wal_size().expect("persistent engine")];
        us
    }

    pub fn checkpoint(&mut self, request_id: u64) -> f64 {
        let engine = self.engine.as_ref().expect("engine is open");
        let (_, us) = timed("storage.Engine.checkpoint", request_id, || {
            engine.checkpoint().expect("checkpoint")
        });
        self.since_checkpoint = 0;
        // The WAL starts over: the next acknowledgement is measured from
        // its new beginning.
        self.wal_acks = [0, engine.wal_size().expect("persistent engine")];
        us
    }

    /// Build the crash image and recover from it three times. The image is
    /// the data files and the directory as they are, plus the WAL cut in
    /// the middle of the last insert's record group: the benchmark, not a
    /// process kill, discards what was never acknowledged. Returns the
    /// recovery times in seconds, the WAL records replayed per recovery,
    /// and whether every acknowledged row came back.
    pub fn crash_recovery(&mut self) -> (Vec<f64>, u64, bool) {
        if self.since_checkpoint > CRASH_WAL_INSERTS {
            self.checkpoint(0);
        }
        while self.since_checkpoint < CRASH_WAL_INSERTS {
            self.insert(0);
        }
        // The last insert is the one in flight at the crash.
        let cut = (self.wal_acks[0] + self.wal_acks[1]) / 2;
        let last_first_id = self.next_id - INSERT_ROWS as i64;
        let lost_sum = (last_first_id + self.next_id - 1) * INSERT_ROWS as i64 / 2;
        let want = (self.acked_rows - INSERT_ROWS as i64, self.acked_id_sum - lost_sum);

        let image = self.dir.with_file_name(format!(
            "{}-crash-image",
            self.dir.file_name().and_then(|n| n.to_str()).unwrap_or("persist")
        ));
        let mut times = Vec::new();
        let mut replayed = 0;
        let mut ok = true;
        let _ = std::fs::remove_dir_all(&image);
        std::fs::create_dir_all(&image).expect("crash image dir");
        let wal = std::fs::read(self.dir.join("wal.log")).expect("read wal");
        for round in 0..3 {
            // Replay re-allocates the same pages every time, so the data
            // files are copied once; the cut WAL and the directory, which
            // recovery may rewrite, are restored before every round.
            for entry in std::fs::read_dir(&self.dir).expect("data dir").flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name == "directory.bin" || (round == 0 && name.starts_with("data.idb")) {
                    std::fs::copy(entry.path(), image.join(&*name)).expect("copy data file");
                }
            }
            std::fs::write(image.join("wal.log"), &wal[..cut as usize]).expect("cut wal");
            let config = EngineConfig {
                data_dir: Some(image.to_string_lossy().into_owned()),
                ..self.config.clone()
            };
            let records = obs::metrics::STORAGE_RECOVERY_RECORDS_REPLAYED.get();
            let t = Instant::now();
            let recovered =
                trace::within("storage.Engine.open", 0, || Engine::open(config)).expect("recovery");
            let first = recovered.execute(CHECK_SQL).expect("first query after recovery");
            times.push(t.elapsed().as_secs_f64());
            replayed = obs::metrics::STORAGE_RECOVERY_RECORDS_REPLAYED.get() - records;
            ok &= (int_at(&first, 0), int_at(&first, 1)) == (Some(want.0), Some(want.1));
        }
        let _ = std::fs::remove_dir_all(&image);
        (times, replayed, ok)
    }
}

pub fn boxed(seed: u64, dir: &Path) -> Box<dyn Leg> {
    Box::new(PersistLeg::setup(seed, ROWS, POOL_PAGES, dir))
}

impl PersistLeg {
    pub fn setup(seed: u64, base_rows: usize, pool_pages: usize, dir: &Path) -> Self {
        let config = EngineConfig {
            data_dir: Some(dir.to_string_lossy().into_owned()),
            buffer_pool_pages: pool_pages,
            wal_fsync: true,
            ..EngineConfig::default()
        };
        let mut leg = PersistLeg {
            dir: dir.to_path_buf(),
            config,
            engine: None,
            seed,
            base_rows,
            loads: 0,
            next_id: 0,
            acked_rows: 0,
            acked_id_sum: 0,
            since_checkpoint: 0,
            wal_acks: [0, 0],
            insert_rng: Rng::new(seed, 5),
            mix_rng: Rng::new(seed, 7),
        };
        leg.load();
        leg
    }

    /// Start over from an empty directory: bulk load and checkpoint.
    fn load(&mut self) {
        drop(self.engine.take());
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir).expect("data dir");
        let engine = Engine::open(self.config.clone()).expect("open data dir");
        engine.execute(&gen::facts_ddl("facts", FLOAT_COLS)).expect("facts ddl");
        let rows = self.base_rows;
        let cols = gen::fact_columns(&mut Rng::new(self.seed, 1), 0, rows, FLOAT_COLS, false);
        engine.insert_columns("facts", cols).expect("bulk load");
        engine.checkpoint().expect("checkpoint after load");
        self.engine = Some(engine);
        self.loads += 1;
        let base = rows as i64;
        (self.next_id, self.acked_rows, self.acked_id_sum) = (base, base, (base - 1) * base / 2);
        (self.since_checkpoint, self.wal_acks) = (0, [0, 0]);
        self.insert_rng = Rng::new(self.seed + self.loads, 5);
        self.mix_rng = Rng::new(self.seed + self.loads, 7);
    }

    /// Untimed hot ranges, at least three, which leave the hot region in
    /// the pool; with `full_scans`, a full-table aggregate among every 64.
    /// Returns whether every answer counted the rows it should.
    fn warm(&mut self, seconds: f64, full_scans: bool) -> bool {
        let t = Instant::now();
        let mut ok = true;
        let mut ops = 0;
        while ops < 3 || t.elapsed().as_secs_f64() < seconds {
            let at = self.mix_rng.unit();
            let hot = self.engine().execute_cached(&self.hot_sql(at)).expect("hot range");
            ok &= int_at(&hot, 0) == Some(self.range_rows());
            if full_scans && ops % 64 == 0 {
                let full = self.engine().execute_cached(FULL_SQL).expect("full aggregate");
                ok &= int_at(&full, 0) == Some(self.acked_rows);
            }
            ops += 1;
        }
        ok
    }
}

impl Leg for PersistLeg {
    fn name(&self) -> &'static str {
        "persist_rw"
    }

    fn warm_and_check(&mut self) -> bool {
        self.warm(1.0, true)
    }

    fn prepare(&mut self) {
        self.load();
        self.warm(0.0, false);
    }

    fn window(&mut self, seconds: f64) -> LegOut {
        let blocks = ((seconds * BLOCKS_PER_SECOND).round() as usize).max(1);
        let start = Instant::now();
        let (mut hot, mut full, mut inserts) = (Vec::new(), Vec::new(), Vec::new());
        let mut block_rates = Vec::new();
        let mut out = LegOut::new();
        for _ in 0..blocks {
            let mut busy_us = 0.0;
            let mut block: Vec<Op> =
                BLOCK.iter().flat_map(|&(op, n)| std::iter::repeat_n(op, n)).collect();
            self.mix_rng.shuffle(&mut block);
            for op in block {
                out.attempted += 1;
                let id = self.loads << 32 | out.attempted;
                let (us, ok) = if op == Op::Hot {
                    let at = self.mix_rng.unit();
                    let sql = self.hot_sql(at);
                    let engine = self.engine();
                    let (r, us) =
                        timed("sql.Engine.execute_cached", id, || engine.execute_cached(&sql));
                    hot.push(us);
                    (us, r.is_ok_and(|r| int_at(&r, 0) == Some(self.range_rows())))
                } else if op == Op::Full {
                    let engine = self.engine();
                    let (r, us) =
                        timed("sql.Engine.execute_cached", id, || engine.execute_cached(FULL_SQL));
                    // The table grows under the inserts: rate each scan
                    // by the rows it read.
                    full.push(self.acked_rows as f64 / (us / 1e6));
                    (us, r.is_ok_and(|r| int_at(&r, 0) == Some(self.acked_rows)))
                } else {
                    let mut us = self.insert(id);
                    inserts.push(us);
                    if self.since_checkpoint >= CHECKPOINT_EVERY {
                        // Not part of any insert's latency, but time the
                        // client cannot spend on operations.
                        us += self.checkpoint(id);
                    }
                    (us, true)
                };
                out.failed += u64::from(!ok);
                busy_us += us;
            }
            // A block is the slice `ops_per_s` is read over: every block
            // does the same 50 operations.
            block_rates.push(BLOCK_OPS as f64 / (busy_us / 1e6));
        }
        let took = start.elapsed().as_secs_f64();
        out.ops = out.attempted - out.failed;
        out.result_rows = (hot.len() + full.len()) as u64;
        out.inserts = inserts.len() as u64;
        out.inserted_bytes = out.inserts * INSERT_ROWS as u64 * ROW_BYTES;
        let ops_per_s = stats::upper_quartile(&block_rates);
        let rows_per_s = stats::upper_quartile(&full);
        out.e2e.extend(block_rates.iter().map(|&r| ("ops_per_s", r)));
        out.e2e.extend(full.iter().map(|&r| ("rows_per_s", r)));
        let hot = push_latency(&mut out, &hot, "sql_p50_us", "sql_p99_us");
        let inserted = push_latency(&mut out, &inserts, "insert_p50_us", "insert_p99_us");
        // Space, after the window's final checkpoint: the same inserts
        // have been made in every window, so the ratio repeats exactly.
        self.checkpoint(0);
        let (disk, user) = (dir_bytes(&self.dir), self.acked_rows as u64 * ROW_BYTES);
        out.e2e.push(("disk_bytes_per_user_byte", disk as f64 / user as f64));
        println!(
            "    one client, {blocks} blocks of 29/1/20 hot range/full aggregate/insert in {took:.2} s: \
             upper-quartile block {ops_per_s:.1} ops/s, median {:.1}; attempted {}, failed {}; {}\n      hot range aggregate: {hot}\n      \
             durable insert: {inserted}\n      full-table aggregate: upper quartile {rows_per_s:.0} rows/s, median {:.0}, n {}; the table \
             ends at {} rows, {disk} bytes on disk for {user} user bytes",
            stats::median(&block_rates),
            out.attempted,
            out.failed,
            crate::spec::FLUSH_POLICY,
            stats::median(&full),
            full.len(),
            self.acked_rows
        );
        out
    }

    fn finish(&mut self, out: &mut LegOut) {
        let live = self.engine().execute(CHECK_SQL).expect("count after the phase");
        let counted = (int_at(&live, 0), int_at(&live, 1));
        let live_ok = counted == (Some(self.acked_rows), Some(self.acked_id_sum));
        println!(
            "    COUNT(*), SUM(id) = {counted:?}; acknowledged {} rows, id sum {}: {}",
            self.acked_rows,
            self.acked_id_sum,
            if live_ok { "equal" } else { "DIFFERENT" }
        );
        let (recoveries, replayed, recovered_ok) = self.crash_recovery();
        println!(
            "    crash image (WAL cut inside the last insert): recovery {:.4} s (median of {}), \
             {replayed} WAL records replayed, every acknowledged row present: {recovered_ok}",
            stats::median(&recoveries),
            recoveries.len()
        );
        out.correct &= live_ok && recovered_ok;
        out.e2e.extend(recoveries.into_iter().map(|s| ("recovery_s", s)));
    }

    fn replay(&mut self) -> Vec<Replay> {
        // Hot range: the cached statement against its plan run directly.
        let sql = self.hot_sql(0.5);
        let engine = self.engine();
        let plan = engine.plan(&sql).expect("plan");
        engine.execute_cached(&sql).expect("warm the plan cache");
        let (mut root, mut exec) = (Vec::new(), Vec::new());
        for i in 0..32u64 {
            let id = 3_000_000 + i;
            root.push(timed("sql.Engine.execute_cached", id, || engine.execute_cached(&sql)).1);
            let _replay = trace::span("replay.hot_range", id);
            exec.push(timed("exec.Engine.execute_plan", id, || engine.execute_plan(&plan)).1);
        }
        let hot = Replay {
            op: "hot range aggregate",
            root_us: stats::median(&root),
            children: vec![("execute_plan", stats::median(&exec))],
        };
        // Durable insert: the engine's insert against the same bytes
        // appended and committed on a WAL of the benchmark's own.
        let wal_path = self.dir.with_extension("replay-wal");
        let _ = std::fs::remove_file(&wal_path);
        let (wal, _) = storage::wal::Wal::open(&wal_path, true, 0).expect("private wal");
        let (mut root, mut append, mut commit) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..32u64 {
            let id = 3_100_000 + i;
            root.push(self.insert(id));
            let payload = vec![0u8; (self.wal_acks[1] - self.wal_acks[0]) as usize];
            let _replay = trace::span("replay.insert", id);
            let ((_, end), us) =
                timed("storage.Wal.append", id, || wal.append(1, &payload).expect("wal append"));
            append.push(us);
            commit.push(timed("storage.Wal.commit", id, || wal.commit(end).expect("commit")).1);
        }
        drop(wal);
        let _ = std::fs::remove_file(&wal_path);
        let insert = Replay {
            op: "durable insert",
            root_us: stats::median(&root),
            children: vec![
                ("wal append", stats::median(&append)),
                ("wal commit", stats::median(&commit)),
            ],
        };
        vec![hot, insert]
    }
}

impl Drop for PersistLeg {
    fn drop(&mut self) {
        // Close the files before removing them: a run leaves nothing in
        // the checkout but its trace.
        drop(self.engine.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
