//! Closed-loop load generation against a serving front end.
//!
//! `serve_sweep` (and the served-mode tests) drive a [`Server`] with N
//! concurrent clients, each submitting its next request only after the
//! previous one completed — the classic closed-loop model, so offered load
//! scales with client count and the server's admission control is
//! exercised by bursts rather than by an unbounded open arrival stream.
//! Rejected submissions ([`ServeError::Overloaded`]) are retried after a
//! short backoff and counted, so the measured throughput is goodput.

use serve::{Response, ServeError, Server};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parameters of one closed-loop measurement.
#[derive(Clone, Copy, Debug)]
pub struct ServeLoadConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues before stopping.
    pub requests_per_client: usize,
    /// Per-request deadline handed to the server (None = no deadline).
    pub timeout: Option<Duration>,
}

/// Outcome of one closed-loop measurement.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeLoadStats {
    /// Requests that completed with a prediction.
    pub completed: usize,
    /// Requests that completed with [`ServeError::Timeout`].
    pub timeouts: usize,
    /// Overload rejections that were retried (admission-control pressure).
    pub overload_retries: usize,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median submit-to-response latency.
    pub p50_us: u64,
    /// 99th-percentile submit-to-response latency.
    pub p99_us: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Run `load.clients` closed-loop clients against `server`, cycling
/// through `inputs` for request payloads. Panics on unexpected serving
/// errors (the load driver is test/bench infrastructure: anything but
/// overload, timeout, or shutdown is a bug worth failing loudly on).
pub fn drive_closed_loop(
    server: &Server,
    model: &str,
    inputs: &[Vec<f32>],
    load: &ServeLoadConfig,
) -> ServeLoadStats {
    assert!(!inputs.is_empty(), "need at least one input row");
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let timeouts = Mutex::new(0usize);
    let retries = Mutex::new(0usize);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for client in 0..load.clients {
            let latencies = &latencies;
            let timeouts = &timeouts;
            let retries = &retries;
            scope.spawn(move || {
                let mut my_lat = Vec::with_capacity(load.requests_per_client);
                let mut my_timeouts = 0usize;
                let mut my_retries = 0usize;
                for r in 0..load.requests_per_client {
                    let input = &inputs[(client + r * load.clients) % inputs.len()];
                    let t0 = Instant::now();
                    let handle = loop {
                        match server.submit_predict_with_timeout(model, input.clone(), load.timeout)
                        {
                            Ok(h) => break h,
                            Err(ServeError::Overloaded { .. }) => {
                                my_retries += 1;
                                std::thread::sleep(Duration::from_micros(50));
                            }
                            Err(e) => panic!("client {client}: submit failed: {e}"),
                        }
                    };
                    match handle.wait() {
                        Ok(Response::Prediction(_)) => {
                            my_lat.push(t0.elapsed().as_micros() as u64);
                        }
                        Ok(other) => panic!("client {client}: unexpected response {other:?}"),
                        Err(ServeError::Timeout) => my_timeouts += 1,
                        Err(e) => panic!("client {client}: request failed: {e}"),
                    }
                }
                latencies.lock().expect("latency lock").extend(my_lat);
                *timeouts.lock().expect("timeout lock") += my_timeouts;
                *retries.lock().expect("retry lock") += my_retries;
            });
        }
    });

    let wall = start.elapsed();
    let mut lat = latencies.into_inner().expect("latency lock");
    lat.sort_unstable();
    ServeLoadStats {
        completed: lat.len(),
        timeouts: timeouts.into_inner().expect("timeout lock"),
        overload_retries: retries.into_inner().expect("retry lock"),
        wall,
        throughput_rps: lat.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    }
}

/// Parameters of one mixed SQL + inference closed-loop measurement.
#[derive(Clone, Debug)]
pub struct MixedLoadConfig {
    /// Closed-loop clients issuing the analytical SQL query.
    pub sql_clients: usize,
    /// Closed-loop clients issuing single-row predictions.
    pub predict_clients: usize,
    /// Measurement window: every client issues requests closed-loop until
    /// it expires. Time-bounded (not count-bounded) so a fast class keeps
    /// offering load for the whole run and total goodput reflects both
    /// classes — with fixed counts the faster class finishes early and the
    /// measurement degenerates to the slow class's completion time.
    pub duration: Duration,
    /// The SQL text every SQL client submits (a scan/aggregate — the
    /// long-running class the scheduler must not let starve serving).
    pub sql: String,
}

/// Latency/throughput of one request class within a mixed run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassStats {
    pub completed: usize,
    pub overload_retries: usize,
    pub throughput_rps: f64,
    pub p50_us: u64,
    pub p99_us: u64,
}

/// Outcome of one mixed closed-loop measurement.
#[derive(Clone, Copy, Debug, Default)]
pub struct MixedLoadStats {
    pub wall: Duration,
    /// Completed requests per second across both classes.
    pub total_rps: f64,
    pub sql: ClassStats,
    pub predict: ClassStats,
}

fn class_stats(mut lat: Vec<u64>, retries: usize, wall: Duration) -> ClassStats {
    lat.sort_unstable();
    ClassStats {
        completed: lat.len(),
        overload_retries: retries,
        throughput_rps: lat.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    }
}

/// Drive a mixed workload: `sql_clients` closed-loop clients hammer the
/// server with an analytical query while `predict_clients` submit
/// single-row inferences, all concurrently. This is the scheduler's
/// contention case — long scan morsels competing with latency-sensitive
/// serve batches for the same compute threads — and the measurement the
/// `mixed_sweep` bench reports.
pub fn drive_mixed_loop(
    server: &Server,
    model: &str,
    inputs: &[Vec<f32>],
    load: &MixedLoadConfig,
) -> MixedLoadStats {
    assert!(!inputs.is_empty(), "need at least one input row");
    let sql_lat: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let predict_lat: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let sql_retries = Mutex::new(0usize);
    let predict_retries = Mutex::new(0usize);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for client in 0..load.sql_clients {
            let (sql_lat, sql_retries, sql) = (&sql_lat, &sql_retries, load.sql.as_str());
            scope.spawn(move || {
                let mut my_lat = Vec::new();
                let mut my_retries = 0usize;
                while start.elapsed() < load.duration {
                    let t0 = Instant::now();
                    let handle = loop {
                        match server.submit_sql(sql) {
                            Ok(h) => break h,
                            Err(ServeError::Overloaded { .. }) => {
                                my_retries += 1;
                                std::thread::sleep(Duration::from_micros(50));
                            }
                            Err(e) => panic!("sql client {client}: submit failed: {e}"),
                        }
                    };
                    match handle.wait() {
                        Ok(Response::Rows(_)) => my_lat.push(t0.elapsed().as_micros() as u64),
                        Ok(other) => panic!("sql client {client}: unexpected {other:?}"),
                        Err(e) => panic!("sql client {client}: request failed: {e}"),
                    }
                }
                sql_lat.lock().expect("sql latency lock").extend(my_lat);
                *sql_retries.lock().expect("sql retry lock") += my_retries;
            });
        }
        for client in 0..load.predict_clients {
            let (predict_lat, predict_retries) = (&predict_lat, &predict_retries);
            scope.spawn(move || {
                let mut my_lat = Vec::new();
                let mut my_retries = 0usize;
                let mut r = 0usize;
                while start.elapsed() < load.duration {
                    let input = &inputs[(client + r * load.predict_clients.max(1)) % inputs.len()];
                    r += 1;
                    let t0 = Instant::now();
                    let handle = loop {
                        match server.submit_predict(model, input.clone()) {
                            Ok(h) => break h,
                            Err(ServeError::Overloaded { .. }) => {
                                my_retries += 1;
                                std::thread::sleep(Duration::from_micros(50));
                            }
                            Err(e) => panic!("predict client {client}: submit failed: {e}"),
                        }
                    };
                    match handle.wait() {
                        Ok(Response::Prediction(_)) => {
                            my_lat.push(t0.elapsed().as_micros() as u64);
                        }
                        Ok(other) => panic!("predict client {client}: unexpected {other:?}"),
                        Err(e) => panic!("predict client {client}: request failed: {e}"),
                    }
                }
                predict_lat.lock().expect("predict latency lock").extend(my_lat);
                *predict_retries.lock().expect("predict retry lock") += my_retries;
            });
        }
    });

    let wall = start.elapsed();
    let sql = class_stats(
        sql_lat.into_inner().expect("sql latency lock"),
        sql_retries.into_inner().expect("sql retry lock"),
        wall,
    );
    let predict = class_stats(
        predict_lat.into_inner().expect("predict latency lock"),
        predict_retries.into_inner().expect("predict retry lock"),
        wall,
    );
    MixedLoadStats {
        wall,
        total_rps: (sql.completed + predict.completed) as f64 / wall.as_secs_f64().max(1e-9),
        sql,
        predict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig, Workload};
    use serve::ServeConfig;
    use tensor::Device;
    use vector_engine::EngineConfig;

    #[test]
    fn closed_loop_completes_every_request() {
        let config = ExperimentConfig {
            engine: EngineConfig {
                vector_size: 32,
                partitions: 2,
                parallelism: 2,
                ..Default::default()
            },
            ..ExperimentConfig::new(Workload::Dense { width: 4, depth: 2 }, 8)
        };
        let ex = Experiment::build(config).unwrap();
        let server = ex.serve(ServeConfig { queue_depth: 8, max_batch_rows: 8 }, Device::cpu());
        let inputs: Vec<Vec<f32>> =
            (0..16).map(|i| vec![0.1 * i as f32; ex.meta.input_dim]).collect();
        let load = ServeLoadConfig { clients: 4, requests_per_client: 25, timeout: None };
        let stats = drive_closed_loop(&server, "model", &inputs, &load);
        assert_eq!(stats.completed, 100, "{stats:?}");
        assert_eq!(stats.timeouts, 0);
        assert!(stats.throughput_rps > 0.0);
        assert!(stats.p50_us <= stats.p99_us);
        // The small queue (depth 8 vs 4 clients) must never deadlock;
        // retries are allowed, drops are not.
        let sstats = server.stats();
        assert_eq!(sstats.completed, 100);
    }

    #[test]
    fn mixed_loop_serves_both_classes() {
        let config = ExperimentConfig {
            engine: EngineConfig {
                vector_size: 32,
                partitions: 2,
                parallelism: 2,
                ..Default::default()
            },
            ..ExperimentConfig::new(Workload::Dense { width: 4, depth: 2 }, 64)
        };
        let ex = Experiment::build(config).unwrap();
        let server = ex.serve(ServeConfig::from_engine(&ex.config().engine), Device::cpu());
        let inputs: Vec<Vec<f32>> =
            (0..8).map(|i| vec![0.1 * i as f32; ex.meta.input_dim]).collect();
        let load = MixedLoadConfig {
            sql_clients: 1,
            predict_clients: 2,
            duration: Duration::from_millis(150),
            sql: "SELECT COUNT(*) AS n FROM facts".to_string(),
        };
        let stats = drive_mixed_loop(&server, "model", &inputs, &load);
        server.shutdown();
        assert!(stats.sql.completed > 0, "{stats:?}");
        assert!(stats.predict.completed > 0, "{stats:?}");
        assert!(stats.total_rps > 0.0);
        assert!(stats.sql.p50_us <= stats.sql.p99_us);
        assert!(stats.predict.p50_us <= stats.predict.p99_us);
        let sstats = server.stats();
        assert_eq!(sstats.submitted, sstats.completed, "every request completed");
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 100);
        // Nearest-rank on 0-based index: (99 * 0.5).round() = 50 → value 51.
        assert_eq!(percentile(&v, 0.5), 51);
    }
}
