//! The vectorized Python UDF host (paper Sec. 6.1: "In the Python UDF, we
//! load the saved model, apply it to the data using Tensorflow on the CPU
//! and return the predictions. Additionally, we optimize the UDF by using
//! Actian Vector's parallel and vectorized UDFs, i.e. calling the UDF once
//! per vector instead of once per tuple").
//!
//! Each host runs on a dedicated thread (a Python interpreter process);
//! every invocation crosses that boundary through rendezvous channels —
//! a real context switch — and serializes its arguments and results
//! through the [`crate::wire`] protocol, then boxes them into
//! [`crate::pyobject`] values before inference. A [`UdfPool`] holds the
//! hosts of one parallel UDF, so the engine's tasks invoke it at once.

use crate::pyobject::{box_row, rows_to_ndarray};
use crate::wire::{end_frame, WireEvent, WireReader, WireWriter};
use bytes::BytesMut;
use crossbeam::channel::{self, Sender};
use mlruntime::{InferScratch, RowModel, Session};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use tensor::{Device, Matrix};

/// Interpreter threads spawned, and those of them joined, process-wide.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);
static JOINED: AtomicUsize = AtomicUsize::new(0);

/// UDF interpreter threads this process has spawned so far.
pub fn hosts_spawned() -> usize {
    SPAWNED.load(Ordering::SeqCst)
}

/// UDF interpreter threads alive in this process: spawned by a
/// [`UdfPool`] and not yet joined.
pub fn hosts_live() -> usize {
    // Joins first: every host joined by then was spawned before the
    // second load.
    let joined = JOINED.load(Ordering::SeqCst);
    hosts_spawned() - joined
}

enum Request {
    Invoke { payload: BytesMut, reply: Sender<Result<BytesMut, String>> },
    Shutdown,
}

/// A handle to one UDF interpreter thread.
struct UdfHost {
    requests: Sender<Request>,
    worker: Option<std::thread::JoinHandle<()>>,
    input_dim: usize,
    output_dim: usize,
}

impl UdfHost {
    /// Spawn the interpreter and load the saved model inside it.
    fn spawn(saved_model: &str, device: Device) -> Result<UdfHost, String> {
        // Loading happens in the host like the paper's UDF ("we load the
        // saved model"); validate here to report errors synchronously.
        let session = Arc::new(Session::from_saved("udf", saved_model, device)?);
        let input_dim = session.input_dim();
        let output_dim = session.output_dim();
        let (tx, rx) = channel::bounded::<Request>(0);
        let worker = std::thread::spawn(move || {
            let mut scratch = InferScratch::default();
            while let Ok(req) = rx.recv() {
                match req {
                    Request::Shutdown => break,
                    Request::Invoke { payload, reply } => {
                        let result = serve_invoke(&session, payload, &mut scratch);
                        let _ = reply.send(result);
                    }
                }
            }
        });
        SPAWNED.fetch_add(1, Ordering::SeqCst);
        Ok(UdfHost { requests: tx, worker: Some(worker), input_dim, output_dim })
    }

    /// Invoke the UDF for one vector of row-major rows. Serializes the
    /// arguments to the wire, crosses into the interpreter thread, and
    /// parses the returned predictions.
    fn invoke(&self, input: &Matrix) -> Result<Vec<f32>, String> {
        if input.cols() != self.input_dim {
            return Err(format!(
                "UDF input has {} columns, {} expected",
                input.cols(),
                self.input_dim
            ));
        }
        // Engine → UDF serialization.
        let mut writer = WireWriter::new(self.input_dim);
        let mut row = Vec::with_capacity(self.input_dim);
        for values in input.as_slice().chunks_exact(self.input_dim.max(1)) {
            row.clear();
            row.extend(values.iter().map(|&v| v as f64));
            writer.write_row(&row);
        }
        let payload = writer.finish();
        let (reply_tx, reply_rx) = channel::bounded(0);
        self.requests
            .send(Request::Invoke { payload, reply: reply_tx })
            .map_err(|_| "UDF host is gone".to_string())?;
        let response = reply_rx.recv().map_err(|_| "UDF host died".to_string())??;
        // UDF → engine parse.
        let mut reader = WireReader::new();
        reader.feed(&response);
        let mut out = Vec::with_capacity(input.rows() * self.output_dim);
        while let Some(event) = reader.next_event()? {
            match event {
                WireEvent::Header { .. } => {}
                WireEvent::Row(values) => out.extend(values.iter().map(|&v| v as f32)),
                WireEvent::End => break,
            }
        }
        Ok(out)
    }
}

impl Drop for UdfHost {
    fn drop(&mut self) {
        let _ = self.requests.send(Request::Shutdown);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        JOINED.fetch_add(1, Ordering::SeqCst);
    }
}

/// The engine's parallel UDF: `hosts` interpreter threads, each loading
/// the saved model once when the pool is spawned. A [`RowModel::run`]
/// checks out an idle host for one invocation (one engine vector) and
/// returns it, waiting for one when all are busy; no call spawns a host.
/// Dropping the pool joins its hosts.
pub struct UdfPool {
    idle: Mutex<Vec<UdfHost>>,
    returned: Condvar,
    input_dim: usize,
    output_dim: usize,
}

impl UdfPool {
    /// Spawn `hosts` (at least one) interpreters over `saved_model`.
    pub fn spawn(saved_model: &str, device: Device, hosts: usize) -> Result<UdfPool, String> {
        let idle: Vec<UdfHost> = (0..hosts.max(1))
            .map(|_| UdfHost::spawn(saved_model, device.clone()))
            .collect::<Result<_, _>>()?;
        let (input_dim, output_dim) = (idle[0].input_dim, idle[0].output_dim);
        Ok(UdfPool { idle: Mutex::new(idle), returned: Condvar::new(), input_dim, output_dim })
    }
}

impl RowModel for UdfPool {
    fn name(&self) -> &str {
        "udf"
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn output_dim(&self) -> usize {
        self.output_dim
    }

    fn run<'s>(&self, input: &Matrix, _: &'s mut InferScratch) -> Result<Cow<'s, [f32]>, String> {
        // A push or a pop leaves the idle list valid, so a lock poisoned
        // by a panicking caller is safe to keep using.
        let host = {
            let idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            let mut idle = self
                .returned
                .wait_while(idle, |idle| idle.is_empty())
                .unwrap_or_else(PoisonError::into_inner);
            idle.pop().expect("waited for an idle host")
        };
        let result = host.invoke(input);
        self.idle.lock().unwrap_or_else(PoisonError::into_inner).push(host);
        self.returned.notify_one();
        result.map(Cow::Owned)
    }
}

/// The interpreter side of one invocation: parse → box → ndarray → predict
/// → serialize. `scratch` is the interpreter's inference arena, kept
/// across its invocations.
fn serve_invoke(
    session: &Session,
    payload: BytesMut,
    scratch: &mut InferScratch,
) -> Result<BytesMut, String> {
    let mut reader = WireReader::new();
    reader.feed(&payload);
    let mut boxed = Vec::new();
    let mut columns = session.input_dim();
    while let Some(event) = reader.next_event()? {
        match event {
            WireEvent::Header { columns: c } => columns = c,
            WireEvent::Row(values) => boxed.push(box_row(&values)),
            WireEvent::End => break,
        }
    }
    let rows = boxed.len();
    let ndarray = Matrix::from_vec(rows, columns, rows_to_ndarray(&boxed, columns)?);
    let predictions = session.run(&ndarray, scratch)?;
    let p = session.output_dim();
    let mut writer = WireWriter::new(p);
    for r in 0..rows {
        let row: Vec<f64> = predictions[r * p..(r + 1) * p].iter().map(|&v| v as f64).collect();
        writer.write_row(&row);
    }
    let mut out = writer.take_chunk();
    out.extend_from_slice(&end_frame());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::paper;

    fn pool(model: &nn::Model) -> UdfPool {
        UdfPool::spawn(&nn::serial::to_string(model), Device::cpu(), 1).unwrap()
    }

    #[test]
    fn udf_matches_oracle_per_vector() {
        let model = paper::dense_model(8, 2, 12);
        let udf = pool(&model);
        assert_eq!(udf.input_dim(), 4);
        let rows: Vec<f32> = (0..37 * 4).map(|i| ((i / 4 + i % 4) as f32 * 0.29).cos()).collect();
        let preds = udf
            .run(&Matrix::from_vec(37, 4, rows.clone()), &mut InferScratch::default())
            .unwrap()
            .into_owned();
        assert_eq!(preds.len(), 37);
        for (r, row) in rows.chunks(4).enumerate() {
            let expected = model.predict_row(row)[0];
            assert!((preds[r] - expected).abs() < 1e-5, "row {r}");
        }
    }

    #[test]
    fn multiple_invocations_reuse_the_host() {
        let udf = pool(&paper::dense_model(4, 2, 2));
        for _ in 0..3 {
            let row = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]);
            assert_eq!(udf.run(&row, &mut InferScratch::default()).unwrap().len(), 1);
        }
    }

    #[test]
    fn empty_vector_invocation() {
        let udf = pool(&paper::dense_model(4, 2, 2));
        assert!(udf.run(&Matrix::zeros(0, 4), &mut InferScratch::default()).unwrap().is_empty());
    }

    #[test]
    fn wrong_arity_row_is_an_error_not_a_panic() {
        let udf = pool(&paper::dense_model(4, 2, 2));
        let rows = Matrix::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.1, 0.2]);
        let err = udf.run(&rows, &mut InferScratch::default()).unwrap_err();
        assert!(err.contains("3 columns, 4 expected"), "{err}");
        // The host still serves well-formed vectors afterwards.
        let row = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(udf.run(&row, &mut InferScratch::default()).unwrap().len(), 1);
    }

    #[test]
    fn bad_model_fails_at_spawn() {
        assert!(UdfPool::spawn("garbage", Device::cpu(), 2).is_err());
    }
}
