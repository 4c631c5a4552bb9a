//! The C-API surface: opaque handles and status codes.
//!
//! Shaped after the TensorFlow C-API the paper's Raven-like operator links
//! against: sessions are opaque integer handles managed by a global
//! registry, every call reports a [`TfStatus`], tensors are row-major
//! `f32` buffers. (The functions are safe Rust — the *shape* of the
//! interface is what matters for reproducing the integration cost.)

use crate::session::{RowModel, Session};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tensor::Device;

/// Status of a C-API call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TfStatus {
    Ok,
    InvalidArgument(String),
    NotFound(String),
}

impl TfStatus {
    pub fn is_ok(&self) -> bool {
        *self == TfStatus::Ok
    }
}

/// Device selector of the C-API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TfDeviceKind {
    Cpu,
    Gpu,
}

static REGISTRY: Mutex<Option<HashMap<u64, Arc<Session>>>> = Mutex::new(None);
static NEXT_HANDLE: AtomicU64 = AtomicU64::new(1);

fn with_registry<R>(f: impl FnOnce(&mut HashMap<u64, Arc<Session>>) -> R) -> R {
    let mut guard = REGISTRY.lock();
    f(guard.get_or_insert_with(HashMap::new))
}

/// Create a session from a serialized model. Returns the opaque handle.
pub fn tf_new_session(saved_model: &str, device: TfDeviceKind) -> Result<u64, TfStatus> {
    let dev = match device {
        TfDeviceKind::Cpu => Device::cpu(),
        TfDeviceKind::Gpu => Device::gpu(),
    };
    let session =
        Session::from_saved("capi", saved_model, dev).map_err(TfStatus::InvalidArgument)?;
    let handle = NEXT_HANDLE.fetch_add(1, Ordering::Relaxed);
    with_registry(|r| r.insert(handle, Arc::new(session)));
    Ok(handle)
}

/// Look up a live session.
pub fn tf_session(handle: u64) -> Result<Arc<Session>, TfStatus> {
    with_registry(|r| r.get(&handle).cloned())
        .ok_or_else(|| TfStatus::NotFound(format!("no session with handle {handle}")))
}

/// Run inference: `input` is `rows * input_dim` row-major values; the
/// output buffer is returned.
pub fn tf_session_run(handle: u64, input: &[f32], rows: usize) -> Result<Vec<f32>, TfStatus> {
    let session = tf_session(handle)?;
    session.run(input, rows).map_err(TfStatus::InvalidArgument)
}

/// Destroy a session.
pub fn tf_delete_session(handle: u64) -> TfStatus {
    let removed = with_registry(|r| r.remove(&handle)).is_some();
    if removed {
        TfStatus::Ok
    } else {
        TfStatus::NotFound(format!("no session with handle {handle}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::paper;

    #[test]
    fn handle_lifecycle() {
        let model = paper::dense_model(4, 2, 1);
        let text = nn::serial::to_string(&model);
        let h = tf_new_session(&text, TfDeviceKind::Cpu).unwrap();
        let out = tf_session_run(h, &[0.1, 0.2, 0.3, 0.4], 1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(tf_delete_session(h), TfStatus::Ok);
        assert!(matches!(tf_delete_session(h), TfStatus::NotFound(_)));
        assert!(tf_session_run(h, &[0.0; 4], 1).is_err());
    }

    #[test]
    fn invalid_model_is_rejected() {
        assert!(matches!(
            tf_new_session("garbage", TfDeviceKind::Cpu),
            Err(TfStatus::InvalidArgument(_))
        ));
    }

    #[test]
    fn gpu_session_matches_cpu_session() {
        let model = paper::dense_model(8, 2, 5);
        let text = nn::serial::to_string(&model);
        let cpu = tf_new_session(&text, TfDeviceKind::Cpu).unwrap();
        let gpu = tf_new_session(&text, TfDeviceKind::Gpu).unwrap();
        let input: Vec<f32> = (0..16).map(|i| i as f32 * 0.05).collect();
        let a = tf_session_run(cpu, &input, 4).unwrap();
        let b = tf_session_run(gpu, &input, 4).unwrap();
        assert_eq!(a, b);
        tf_delete_session(cpu);
        tf_delete_session(gpu);
    }
}
