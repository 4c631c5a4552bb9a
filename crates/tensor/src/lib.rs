//! BLAS-like dense linear algebra for the in-database ML reproduction.
//!
//! The paper's native ModelJoin operator (Sec. 5) performs its vectorized
//! inference through the BLAS interface (Intel MKL on the CPU, cuBLAS on the
//! GPU). This crate is the stand-in for both: it provides the kernels
//! Listing 5 of the paper needs (`sgemm` and the activations) over
//! row-major `f32` matrices — a model keeps its weights "already in a
//! transposed way" (Sec. 5.4), so no GEMM transposes an operand — weight
//! matrices packed once for a fused bias-and-activation GEMM
//! ([`PackedMatrix`]), plus a [`device::Device`] abstraction with a real
//! CPU backend and a *simulated* GPU backend. Listing 5's element-wise
//! `vsMul`/`vsAdd` calls have no kernel of their own: the LSTM cell runs
//! them as one fused pass that [`Device::elementwise`] charges as the
//! separate kernels.
//!
//! The simulated GPU executes the identical arithmetic on the host (so every
//! approach in the repository is bit-comparable) while charging a calibrated
//! cost model — kernel launch latency, effective FLOP throughput, PCIe
//! transfer time — to a virtual device clock. See [`device`] for the
//! accounting rules and DESIGN.md §2 for the substitution rationale.
//!
//! Every kernel runs on its caller's thread. The engine's parallelism is
//! its partition fan-out (the paper's "parallelism level"): each morsel
//! runs its GEMMs whole, so this crate owns no threads and submits no
//! work to the scheduler.

pub mod activation;
pub mod blas;
pub mod device;
pub mod matrix;
mod microkernel;
mod pack;
mod packed;
pub mod quant;
mod simd;

pub use activation::Activation;
pub use device::{Device, DeviceKind, DeviceReport, GpuModel};
pub use matrix::{Matrix, MatrixView};
pub use pack::MR;
pub use packed::{Init, PackedMatrix};
pub use quant::{qgemm_dense, QuantScratch, QuantizedWeights};
pub use simd::{f32_kernel_name, i8_kernel_name};

/// No-op: kernels run on their caller's thread. Kept only because
/// `benchmark/src/probes.rs` (frozen outside `benchmark` PRs) calls it;
/// the next `benchmark` PR drops the call and this function.
pub fn set_unified_scheduler(_on: bool) {}

/// No-op: a GEMM never splits across threads. Kept only because
/// `benchmark/src/probes.rs` (frozen outside `benchmark` PRs) calls it;
/// the next `benchmark` PR drops the call and this function.
pub fn set_kernel_threads(_n: usize) {}
