//! Execution devices: a real CPU backend and a calibrated simulated GPU.
//!
//! The evaluation host of the paper pairs an AMD EPYC CPU with an NVIDIA A100
//! over PCIe. This environment has no GPU, so the GPU variant of every
//! approach is reproduced by *simulation* (DESIGN.md §2): the arithmetic is
//! executed on the host — producing exactly the values a real device would —
//! while a virtual device clock accrues the time the modeled A100 would have
//! spent (kernel launches, FLOP throughput, PCIe transfers).
//!
//! Accounting rule: for a GPU run the reported runtime is
//! `total_wall − device_section_wall + device_section_modeled`
//! (see [`Device::adjust`]). CPU runs are pure wall time; the adjustment is
//! the identity, and a CPU device times nothing.
//!
//! The modeled device charges the kernels the paper's operator launches
//! (Sec. 5.4), whatever the host fuses: [`Device::dense`] times one fused
//! GEMM and charges the bias copy, the `sgemm` and the activation kernel;
//! [`Device::elementwise`] times one fused pass and charges each of the
//! element-wise kernels it stands for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::activation::Activation;
use crate::blas;

/// Which physical (or simulated) device a [`Device`] represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    Cpu,
    Gpu,
}

impl DeviceKind {
    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::Cpu => "CPU",
            DeviceKind::Gpu => "GPU",
        }
    }
}

/// Cost model of the simulated GPU.
///
/// Defaults are calibrated to the paper's NVIDIA A100-PCIe-40GB from public
/// spec sheets, derated to typically achieved effective rates:
/// fp32 peak 19.5 TFLOP/s → ~9 TFLOP/s effective SGEMM; HBM2e 1.55 TB/s →
/// ~0.9 TB/s effective for element-wise streams; PCIe 4.0 x16 31.5 GB/s raw →
/// ~12 GB/s effective host↔device including driver overhead.
#[derive(Clone, Copy, Debug)]
pub struct GpuModel {
    /// Effective host↔device bandwidth in bytes/second.
    pub pcie_bandwidth: f64,
    /// Fixed per-transfer latency in seconds.
    pub transfer_latency: f64,
    /// Fixed per-kernel launch overhead in seconds.
    pub kernel_launch: f64,
    /// Effective dense-matmul throughput in FLOP/second.
    pub gemm_throughput: f64,
    /// Effective element-wise kernel throughput in bytes/second
    /// (counting bytes read + written).
    pub elementwise_bandwidth: f64,
}

impl GpuModel {
    /// The paper's evaluation GPU.
    pub fn a100() -> Self {
        GpuModel {
            pcie_bandwidth: 12.0e9,
            transfer_latency: 10.0e-6,
            kernel_launch: 8.0e-6,
            gemm_throughput: 9.0e12,
            elementwise_bandwidth: 0.9e12,
        }
    }

    fn transfer_time(&self, bytes: usize) -> f64 {
        self.transfer_latency + bytes as f64 / self.pcie_bandwidth
    }

    fn gemm_time(&self, flops: u64) -> f64 {
        self.kernel_launch + flops as f64 / self.gemm_throughput
    }

    fn elementwise_time(&self, bytes: usize) -> f64 {
        self.kernel_launch + bytes as f64 / self.elementwise_bandwidth
    }
}

#[derive(Default)]
struct Counters {
    wall_ns: AtomicU64,
    modeled_ns: AtomicU64,
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
    kernel_launches: AtomicU64,
}

/// Aggregated device-section accounting for one measurement window.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceReport {
    /// Host wall time spent inside simulated GPU kernels. GPU only: a CPU
    /// device does not time its kernels, so this stays zero.
    pub device_wall: Duration,
    /// Modeled device time (kernels + transfers) the real GPU would have
    /// spent. Zero for a CPU device.
    pub device_modeled: Duration,
    /// Bytes charged as host→device transfers.
    pub h2d_bytes: u64,
    /// Bytes charged as device→host transfers.
    pub d2h_bytes: u64,
    /// Number of kernel launches charged.
    pub kernel_launches: u64,
}

/// An execution device handle. Cheap to clone; clones share counters, which
/// mirrors the paper's setup of one physical accelerator shared by all
/// execution threads.
#[derive(Clone)]
pub struct Device {
    kind: DeviceKind,
    model: GpuModel,
    counters: Arc<Counters>,
}

impl Device {
    /// The real host CPU.
    pub fn cpu() -> Self {
        Device { kind: DeviceKind::Cpu, model: GpuModel::a100(), counters: Arc::default() }
    }

    /// The simulated A100.
    pub fn gpu() -> Self {
        Self::gpu_with_model(GpuModel::a100())
    }

    /// A simulated GPU with custom cost-model constants (used by ablations).
    pub fn gpu_with_model(model: GpuModel) -> Self {
        Device { kind: DeviceKind::Gpu, model, counters: Arc::default() }
    }

    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    pub fn is_gpu(&self) -> bool {
        self.kind == DeviceKind::Gpu
    }

    /// Reset all accounting (call at the start of a measurement window).
    pub fn reset(&self) {
        self.counters.wall_ns.store(0, Ordering::Relaxed);
        self.counters.modeled_ns.store(0, Ordering::Relaxed);
        self.counters.h2d_bytes.store(0, Ordering::Relaxed);
        self.counters.d2h_bytes.store(0, Ordering::Relaxed);
        self.counters.kernel_launches.store(0, Ordering::Relaxed);
    }

    /// Snapshot the accounting since the last [`Device::reset`].
    pub fn report(&self) -> DeviceReport {
        DeviceReport {
            device_wall: Duration::from_nanos(self.counters.wall_ns.load(Ordering::Relaxed)),
            device_modeled: Duration::from_nanos(self.counters.modeled_ns.load(Ordering::Relaxed)),
            h2d_bytes: self.counters.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.counters.d2h_bytes.load(Ordering::Relaxed),
            kernel_launches: self.counters.kernel_launches.load(Ordering::Relaxed),
        }
    }

    /// Convert a measured wall-clock duration of a whole run into the
    /// reported duration: for a GPU device the host time spent *simulating*
    /// kernels is replaced by the modeled device time; for a CPU device this
    /// is the identity.
    pub fn adjust(&self, total_wall: Duration) -> Duration {
        if !self.is_gpu() {
            return total_wall;
        }
        let r = self.report();
        total_wall.saturating_sub(r.device_wall) + r.device_modeled
    }

    fn charge_modeled(&self, seconds: f64) {
        let ns = (seconds * 1e9) as u64;
        self.counters.modeled_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Charge one GPU kernel launch of `modeled_seconds` (nothing on a CPU).
    fn launch(&self, modeled_seconds: f64) {
        if self.is_gpu() {
            self.charge_modeled(modeled_seconds);
            self.counters.kernel_launches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run `f`, the host's work for a device section: on the simulated
    /// GPU, time it on the host as device wall time; on a CPU, just run it.
    /// The caller charges the launches it models.
    fn run_timed<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.is_gpu() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_nanos() as u64;
        self.counters.wall_ns.fetch_add(wall, Ordering::Relaxed);
        out
    }

    /// Charge a host→device transfer of `bytes` (no data actually moves:
    /// simulated device memory lives in host RAM).
    pub fn transfer_h2d(&self, bytes: usize) {
        if self.is_gpu() {
            self.counters.h2d_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            self.charge_modeled(self.model.transfer_time(bytes));
        }
    }

    /// Charge a device→host transfer of `bytes`.
    pub fn transfer_d2h(&self, bytes: usize) {
        if self.is_gpu() {
            self.counters.d2h_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            self.charge_modeled(self.model.transfer_time(bytes));
        }
    }

    /// Run `kernel`, the host's fused dense layer over an `m x k · k x n`
    /// product (bias and activation in the GEMM's epilogue, see
    /// [`crate::PackedMatrix::gemm`]), and charge the kernels the paper's
    /// operator launches for it (Sec. 5.4): the copy of the replicated
    /// bias matrix into `C` when `bias` is set, the `sgemm`, and the
    /// activation kernel unless it is linear. The modeled device so times
    /// the paper's kernels, whatever the host fuses.
    pub fn dense<R>(
        &self,
        (m, k, n): (usize, usize, usize),
        bias: bool,
        activation: Activation,
        kernel: impl FnOnce() -> R,
    ) -> R {
        let out = self.run_timed(kernel);
        self.launch(self.model.gemm_time(blas::gemm_flops(m, k, n)));
        let elementwise = self.model.elementwise_time(8 * m * n);
        if bias {
            self.launch(elementwise);
        }
        if activation != Activation::Linear {
            self.launch(elementwise);
        }
        out
    }

    /// Run `kernel`, one host pass fusing several element-wise kernels
    /// over `len` elements, and charge each kernel the paper launches for
    /// it (Sec. 5.4): one launch per entry of `bytes_per_kernel`, streaming
    /// that many bytes per element. (Listing 5's cell update is three
    /// `vsMul` and one `vsAdd` at 12 bytes per element and a `tanh` at 8.)
    pub fn elementwise<R>(
        &self,
        len: usize,
        bytes_per_kernel: &[usize],
        kernel: impl FnOnce() -> R,
    ) -> R {
        let out = self.run_timed(kernel);
        for &bytes in bytes_per_kernel {
            self.launch(self.model.elementwise_time(bytes * len));
        }
        out
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Device({})", self.kind.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{sgemm, Transpose};
    use crate::matrix::Matrix;

    /// `c = a · b` as one dense kernel on `dev`.
    fn gemm(dev: &Device, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        let shape = (a.rows(), a.cols(), b.cols());
        dev.dense(shape, false, Activation::Linear, || {
            sgemm(Transpose::No, Transpose::No, 1.0, a, b, 0.0, c)
        });
    }

    #[test]
    fn cpu_adjust_is_identity_and_charges_nothing() {
        let dev = Device::cpu();
        let a = Matrix::from_fn(4, 4, |r, c| (r + c) as f32);
        let b = a.clone();
        let mut c = Matrix::zeros(4, 4);
        gemm(&dev, &a, &b, &mut c);
        dev.transfer_h2d(1 << 20);
        let r = dev.report();
        assert_eq!(r.device_wall, Duration::ZERO);
        assert_eq!(r.device_modeled, Duration::ZERO);
        assert_eq!(r.h2d_bytes, 0);
        let d = Duration::from_millis(5);
        assert_eq!(dev.adjust(d), d);
    }

    #[test]
    fn gpu_and_cpu_produce_identical_results() {
        let cpu = Device::cpu();
        let gpu = Device::gpu();
        let a = Matrix::from_fn(8, 6, |r, c| ((r * 6 + c) as f32 * 0.1).sin());
        let b = Matrix::from_fn(6, 5, |r, c| ((r * 5 + c) as f32 * 0.2).cos());
        let mut c1 = Matrix::zeros(8, 5);
        let mut c2 = Matrix::zeros(8, 5);
        gemm(&cpu, &a, &b, &mut c1);
        gemm(&gpu, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn gpu_charges_transfers_and_kernels() {
        let gpu = Device::gpu();
        gpu.transfer_h2d(12_000_000); // ~1 ms at 12 GB/s
        let a = Matrix::zeros(16, 16);
        let b = Matrix::zeros(16, 16);
        let mut c = Matrix::zeros(16, 16);
        gemm(&gpu, &a, &b, &mut c);
        let r = gpu.report();
        assert_eq!(r.h2d_bytes, 12_000_000);
        assert_eq!(r.kernel_launches, 1);
        let ms = r.device_modeled.as_secs_f64() * 1e3;
        assert!(ms > 0.9 && ms < 1.5, "modeled time {ms} ms out of range");
    }

    #[test]
    fn gpu_adjust_replaces_simulated_wall_with_modeled_time() {
        let gpu = Device::gpu();
        // A large-ish kernel so simulated wall time is nonzero.
        let a = Matrix::from_fn(64, 64, |r, c| (r * 64 + c) as f32 * 1e-4);
        let b = a.clone();
        let mut c = Matrix::zeros(64, 64);
        gemm(&gpu, &a, &b, &mut c);
        let r = gpu.report();
        let total = r.device_wall + Duration::from_millis(3);
        let adjusted = gpu.adjust(total);
        let expected = Duration::from_millis(3) + r.device_modeled;
        let diff = adjusted.abs_diff(expected);
        assert!(diff < Duration::from_micros(10));
    }

    /// A dense layer charges the paper's kernels: the bias copy and the
    /// activation as element-wise passes over `C`, plus the GEMM.
    #[test]
    fn dense_charges_bias_copy_gemm_and_activation() {
        let gpu = Device::gpu();
        gpu.dense((64, 32, 16), true, Activation::Relu, || ());
        let model = GpuModel::a100();
        let ns = |s: f64| (s * 1e9) as u64;
        let elementwise = ns(model.elementwise_time(8 * 64 * 16));
        let gemm = ns(model.gemm_time(blas::gemm_flops(64, 32, 16)));
        let r = gpu.report();
        assert_eq!(r.kernel_launches, 3);
        assert_eq!(r.device_modeled.as_nanos() as u64, 2 * elementwise + gemm);
        gpu.reset();
        gpu.dense((64, 32, 16), false, Activation::Linear, || ());
        assert_eq!(gpu.report().kernel_launches, 1);
        assert_eq!(gpu.report().device_modeled.as_nanos() as u64, gemm);
    }

    /// One fused host pass charges every kernel it stands for, each
    /// truncated to whole nanoseconds as a separate launch would be.
    #[test]
    fn elementwise_charges_one_launch_per_kernel() {
        let gpu = Device::gpu();
        let mut runs = 0;
        gpu.elementwise(1000, &[12, 12, 8], || runs += 1);
        let model = GpuModel::a100();
        let ns = |bytes: usize| (model.elementwise_time(bytes * 1000) * 1e9) as u64;
        let r = gpu.report();
        assert_eq!(runs, 1);
        assert_eq!(r.kernel_launches, 3);
        assert_eq!(r.device_modeled.as_nanos() as u64, 2 * ns(12) + ns(8));
        let cpu = Device::cpu();
        cpu.elementwise(1000, &[12], || runs += 1);
        assert_eq!((runs, cpu.report().kernel_launches), (2, 0));
    }

    #[test]
    fn reset_clears_counters() {
        let gpu = Device::gpu();
        gpu.transfer_h2d(1024);
        gpu.reset();
        let r = gpu.report();
        assert_eq!(r.h2d_bytes, 0);
        assert_eq!(r.device_modeled, Duration::ZERO);
    }

    #[test]
    fn larger_models_cost_more_modeled_time() {
        let gpu = Device::gpu();
        let small = Matrix::zeros(32, 32);
        let mut c_small = Matrix::zeros(32, 32);
        gemm(&gpu, &small, &small, &mut c_small);
        let t_small = gpu.report().device_modeled;
        gpu.reset();
        let big = Matrix::zeros(512, 512);
        let mut c_big = Matrix::zeros(512, 512);
        gemm(&gpu, &big, &big, &mut c_big);
        let t_big = gpu.report().device_modeled;
        assert!(t_big > t_small);
    }
}
