//! Device memory spaces and host–device transfer accounting.
//!
//! The paper is explicit about where each piece of data lives on the GPU —
//! conformations in global memory, read-only copies and the pre-calculated
//! scoring tables in texture memory, run constants in constant memory — and
//! its Table II reports the time spent in each `memcpy` direction.  This
//! module models those placements and transfers so the experiment harness
//! can emit the same rows.

use crate::device::DeviceSpec;

/// The memory spaces of the CUDA-era device model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemorySpace {
    /// Large, read-write, relatively slow device memory.
    Global,
    /// Cached read-only memory bound to arrays ("texture memory").
    Texture,
    /// Small cached read-only memory for run constants.
    Constant,
    /// Per-SM scratch memory shared by a block.
    Shared,
    /// Host (CPU) memory.
    Host,
}

/// Host/device copy directions, named as the CUDA profiler names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransferKind {
    /// Host to device array (texture-bound).
    HtoA,
    /// Host to device global memory.
    HtoD,
    /// Device global memory to device array (texture-bound).
    DtoA,
    /// Device to host.
    DtoH,
    /// Device to device.
    DtoD,
}

impl TransferKind {
    /// All directions in the order the paper's Table II lists them.
    pub const ALL: [TransferKind; 5] = [
        TransferKind::HtoA,
        TransferKind::HtoD,
        TransferKind::DtoA,
        TransferKind::DtoH,
        TransferKind::DtoD,
    ];

    /// The CUDA profiler's method name for this direction.
    pub fn name(&self) -> &'static str {
        match self {
            TransferKind::HtoA => "memcpyHtoA",
            TransferKind::HtoD => "memcpyHtoD",
            TransferKind::DtoA => "memcpyDtoA",
            TransferKind::DtoH => "memcpyDtoH",
            TransferKind::DtoD => "memcpyDtoD",
        }
    }

    /// Whether the copy crosses the PCIe bus (host on one side).
    pub fn crosses_host_boundary(&self) -> bool {
        matches!(
            self,
            TransferKind::HtoA | TransferKind::HtoD | TransferKind::DtoH
        )
    }
}

/// Time model for one memory copy.
pub fn transfer_time_us(spec: &DeviceSpec, kind: TransferKind, bytes: usize) -> f64 {
    let bandwidth_gb_s = if kind.crosses_host_boundary() {
        spec.transfer_bandwidth_gb_s
    } else {
        spec.memory_bandwidth_gb_s
    };
    // GB/s == bytes/ns / 1e0; convert to µs: bytes / (GB/s * 1e3).
    let us = bytes as f64 / (bandwidth_gb_s * 1e3);
    spec.transfer_latency_us + us
}

/// A description of where the pipeline stages each data set, used for
/// documentation/reporting and for sizing the staged transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPlacement {
    /// Human-readable name of the data set.
    pub name: String,
    /// Where it lives during kernel execution.
    pub space: MemorySpace,
    /// Size in bytes.
    pub bytes: usize,
}

impl DataPlacement {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, space: MemorySpace, bytes: usize) -> Self {
        DataPlacement {
            name: name.into(),
            space,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_names_match_cuda_profiler() {
        assert_eq!(TransferKind::HtoD.name(), "memcpyHtoD");
        assert_eq!(TransferKind::DtoA.name(), "memcpyDtoA");
        assert_eq!(TransferKind::ALL.len(), 5);
    }

    #[test]
    fn host_crossing_transfers_are_slower() {
        let spec = DeviceSpec::gtx280();
        let bytes = 4 * 1024 * 1024;
        let across = transfer_time_us(&spec, TransferKind::HtoD, bytes);
        let on_device = transfer_time_us(&spec, TransferKind::DtoD, bytes);
        assert!(across > on_device);
    }

    #[test]
    fn transfer_time_scales_with_size_plus_latency() {
        let spec = DeviceSpec::gtx280();
        let small = transfer_time_us(&spec, TransferKind::DtoH, 1024);
        let large = transfer_time_us(&spec, TransferKind::DtoH, 1024 * 1024);
        assert!(large > small);
        // Latency floor dominates tiny copies.
        assert!(small >= spec.transfer_latency_us);
        assert!(small < spec.transfer_latency_us + 1.0);
    }

    #[test]
    fn placement_constructor() {
        let p = DataPlacement::new("triplet table", MemorySpace::Texture, 4096);
        assert_eq!(p.space, MemorySpace::Texture);
        assert_eq!(p.bytes, 4096);
        assert_eq!(p.name, "triplet table");
    }
}
