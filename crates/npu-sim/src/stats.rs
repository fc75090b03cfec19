//! Simulation reports and per-class DRAM traffic accounting.

use igo_tensor::TensorClass;

/// DRAM traffic broken down by tensor class and direction, in bytes.
///
/// Figure 5 of the paper reports exactly this decomposition ("the ratio of
/// dY traffic compared to all read and write data").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    reads: [u64; 7],
    writes: [u64; 7],
}

impl Traffic {
    /// Zero traffic.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` read from DRAM for tensors of `class`.
    pub fn add_read(&mut self, class: TensorClass, bytes: u64) {
        self.reads[class.index()] += bytes;
    }

    /// Record `bytes` written to DRAM for tensors of `class`.
    pub fn add_write(&mut self, class: TensorClass, bytes: u64) {
        self.writes[class.index()] += bytes;
    }

    /// Bytes read for `class`.
    pub fn read(&self, class: TensorClass) -> u64 {
        self.reads[class.index()]
    }

    /// Bytes written for `class`.
    pub fn write(&self, class: TensorClass) -> u64 {
        self.writes[class.index()]
    }

    /// Total bytes read.
    pub fn read_total(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total bytes written.
    pub fn write_total(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Total bytes moved in either direction.
    pub fn total(&self) -> u64 {
        self.read_total() + self.write_total()
    }

    /// Fraction of *read* traffic belonging to `class` (Figure 5's
    /// "Read Ratio"). Returns 0 when there is no read traffic.
    pub fn read_ratio(&self, class: TensorClass) -> f64 {
        let total = self.read_total();
        if total == 0 {
            0.0
        } else {
            self.read(class) as f64 / total as f64
        }
    }

    /// Fraction of *all* traffic belonging to `class` (Figure 5's
    /// "Read+Write Ratio").
    pub fn total_ratio(&self, class: TensorClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.read(class) + self.write(class)) as f64 / total as f64
        }
    }

    /// Traffic multiplied by an integer factor (identical repeated
    /// executions, e.g. layer multiplicity or convolution groups).
    #[must_use]
    pub fn scaled(&self, factor: u64) -> Traffic {
        let mut out = *self;
        for i in 0..7 {
            out.reads[i] *= factor;
            out.writes[i] *= factor;
        }
        out
    }

    /// Merge another traffic record into this one.
    pub fn merge(&mut self, other: &Traffic) {
        for i in 0..7 {
            self.reads[i] += other.reads[i];
            self.writes[i] += other.writes[i];
        }
    }
}

impl core::fmt::Display for Traffic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "reads {} B / writes {} B",
            self.read_total(),
            self.write_total()
        )?;
        for class in TensorClass::ALL {
            let (r, w) = (self.read(class), self.write(class));
            if r > 0 || w > 0 {
                write!(f, "; {}: r{} w{}", class.label(), r, w)?;
            }
        }
        Ok(())
    }
}

/// Result of running one schedule on one core.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimReport {
    /// Total execution cycles (makespan of compute and memory timelines).
    pub cycles: u64,
    /// Sum of tile-GEMM compute cycles (serial compute occupancy).
    pub compute_cycles: u64,
    /// Sum of memory-channel busy cycles.
    pub mem_cycles: u64,
    /// Per-class DRAM traffic.
    pub traffic: Traffic,
    /// SPM hits across all tile accesses.
    pub spm_hits: u64,
    /// SPM misses across all tile accesses.
    pub spm_misses: u64,
    /// Number of tile GEMM operations executed.
    pub gemm_ops: u64,
    /// Total MACs performed.
    pub macs: u64,
    /// Bytes moved between SPM and the systolic array (every tile access,
    /// hit or miss) — the on-chip side of the energy model.
    pub spm_bytes_touched: u64,
}

impl SimReport {
    /// Merge a report for a subsequent schedule segment executed serially on
    /// the same core: cycles add, traffic and counters accumulate.
    pub fn chain(&mut self, other: &SimReport) {
        self.cycles += other.cycles;
        self.compute_cycles += other.compute_cycles;
        self.mem_cycles += other.mem_cycles;
        self.traffic.merge(&other.traffic);
        self.spm_hits += other.spm_hits;
        self.spm_misses += other.spm_misses;
        self.gemm_ops += other.gemm_ops;
        self.macs += other.macs;
        self.spm_bytes_touched += other.spm_bytes_touched;
    }

    /// This report repeated `factor` times back-to-back (identical layer
    /// instances or convolution groups): everything multiplies.
    #[must_use]
    pub fn scaled(&self, factor: u64) -> SimReport {
        SimReport {
            cycles: self.cycles * factor,
            compute_cycles: self.compute_cycles * factor,
            mem_cycles: self.mem_cycles * factor,
            traffic: self.traffic.scaled(factor),
            spm_hits: self.spm_hits * factor,
            spm_misses: self.spm_misses * factor,
            gemm_ops: self.gemm_ops * factor,
            macs: self.macs * factor,
            spm_bytes_touched: self.spm_bytes_touched * factor,
        }
    }

    /// Total SPM tile accesses (hits plus misses). Conservation invariant:
    /// this must equal the number of tile accesses in the schedule's
    /// flattened access stream.
    pub fn spm_accesses(&self) -> u64 {
        self.spm_hits + self.spm_misses
    }

    /// SPM hit rate over all tile accesses; 0 when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.spm_hits + self.spm_misses;
        if total == 0 {
            0.0
        } else {
            self.spm_hits as f64 / total as f64
        }
    }

    /// Wall-clock seconds at `freq_hz`.
    pub fn seconds(&self, freq_hz: f64) -> f64 {
        self.cycles as f64 / freq_hz
    }

    /// Fraction of the makespan the memory channel is busy — close to 1 for
    /// memory-bound layers (the paper's Figure 13 population).
    pub fn memory_boundedness(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mem_cycles as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_per_class_accounting() {
        let mut t = Traffic::new();
        t.add_read(TensorClass::OutGrad, 100);
        t.add_read(TensorClass::OutGrad, 50);
        t.add_read(TensorClass::Weight, 150);
        t.add_write(TensorClass::InGrad, 200);
        assert_eq!(t.read(TensorClass::OutGrad), 150);
        assert_eq!(t.read_total(), 300);
        assert_eq!(t.write_total(), 200);
        assert_eq!(t.total(), 500);
        assert!((t.read_ratio(TensorClass::OutGrad) - 0.5).abs() < 1e-12);
        assert!((t.total_ratio(TensorClass::OutGrad) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_traffic_ratios_are_zero() {
        let t = Traffic::new();
        assert_eq!(t.read_ratio(TensorClass::OutGrad), 0.0);
        assert_eq!(t.total_ratio(TensorClass::OutGrad), 0.0);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = Traffic::new();
        a.add_read(TensorClass::Ifmap, 10);
        let mut b = Traffic::new();
        b.add_read(TensorClass::Ifmap, 5);
        b.add_write(TensorClass::WGrad, 7);
        a.merge(&b);
        assert_eq!(a.read(TensorClass::Ifmap), 15);
        assert_eq!(a.write(TensorClass::WGrad), 7);
    }

    #[test]
    fn report_chain_accumulates() {
        let mut a = SimReport {
            cycles: 100,
            compute_cycles: 60,
            mem_cycles: 90,
            spm_hits: 3,
            spm_misses: 1,
            gemm_ops: 4,
            macs: 1000,
            ..Default::default()
        };
        let b = SimReport {
            cycles: 50,
            compute_cycles: 30,
            mem_cycles: 45,
            spm_hits: 1,
            spm_misses: 1,
            gemm_ops: 2,
            macs: 500,
            ..Default::default()
        };
        a.chain(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.gemm_ops, 6);
        assert_eq!(a.macs, 1500);
        assert!((a.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_uses_frequency() {
        let r = SimReport {
            cycles: 1_000_000,
            ..Default::default()
        };
        assert!((r.seconds(1.0e9) - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn memory_boundedness_bounds() {
        let r = SimReport {
            cycles: 100,
            mem_cycles: 80,
            ..Default::default()
        };
        assert!((r.memory_boundedness() - 0.8).abs() < 1e-12);
        assert_eq!(SimReport::default().memory_boundedness(), 0.0);
    }
}
