//! Power and area model.
//!
//! The paper synthesised the OP unit and Viterbi decoder with a 0.18 µm
//! library at 50 MHz and reports, per dedicated structure (one OP unit + one
//! Viterbi decoder): **200 mW** of power and **2.2 mm²** of area; the full
//! system uses two structures (400 mW, 4.4 mm²).  We cannot re-run Synopsys
//! here, so the model is *calibrated*: component power budgets are chosen so
//! that a fully-active structure at 50 MHz dissipates exactly the paper's
//! 200 mW, and everything else (clock-gating savings, energy per frame,
//! comparisons against the software baseline) is derived from measured
//! activity factors of the cycle-accurate unit models.

use crate::clock::{ClockDomain, CycleCount};
use asr_acoustic::FRAME_PERIOD_S;

/// Per-structure area budget in mm², 0.18 µm technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBudget {
    /// Observation Probability unit datapath.
    pub opu_mm2: f64,
    /// Viterbi decoder datapath.
    pub viterbi_mm2: f64,
    /// Log-add SRAM, buffers and control.
    pub sram_control_mm2: f64,
}

impl AreaBudget {
    /// The paper's 2.2 mm² structure, split across its blocks.
    pub const PAPER: AreaBudget = AreaBudget {
        opu_mm2: 1.5,
        viterbi_mm2: 0.5,
        sram_control_mm2: 0.2,
    };

    /// Total area of one structure.
    pub fn structure_mm2(&self) -> f64 {
        self.opu_mm2 + self.viterbi_mm2 + self.sram_control_mm2
    }

    /// Total area of `n` structures (the paper instantiates 2 → 4.4 mm²).
    pub fn total_mm2(&self, structures: usize) -> f64 {
        self.structure_mm2() * structures as f64
    }
}

impl Default for AreaBudget {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Dynamic/leakage power model of one accelerator structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Clock the structure runs at.
    pub clock: ClockDomain,
    /// Dynamic power of the OP-unit datapath at 100 % activity, watts.
    pub opu_dynamic_w: f64,
    /// Dynamic power of the Viterbi datapath at 100 % activity, watts.
    pub viterbi_dynamic_w: f64,
    /// Dynamic power of SRAM + control + buffers at 100 % activity, watts.
    pub sram_control_dynamic_w: f64,
    /// Leakage power, watts (always dissipated while powered, even gated —
    /// small at 0.18 µm).
    pub leakage_w: f64,
    /// Area budget.
    pub area: AreaBudget,
}

impl PowerModel {
    /// Calibrated to the paper's synthesis result: 200 mW per structure fully
    /// active at 50 MHz (140 mW OPU + 40 mW Viterbi + 10 mW SRAM/control
    /// dynamic, plus 10 mW leakage).
    pub fn paper_calibrated() -> Self {
        PowerModel {
            clock: ClockDomain::ACCELERATOR_50MHZ,
            opu_dynamic_w: 0.140,
            viterbi_dynamic_w: 0.040,
            sram_control_dynamic_w: 0.010,
            leakage_w: 0.010,
            area: AreaBudget::PAPER,
        }
    }

    /// Power of one fully-active structure (the paper's 200 mW figure).
    pub fn structure_full_power_w(&self) -> f64 {
        self.opu_dynamic_w + self.viterbi_dynamic_w + self.sram_control_dynamic_w + self.leakage_w
    }

    /// Average power of one structure given measured activity factors for the
    /// OP unit and the Viterbi unit (clock gating removes dynamic power in
    /// idle cycles; leakage remains).
    pub fn structure_power_w(&self, opu_activity: f64, viterbi_activity: f64) -> f64 {
        let opu_activity = opu_activity.clamp(0.0, 1.0);
        let vit_activity = viterbi_activity.clamp(0.0, 1.0);
        // SRAM/control activity follows the busier of the two datapaths.
        let ctrl_activity = opu_activity.max(vit_activity);
        self.opu_dynamic_w * opu_activity
            + self.viterbi_dynamic_w * vit_activity
            + self.sram_control_dynamic_w * ctrl_activity
            + self.leakage_w
    }

    /// Energy (joules) consumed by one structure over `elapsed` cycles at the
    /// given activity factors.
    pub fn structure_energy_j(
        &self,
        elapsed: CycleCount,
        opu_activity: f64,
        viterbi_activity: f64,
    ) -> f64 {
        self.structure_power_w(opu_activity, viterbi_activity)
            * self.clock.cycles_to_seconds(elapsed)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// A cost/power model of the embedded host processor (ARM946-class with a
/// floating-point coprocessor) that runs the software stages: frontend, word
/// decode and global best path search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCpuModel {
    /// Host clock.
    pub clock: ClockDomain,
    /// Active power, watts.
    pub active_power_w: f64,
    /// Idle (clock-gated / WFI) power, watts.
    pub idle_power_w: f64,
    /// Cycles the frontend needs per 10 ms frame (MFCC is lightweight:
    /// "it is a lightweight process").
    pub frontend_cycles_per_frame: CycleCount,
    /// Cycles the word-decode stage needs per active triphone per frame.
    pub word_decode_cycles_per_triphone: CycleCount,
    /// Cycles the global best path search needs per word-lattice edge.
    pub best_path_cycles_per_edge: CycleCount,
}

impl HostCpuModel {
    /// A 200 MHz ARM9-class embedded core with VFP, ~0.5 mW/MHz at 0.18 µm.
    pub fn arm9_embedded() -> Self {
        HostCpuModel {
            clock: ClockDomain::HOST_200MHZ,
            active_power_w: 0.100,
            idle_power_w: 0.005,
            frontend_cycles_per_frame: 60_000,
            word_decode_cycles_per_triphone: 40,
            best_path_cycles_per_edge: 25,
        }
    }

    /// A desktop-class processor for the software-baseline comparison
    /// (the paper's related work "run\[s\] on a desktop platform (Pentium
    /// Series) consuming all its resources").
    pub fn desktop_pentium() -> Self {
        HostCpuModel {
            clock: ClockDomain::DESKTOP_2GHZ,
            active_power_w: 30.0,
            idle_power_w: 8.0,
            frontend_cycles_per_frame: 30_000,
            word_decode_cycles_per_triphone: 25,
            best_path_cycles_per_edge: 15,
        }
    }

    /// Host cycles needed for the software stages of one frame.
    pub fn software_cycles_per_frame(
        &self,
        active_triphones: usize,
        lattice_edges: usize,
    ) -> CycleCount {
        self.frontend_cycles_per_frame
            + self.word_decode_cycles_per_triphone * active_triphones as u64
            + self.best_path_cycles_per_edge * lattice_edges as u64
    }

    /// Average host power over a 10 ms frame in which `busy_cycles` of its
    /// clock were spent working and the rest idle.
    pub fn average_power_w(&self, busy_cycles: CycleCount) -> f64 {
        let available = self.clock.cycles_in(FRAME_PERIOD_S).max(1);
        let duty = (busy_cycles as f64 / available as f64).clamp(0.0, 1.0);
        self.active_power_w * duty + self.idle_power_w * (1.0 - duty)
    }

    /// Energy used by the host over one 10 ms frame.
    pub fn energy_per_frame_j(&self, busy_cycles: CycleCount) -> f64 {
        self.average_power_w(busy_cycles) * FRAME_PERIOD_S
    }
}

impl Default for HostCpuModel {
    fn default() -> Self {
        Self::arm9_embedded()
    }
}

/// Energy/power summary of a decoded utterance or frame batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Total accelerator energy, joules.
    pub accelerator_energy_j: f64,
    /// Total host-CPU energy, joules.
    pub host_energy_j: f64,
    /// Audio duration covered, seconds.
    pub audio_seconds: f64,
    /// Mean accelerator activity factor (OP unit).
    pub opu_activity: f64,
    /// Mean accelerator activity factor (Viterbi unit).
    pub viterbi_activity: f64,
}

impl EnergyReport {
    /// Total system energy.
    pub fn total_energy_j(&self) -> f64 {
        self.accelerator_energy_j + self.host_energy_j
    }

    /// Average total power over the audio duration.
    pub fn average_power_w(&self) -> f64 {
        if self.audio_seconds <= 0.0 {
            return 0.0;
        }
        self.total_energy_j() / self.audio_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_area_is_2_2_and_4_4_mm2() {
        let a = AreaBudget::PAPER;
        assert!((a.structure_mm2() - 2.2).abs() < 1e-9);
        assert!((a.total_mm2(2) - 4.4).abs() < 1e-9);
        assert_eq!(AreaBudget::default(), a);
    }

    #[test]
    fn paper_power_is_200_and_400_mw() {
        let p = PowerModel::paper_calibrated();
        assert!((p.structure_full_power_w() - 0.200).abs() < 1e-9);
        // Two fully-active structures → the paper's 400 mW.
        assert!((2.0 * p.structure_full_power_w() - 0.400).abs() < 1e-9);
        assert_eq!(PowerModel::default(), p);
    }

    #[test]
    fn clock_gating_reduces_power() {
        let p = PowerModel::paper_calibrated();
        let full = p.structure_power_w(1.0, 1.0);
        let half = p.structure_power_w(0.5, 0.5);
        let idle = p.structure_power_w(0.0, 0.0);
        assert!(full > half && half > idle);
        assert!((idle - p.leakage_w).abs() < 1e-12);
        // Gated power is well below half of full power at 50% activity
        // because leakage is small.
        assert!(half < 0.6 * full);
        // Out-of-range activity is clamped.
        assert_eq!(
            p.structure_power_w(2.0, -1.0),
            p.structure_power_w(1.0, 0.0)
        );
    }

    #[test]
    fn energy_scales_with_cycles_and_activity() {
        let p = PowerModel::paper_calibrated();
        let e1 = p.structure_energy_j(500_000, 1.0, 1.0);
        // One fully-active 10 ms frame at 200 mW = 2 mJ.
        assert!((e1 - 0.002).abs() < 1e-9);
        let e_half = p.structure_energy_j(500_000, 0.5, 0.5);
        assert!(e_half < e1);
    }

    #[test]
    fn host_cpu_costs() {
        let arm = HostCpuModel::arm9_embedded();
        assert_eq!(HostCpuModel::default(), arm);
        let cycles = arm.software_cycles_per_frame(500, 200);
        assert_eq!(cycles, 60_000 + 40 * 500 + 25 * 200);
        // Fully-busy frame → active power; idle frame → idle power.
        assert!((arm.average_power_w(arm.clock.cycles_in(FRAME_PERIOD_S)) - 0.100).abs() < 1e-9);
        assert!((arm.average_power_w(0) - 0.005).abs() < 1e-9);
        assert!(arm.energy_per_frame_j(100_000) > 0.0);
        // The desktop baseline burns far more power.
        let desktop = HostCpuModel::desktop_pentium();
        assert!(desktop.active_power_w > 100.0 * arm.active_power_w);
    }

    #[test]
    fn energy_report_totals() {
        let r = EnergyReport {
            accelerator_energy_j: 0.002,
            host_energy_j: 0.001,
            audio_seconds: 0.010,
            opu_activity: 0.7,
            viterbi_activity: 0.1,
        };
        assert!((r.total_energy_j() - 0.003).abs() < 1e-12);
        assert!((r.average_power_w() - 0.3).abs() < 1e-9);
        assert_eq!(EnergyReport::default().average_power_w(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_power_monotone_in_activity(a1 in 0.0f64..1.0, a2 in 0.0f64..1.0) {
            let p = PowerModel::paper_calibrated();
            let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
            prop_assert!(p.structure_power_w(lo, lo) <= p.structure_power_w(hi, hi) + 1e-12);
        }

        #[test]
        fn prop_power_bounded_by_paper_figure(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let p = PowerModel::paper_calibrated();
            prop_assert!(p.structure_power_w(a, b) <= p.structure_full_power_w() + 1e-12);
            prop_assert!(p.structure_power_w(a, b) >= p.leakage_w - 1e-12);
        }
    }
}
