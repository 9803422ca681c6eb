//! The text report of every table and figure of the paper's evaluation,
//! as the `experiments` binary prints it.

use crate::experiments::*;
use std::fmt::{self, Write};

/// Renders the report sections `want` selects (by id: `e1` … `e7`,
/// `f1` … `f3`) under the report's title line.  Every figure comes from a
/// fixed seed, so the text is the same on every run.
pub fn render_report(want: impl Fn(&str) -> bool) -> String {
    let mut out = String::new();
    write_report(&mut out, want).expect("writing to a String cannot fail");
    out
}

fn write_report(out: &mut String, want: impl Fn(&str) -> bool) -> fmt::Result {
    writeln!(out, "== Reproduction of 'Architecture for Low Power Large Vocabulary Speech Recognition' (SOCC 2006) ==\n")?;

    if want("e1") {
        writeln!(
            out,
            "-- E1: acoustic-model memory and worst-case bandwidth vs mantissa width --"
        )?;
        writeln!(
            out,
            "{:<16} {:>14} {:>14} {:>16} {:>16}",
            "mantissa", "paper MB", "measured MB", "paper GB/s", "measured GB/s"
        )?;
        for row in e1_memory_bandwidth() {
            writeln!(
                out,
                "{:<16} {:>14.2} {:>14.2} {:>16.3} {:>16.3}",
                format!("{}", row.width),
                row.paper_memory_mb,
                row.measured_memory_mb,
                row.paper_bandwidth_gbps,
                row.measured_bandwidth_gbps
            )?;
        }
        writeln!(out)?;
    }

    if want("e2") {
        writeln!(
            out,
            "-- E2: synthesis results (power / area of the dedicated structures) --"
        )?;
        let r = e2_power_area();
        writeln!(
            out,
            "one structure power   : paper {:.3} W, model {:.3} W",
            r.paper_structure_power_w, r.model_structure_power_w
        )?;
        writeln!(
            out,
            "two structures power  : paper {:.3} W, model {:.3} W",
            r.paper_total_power_w, r.model_total_power_w
        )?;
        writeln!(
            out,
            "one structure area    : paper {:.1} mm2, model {:.1} mm2",
            r.paper_structure_area_mm2, r.model_structure_area_mm2
        )?;
        writeln!(
            out,
            "two structures area   : paper {:.1} mm2, model {:.1} mm2",
            r.paper_total_area_mm2, r.model_total_area_mm2
        )?;
        writeln!(
            out,
            "measured decode power : {:.3} W (clock-gated, OPU activity {:.2})",
            r.measured_decode_power_w, r.measured_opu_activity
        )?;
        writeln!(out)?;
    }

    if want("e3") {
        writeln!(
            out,
            "-- E3: word error rate vs mantissa width (synthetic WSJ5K-like task) --"
        )?;
        writeln!(
            out,
            "{:<16} {:>10} {:>14} {:>12}",
            "mantissa", "WER", "paper bound", "ref words"
        )?;
        for row in e3_wer_vs_mantissa(200, 6, 4, 0.3) {
            writeln!(
                out,
                "{:<16} {:>9.1}% {:>14} {:>12}",
                format!("{}", row.width),
                100.0 * row.wer,
                row.paper_bound
                    .map(|b| format!("< {:.0}%", 100.0 * b))
                    .unwrap_or_else(|| "-".into()),
                row.reference_words
            )?;
        }
        writeln!(out)?;
    }

    if want("e4") {
        writeln!(
            out,
            "-- E4: active senone fraction (word-decode feedback) --"
        )?;
        let r = e4_active_senones(200, 3);
        writeln!(
            out,
            "with feedback   : mean {:.1}% of inventory, peak {:.1}%",
            100.0 * r.with_feedback_mean,
            100.0 * r.with_feedback_peak
        )?;
        writeln!(
            out,
            "without feedback: mean {:.1}%",
            100.0 * r.without_feedback_mean
        )?;
        writeln!(
            out,
            "paper claim     : well below {:.0}%",
            100.0 * r.paper_claim_upper_bound
        )?;
        writeln!(
            out,
            "dictionary size : {:.1} Mb (paper: ~11 Mb)",
            r.dictionary_megabits
        )?;
        writeln!(out)?;
    }

    if want("e5") {
        writeln!(out, "-- E5: real-time capacity of the 50 MHz structures --")?;
        let r = e5_realtime_capacity(200);
        writeln!(
            out,
            "cycles per senone (39 dims x 8 Gaussians) : {}",
            r.cycles_per_senone
        )?;
        writeln!(
            out,
            "senones per 10 ms frame, 1 structure      : {}",
            r.senones_per_frame_one_structure
        )?;
        writeln!(
            out,
            "senones per 10 ms frame, 2 structures     : {}",
            r.senones_per_frame_two_structures
        )?;
        writeln!(
            out,
            "capacity as fraction of 6000 senones      : {:.1}%",
            100.0 * r.capacity_fraction_of_inventory
        )?;
        writeln!(
            out,
            "measured worst frame RTF (2 structures)   : {:.3}",
            r.measured_worst_rtf
        )?;
        writeln!(
            out,
            "measured real-time frame fraction         : {:.1}%",
            100.0 * r.measured_real_time_fraction
        )?;
        writeln!(out)?;
    }

    if want("e6") {
        writeln!(out, "-- E6: related-work comparison (paper Section V) --")?;
        write!(out, "{}", e6_comparison(2_500).to_text())?;
        writeln!(out)?;
    }

    if want("e7") {
        writeln!(
            out,
            "-- E7: Conditional Down Sampling ablation (four-layer fast GMM scheme) --"
        )?;
        writeln!(
            out,
            "{:<12} {:>10} {:>20} {:>14} {:>12}",
            "CDS period", "WER", "senones/frame", "OPU activity", "power (W)"
        )?;
        for row in e7_cds_ablation(200, 3) {
            writeln!(
                out,
                "{:<12} {:>9.1}% {:>20.1} {:>14.3} {:>12.3}",
                row.cds_period,
                100.0 * row.wer,
                row.mean_senones_per_frame,
                row.opu_activity,
                row.average_power_w
            )?;
        }
        writeln!(out)?;
    }

    if want("f1") {
        writeln!(out, "-- F1: Figure 1 pipeline breakdown (per frame) --")?;
        let r = f1_pipeline_breakdown(200);
        writeln!(
            out,
            "OP unit cycles/frame (busiest structure) : {:.0} of {}",
            r.opu_cycles_per_frame, r.cycle_budget
        )?;
        writeln!(
            out,
            "Viterbi unit cycles/frame                 : {:.0}",
            r.viterbi_cycles_per_frame
        )?;
        writeln!(
            out,
            "host CPU cycles/frame (software stages)   : {:.0}",
            r.host_cycles_per_frame
        )?;
        writeln!(
            out,
            "flash traffic per frame                   : {:.0} bytes",
            r.flash_bytes_per_frame
        )?;
        writeln!(out)?;
    }

    if want("f2") {
        writeln!(out, "-- F2: Observation Probability unit (Figure 2) --")?;
        let r = f2_opu_figures();
        writeln!(
            out,
            "logadd SRAM           : {} bytes (paper: 512)",
            r.logadd_sram_bytes
        )?;
        writeln!(
            out,
            "logadd max abs error  : {:.4} nats",
            r.logadd_max_error
        )?;
        writeln!(out, "cycles per Gaussian   : {}", r.cycles_per_gaussian)?;
        writeln!(out, "cycles per senone     : {}", r.cycles_per_senone)?;
        writeln!(
            out,
            "max |hw - sw| score   : {:.4} nats",
            r.max_score_deviation
        )?;
        writeln!(out)?;
    }

    if want("f3") {
        writeln!(out, "-- F3: Viterbi decoder unit (Figure 3) --")?;
        writeln!(
            out,
            "{:<10} {:>16} {:>18}",
            "states", "cycles/HMM", "HMMs per frame"
        )?;
        for row in f3_viterbi_figures() {
            writeln!(
                out,
                "{:<10} {:>16} {:>18}",
                row.states, row.cycles_per_hmm, row.hmms_per_frame
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}
