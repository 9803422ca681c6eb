//! # asr-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index).  Each function returns a structured result carrying the
//! paper's reported value next to the value measured on this reproduction, so
//! the `experiments` binary, the integration tests and EXPERIMENTS.md all draw
//! from the same code.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod bench_json;
pub mod experiments;
pub mod report;

pub use experiments::{
    batch_bench_task, build_eval_task, e1_memory_bandwidth, e2_power_area, e3_wer_vs_mantissa,
    e4_active_senones, e5_realtime_capacity, e6_comparison, e7_cds_ablation, f1_pipeline_breakdown,
    f2_opu_figures, f3_viterbi_figures, serve_bench_task, E1Row, E2Report, E3Row, E4Report,
    E5Report, E7Row, F1Report, F2Report, F3Row,
};
pub use report::render_report;
