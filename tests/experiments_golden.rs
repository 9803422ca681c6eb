//! The `experiments` report, byte for byte.
//!
//! `tests/golden/experiments.txt` holds the full report the `experiments`
//! binary prints: every table and figure of the paper's evaluation, from
//! the simulated SoC's cycle, bandwidth and power accounting to the WER of
//! the synthetic WSJ5K task.  Each figure comes from a fixed seed, so any
//! change to the simulated machine, the task generators or the decoder that
//! moves a printed figure fails here.  A change meant to move one re-records
//! the file (`cargo run --release -p asr-bench --bin experiments >
//! tests/golden/experiments.txt`) and says why.

use asr_bench::render_report;

#[test]
fn the_experiments_report_matches_the_golden_file() {
    let golden = include_str!("golden/experiments.txt");
    let report = render_report(|_| true);
    if report != golden {
        let (line, (got, want)) = report
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (got, want))| got != want)
            .unwrap_or((
                report.lines().count().min(golden.lines().count()),
                ("<end of report>", "<end of golden file>"),
            ));
        panic!(
            "the report differs from tests/golden/experiments.txt at line {}:\n  got:  {got}\n  want: {want}",
            line + 1
        );
    }
}
