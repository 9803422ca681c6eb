//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//! ```text
//! cargo run -p asr-bench --bin experiments --release            # everything
//! cargo run -p asr-bench --bin experiments --release -- e1 e3  # a subset
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id || a == "all");
    print!("{}", asr_bench::render_report(want));
}
