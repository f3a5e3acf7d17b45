//! `planp` — the one driver of the evaluation harness: every figure,
//! table, analysis report and the `check` gate as a subcommand.
//!
//! ```text
//! cargo run --release -p planp-bench -- --help
//! ```

fn main() {
    planp_bench::cli::main(planp_bench::SUBCOMMANDS)
}
