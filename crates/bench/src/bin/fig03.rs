//! Figure 3: memory page sharing degree per benchmark.
//!
//! Prints this figure's `EXPERIMENTS.md` section: the row of
//! `nuba_bench::figures::FIGURES` named after this binary.

fn main() {
    std::process::exit(nuba_bench::figures::print_row(env!("CARGO_BIN_NAME")));
}
