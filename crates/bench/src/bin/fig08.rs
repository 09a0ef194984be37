//! Figure 8: memory bandwidth perceived by the SMs (replies/cycle).
//!
//! Prints this figure's `EXPERIMENTS.md` section: the row of
//! `nuba_bench::figures::FIGURES` named after this binary.

fn main() {
    std::process::exit(nuba_bench::figures::print_row(env!("CARGO_BIN_NAME")));
}
