//! Figure 13: GPU energy, NoC versus the rest of the GPU.
//!
//! Prints this figure's `EXPERIMENTS.md` section: the row of
//! `nuba_bench::figures::FIGURES` named after this binary.

fn main() {
    std::process::exit(nuba_bench::figures::print_row(env!("CARGO_BIN_NAME")));
}
