//! Figure 14: sensitivity analyses (GPU size, LLC shape and capacity,
//! page size, address mapping, LAB threshold).
//!
//! Prints this figure's `EXPERIMENTS.md` section: the row of
//! `nuba_bench::figures::FIGURES` named after this binary.

fn main() {
    std::process::exit(nuba_bench::figures::print_row(env!("CARGO_BIN_NAME")));
}
