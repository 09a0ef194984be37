//! Figure 7: NUBA and NUBA-No-Rep speedup over memory-side UBA
//! (iso-resource 1.4 TB/s NoC), SM-side UBA for reference.
//!
//! Prints this figure's `EXPERIMENTS.md` section: the row of
//! `nuba_bench::figures::FIGURES` named after this binary.

fn main() {
    std::process::exit(nuba_bench::figures::print_row(env!("CARGO_BIN_NAME")));
}
