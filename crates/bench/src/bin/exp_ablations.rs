//! Regenerates the design-ablation table (DESIGN.md, "Design choices
//! worth ablating"). Panics — non-zero exit — when arms that must compute
//! the same thing do not. `--quick` shrinks the inputs (CI smoke).
use websift_bench::experiments::ablation_exps;
use websift_bench::report;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    report::emit(&[ablation_exps::ablations(quick)]);
}
