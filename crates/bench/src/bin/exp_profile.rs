//! Regenerates the Fig-8 cost split (startup vs per-record operator cost)
//! from the executor's registry cost series, and exports the observability
//! artifacts of the run.
//!
//! Modes:
//! - default: decomposition table + observer summary + folded stacks,
//!   then the wall-clock plane: facts of this host that change wall time
//!   and nothing else (today the POS decoding kernel), kept out of every
//!   other mode, digest and result file;
//! - `--folded`: folded-stack (flamegraph) lines only — what the ci.sh
//!   smoke target parses;
//! - `--json`: the decomposition as a JSON array (machine-readable).
use websift_bench::experiments::profile_exps;
use websift_bench::report;
use websift_pipeline::ExperimentContext;

fn main() {
    let folded_only = std::env::args().any(|a| a == "--folded");
    // The smoke/CI path keeps the corpus tiny; the full run profiles the
    // standard benchmark context.
    let (ctx, docs) = if folded_only || std::env::args().any(|a| a == "--tiny") {
        (ExperimentContext::tiny(12), 6)
    } else {
        (ExperimentContext::standard(12), 40)
    };
    let run = profile_exps::cost_decomposition(&ctx, docs);

    if folded_only {
        print!("{}", run.folded);
        return;
    }
    if report::json_mode() {
        report::emit(&[run.result]);
        return;
    }
    println!("{}", run.result.render());
    println!("{}", run.summary);
    println!("== wall clock == (this host; not in --json, --folded or any digest)");
    println!("pos.kernel = {}\n", websift_text::pos::kernel());
    println!("### folded stacks (flamegraph format)\n\n```\n{}```", run.folded);
}
