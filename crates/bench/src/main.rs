//! `viyojit-bench <experiment> [--seed N] [--quick] [--check [FILE]] [--out PATH]`:
//! runs one experiment of the evaluation; `viyojit-bench list` names them
//! all, each with its golden under `results/`.

fn main() -> std::process::ExitCode {
    viyojit_bench::main()
}
