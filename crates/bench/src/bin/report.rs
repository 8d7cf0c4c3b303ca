//! Prints every table of EXPERIMENTS.md from live runs: E1–E27, then
//! the B1–B6 cost tables, which are timed and want a release build.
//!
//! Usage: `cargo run --release -p pnew-bench --bin report [ID…]`
//! With no arguments, all tables are printed. An `ID` selects every
//! table whose id equals it or contains it: `E21` one table, `B` all
//! six B tables. `--list` prints the table ids without running them.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let list = args.iter().any(|a| a == "--list");
    let filters: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    for entry in pnew_bench::all_tables() {
        if list {
            println!("{}", entry.id);
        } else if filters.is_empty()
            || filters.iter().any(|f| entry.id.eq_ignore_ascii_case(f) || entry.id.contains(f))
        {
            println!("{}", entry.build());
        }
    }
}
