//! The `pagecross` command-line tool: single runs, scheme-comparison
//! campaigns and trace recordings from the shell. See `pagecross help`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match pagecross_bench::cli::parse(&args) {
        Ok(cmd) => std::process::exit(pagecross_bench::cli::execute(cmd)),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", pagecross_bench::cli::USAGE);
            std::process::exit(2);
        }
    }
}
