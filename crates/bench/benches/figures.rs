//! Every paper figure, table and ablation from one registry:
//! `cargo bench -p pagecross-bench --bench figures -- [id ...]` (no ids:
//! all). See `pagecross_bench::figures`.

fn main() {
    std::process::exit(pagecross_bench::figures::main(std::env::args().skip(1)));
}
