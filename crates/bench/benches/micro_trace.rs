//! Trace record/replay microbenchmarks: encode throughput, and blocking vs
//! background-thread (double-buffered) decode — with a second hardware
//! thread the streaming reader must be no slower than the blocking one,
//! and under a consumer that does real work per instruction it should win
//! by overlapping decode with simulation. On a single-core machine
//! `TraceReplay::build` picks the blocking reader, so the `streaming` row
//! of `trace_replay_sim` matches `blocking` there. Runs on the in-repo
//! [`pagecross_bench::microbench`] harness.

use pagecross_bench::microbench::{black_box, Micro};
use pagecross_cpu::trace::{TraceFactory, TraceSource};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind, SimulationBuilder};
use pagecross_trace::{read_all, record, BlockingSource, StreamingSource, TraceReplay};
use pagecross_workloads::{suite, SuiteId};
use std::path::{Path, PathBuf};

const TRACE_LEN: u64 = 200_000;

/// Records a fresh trace of the benchmark workload into the temp dir.
fn recorded_trace() -> PathBuf {
    let w = &suite(SuiteId::Gap).workloads()[0];
    let path =
        std::env::temp_dir().join(format!("pct-micro-{}-{}.pct", std::process::id(), w.name()));
    record(w, TRACE_LEN, w.params().seed, &path).expect("recording the bench trace");
    path
}

fn drain<S: TraceSource + ?Sized>(src: &mut S, n: u64) -> u64 {
    let mut acc = 0u64;
    for _ in 0..n {
        acc = acc.wrapping_add(src.next_instr().pc);
    }
    acc
}

fn bench_decode(c: &mut Micro, path: &Path) {
    let mut g = c.benchmark_group("trace_decode");
    g.throughput(TRACE_LEN);
    g.bench_function("read_all", |b| {
        b.iter(|| black_box(read_all(path).expect("verified trace").1.len()));
    });
    g.bench_function("blocking_source", |b| {
        b.iter(|| {
            let mut src = BlockingSource::open(path).expect("verified trace");
            black_box(drain(&mut src, TRACE_LEN))
        });
    });
    g.bench_function("streaming_source", |b| {
        b.iter(|| {
            let mut src = StreamingSource::spawn(path).expect("verified trace");
            black_box(drain(&mut src, TRACE_LEN))
        });
    });
    g.finish();
}

fn bench_replay_sim(c: &mut Micro, path: &Path) {
    // The case streaming exists for: decode overlapping a consumer that
    // does real work per instruction (the simulation engine).
    let sim = |factory: &dyn TraceFactory| {
        SimulationBuilder::new()
            .prefetcher(PrefetcherKind::Berti)
            .pgc_policy(PgcPolicyKind::Dripper)
            .warmup(5_000)
            .instructions(20_000)
            .run_workload(factory)
    };
    let mut g = c.benchmark_group("trace_replay_sim");
    g.throughput(25_000);
    g.sample_size(10);
    g.bench_function("blocking", |b| {
        let replay = TraceReplay::open(path).expect("verified trace").blocking();
        b.iter(|| black_box(sim(&replay).core.cycles));
    });
    g.bench_function("streaming", |b| {
        let replay = TraceReplay::open(path).expect("verified trace");
        b.iter(|| black_box(sim(&replay).core.cycles));
    });
    g.finish();
}

fn bench_record(c: &mut Micro) {
    let w = &suite(SuiteId::Gap).workloads()[1];
    let path = std::env::temp_dir().join(format!("pct-micro-rec-{}.pct", std::process::id()));
    let mut g = c.benchmark_group("trace_record");
    g.throughput(50_000);
    g.bench_function("record_50k", |b| {
        b.iter(|| {
            let meta = record(w, 50_000, w.params().seed, &path).expect("recording");
            black_box(meta.instr_count)
        });
    });
    g.finish();
    std::fs::remove_file(&path).ok();
}

fn main() {
    let path = recorded_trace();
    let mut m = Micro::from_env();
    bench_record(&mut m);
    bench_decode(&mut m, &path);
    bench_replay_sim(&mut m, &path);
    std::fs::remove_file(&path).ok();
}
