//! Figure 3: code generation time for the paper's five PLAN-P programs.
//!
//! The paper measures the Tempo-generated run-time specializer
//! assembling machine-code templates on a 1998 SPARC (6–34 ms). We
//! measure our register-bytecode JIT on the equivalent five programs;
//! absolute numbers are microseconds on modern hardware, and the shape
//! to check is that generation time scales with program size in the
//! same order as the paper's table.

use criterion::{criterion_group, criterion_main, Criterion};
use planp_bench::paper_programs;
use planp_lang::compile_front;
use planp_vm::jit;
use std::hint::black_box;
use std::rc::Rc;

fn bench_codegen(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_codegen");
    for (name, src, _policy) in paper_programs() {
        let prog = Rc::new(compile_front(src).expect("front end"));
        group.bench_function(name, |b| {
            b.iter(|| {
                let (compiled, stats) = jit::compile(black_box(prog.clone()));
                black_box((compiled.channels.len(), stats.nodes))
            })
        });
    }
    // The full download path (parse + check + verify + compile), for
    // context: this is what a router actually does on program arrival.
    for (name, src, policy) in paper_programs() {
        group.bench_function(format!("full_download/{name}"), |b| {
            b.iter(|| {
                let lp = planp_runtime::load(black_box(src), policy).expect("loads");
                black_box(lp.lines)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_codegen
}
criterion_main!(benches);
