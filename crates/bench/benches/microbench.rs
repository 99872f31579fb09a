//! Criterion micro-benchmarks: real CPU cost of the management-plane
//! algorithms (the virtual-time experiments live in the `exp` binary;
//! these measure the engine itself — parsing, planning, validation, lock
//! operations — on the host CPU).

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cloudless::cloud::Catalog;
use cloudless::deploy::resolver::DataResolver;
use cloudless::deploy::{diff, Plan};
use cloudless::graph::critical::CriticalPathAnalysis;
use cloudless::graph::{Dag, DagBuilder, ImpactScope, NodeId};
use cloudless::hcl::program::{expand, Manifest, ModuleLibrary, Program};
use cloudless::state::{LockManager, LockScope, ResourceLockManager, Snapshot};
use cloudless::validate::{validate, ValidationLevel};
use cloudless_bench::workloads;

fn manifest_of(src: &str) -> Manifest {
    let p = Program::from_file(cloudless::hcl::parse(src, "b").unwrap()).unwrap();
    expand(
        &p,
        &BTreeMap::new(),
        &ModuleLibrary::new(),
        &DataResolver::new(),
    )
    .unwrap()
}

fn bench_frontend(c: &mut Criterion) {
    let mut g = c.benchmark_group("hcl_frontend");
    for n in [50usize, 200, 1000] {
        let src = workloads::random_dag(n, 42);
        g.bench_with_input(BenchmarkId::new("parse+expand", n), &src, |b, src| {
            b.iter(|| manifest_of(src));
        });
    }
    g.finish();
}

fn bench_planning(c: &mut Criterion) {
    let mut g = c.benchmark_group("planning");
    let catalog = Catalog::standard();
    let data = DataResolver::new();
    for n in [50usize, 200, 1000] {
        let m = manifest_of(&workloads::random_dag(n, 42));
        let state = Snapshot::new();
        g.bench_with_input(BenchmarkId::new("diff+plan", n), &m, |b, m| {
            b.iter(|| {
                let changes = diff(m, &state, &catalog, &data);
                Plan::build(changes, &state, &catalog)
            });
        });
    }
    g.finish();
}

fn bench_graph_algorithms(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph");
    for n in [200usize, 2000] {
        // layered random DAG
        let mut builder: DagBuilder<u64> = DagBuilder::with_capacity(n);
        let ids: Vec<NodeId> = (0..n)
            .map(|i| builder.add_node((i % 97) as u64 + 1))
            .collect();
        for i in 1..n {
            for d in 1..=3.min(i) {
                let _ = builder.add_edge(ids[i - d], ids[i]);
            }
        }
        let dag: Dag<u64> = builder.seal().unwrap();
        g.bench_with_input(BenchmarkId::new("critical_path", n), &dag, |b, dag| {
            b.iter(|| CriticalPathAnalysis::compute(dag, |_, &w| w).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("impact_scope", n), &dag, |b, dag| {
            b.iter(|| ImpactScope::compute(dag, [NodeId((n / 2) as u32)]));
        });
    }
    g.finish();
}

fn bench_validation(c: &mut Criterion) {
    let mut g = c.benchmark_group("validation");
    let catalog = Catalog::standard();
    for n in [50usize, 200] {
        let m = manifest_of(&workloads::random_dag(n, 42));
        g.bench_with_input(BenchmarkId::new("cloud_rules", n), &m, |b, m| {
            b.iter(|| validate(m, &catalog, ValidationLevel::CloudRules, None));
        });
    }
    g.finish();
}

fn bench_locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("locks");
    let mgr = ResourceLockManager::new();
    let scope =
        || LockScope::of((0..3).map(|i| format!("aws_virtual_machine.r{i}").parse().unwrap()));
    g.bench_function("acquire_release_uncontended", |b| {
        b.iter(|| {
            let guard = mgr.acquire(scope());
            drop(guard);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_frontend,
    bench_planning,
    bench_graph_algorithms,
    bench_validation,
    bench_locks
);
criterion_main!(benches);
