//! §3.1's synthesis pipeline, live: an intent ("two web VMs on Azure, a
//! Postgres database, an assets bucket") becomes a *valid* program via
//! type-guided dependency closure — and deploys on the first try.
//!
//! For contrast, the unguided baseline (hallucination modeled at 30%) is
//! also run; its failure is translated by the §3.5 error machinery.
//!
//! ```text
//! cargo run --example synthesize
//! ```

use cloudless::cloud::CloudConfig;
use cloudless::synth::{synthesize, unguided_baseline, Intent, SynthConfig, WantedResource};
use cloudless::types::Value;
use cloudless::{Cloudless, Config};

fn main() {
    let intent = Intent::new(vec![
        WantedResource::new("azure_virtual_machine", 2, "web")
            .with_attr("size", Value::from("Standard_D2s")),
        WantedResource::new("azure_sql_database", 1, "appdb"),
        WantedResource::new("azure_storage_account", 1, "assets"),
    ])
    .in_region("westeurope");

    println!("intent: 2 web VMs + a SQL database + a storage account, westeurope\n");

    let engine = Cloudless::new(Config {
        cloud: CloudConfig::exact(),
        ..Config::default()
    });
    let catalog = engine.cloud().catalog().clone();

    // -- the cloudless synthesizer --
    let guided = synthesize(&intent, &catalog, None, &SynthConfig::default());
    println!(
        "=== synthesized program (valid: {}, attempts: {}) ===",
        guided.valid, guided.attempts
    );
    println!("{}", guided.source);

    // -- deploy it --
    let mut engine = engine;
    let outcome = engine
        .converge(&guided.source)
        .expect("synthesized program converges");
    assert!(outcome.apply.all_ok());
    println!(
        "deployed {} resources in {} (virtual) — first try\n",
        engine.state().len(),
        outcome.apply.makespan()
    );

    // -- the baseline, for contrast --
    let mut invalid = 0;
    const RUNS: u64 = 10;
    for seed in 0..RUNS {
        if !unguided_baseline(&intent, &catalog, 0.3, seed).valid {
            invalid += 1;
        }
    }
    println!(
        "the unguided baseline (30% hallucination, no dependency closure)\n\
         produced invalid programs in {invalid}/{RUNS} runs; one sample failure:"
    );
    let sample = (0..RUNS)
        .map(|seed| unguided_baseline(&intent, &catalog, 0.3, seed))
        .find(|r| !r.valid);
    if let Some(bad) = sample {
        // what `cloudless validate` says: `plan` on a fresh engine
        match Cloudless::new(Config::default()).plan(&bad.source, &[]) {
            Ok(planned) => {
                for d in planned.validation.diagnostics.iter().take(3) {
                    println!("  {d}");
                }
            }
            Err(refused) => {
                for line in refused.to_string().lines().take(4) {
                    println!("  {line}");
                }
            }
        }
    }
}
