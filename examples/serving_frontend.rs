//! The serving front-end in one page: a frozen request storm replayed
//! against a 2-shard runtime under three admission policies.
//!
//! An offered-load generator (Poisson arrivals here) produces a *storm*
//! — a pre-materialized, seeded request sequence, so every policy faces
//! the bit-identical arrivals. Each request is routed round-robin to a
//! shard with a bounded queue; an [`AdmissionPolicy`] then decides per
//! request:
//!
//! * **admit** — run at full quality,
//! * **degrade** — admit under a `GoalPatch`-downgraded quality floor
//!   (ALERT only: when the controller's belief says full quality will
//!   miss the deadline but a degraded run will make it), or
//! * **shed** — reject up front (when even the degraded form is
//!   predicted to miss anyway, or the queue is full).
//!
//! Always-admit and FIFO/drop-tail are the baselines. Under overload,
//! ALERT's belief-driven admission turns queue collapse (everything
//! admitted, everything late) into useful goodput.
//!
//! Run with: `cargo run --release --example serving_frontend`

use alert::sched::prelude::*;
use alert::stats::units::Seconds;

fn main() {
    // An energy-minimizing goal with a 400 ms deadline and a 0.9
    // quality floor, served on two shards.
    let config = ServingConfig::new(Goal::minimize_energy(Seconds(0.4), 0.9));

    // A storm at roughly 2x the sustainable rate: ~1 s of service per
    // request (6 inputs) across 2 shards vs a 500 ms mean gap.
    let spec = StormSpec {
        arrival: ArrivalProcess::Poisson { rate_scale: 1.0 },
        n_requests: 80,
        mean_gap: Seconds(0.5),
        seed: 2020,
    };

    println!(
        "{:>14} {:>8} {:>9} {:>6} {:>9} {:>10}",
        "policy", "admitted", "degraded", "shed", "goodput", "miss(adm)"
    );
    for name in ["Always-admit", "Drop-tail", "ALERT"] {
        // Fresh storm, runtime, and policy per run: the storm replays
        // bit-identically, so the comparison is exact.
        let storm = generate_storm(&spec, None).expect("valid storm");
        let mut rt = Runtime::builder()
            .seed(7)
            .build_sharded(2)
            .expect("builtin policies resolve");
        let mut policy = admission_policy(name, &rt).expect("known policy");
        let report = serve(&mut rt, &config, &storm, &mut policy).expect("serving runs");
        println!(
            "{:>14} {:>8} {:>9} {:>6} {:>9.3} {:>10.3}",
            name,
            report.admitted(),
            report.degraded(),
            report.shed(),
            report.goodput(),
            report.miss_rate_admitted(),
        );
    }

    // The same decisions, request by request, for the ALERT policy:
    // each outcome records the verdict, the effective quality floor in
    // force (degraded if a patch was applied at admission), and the
    // predicted miss probability behind a shed.
    let storm = generate_storm(&spec, None).expect("valid storm");
    let mut rt = Runtime::builder()
        .seed(7)
        .build_sharded(2)
        .expect("builtin policies resolve");
    let mut policy = admission_policy("ALERT", &rt).expect("known policy");
    let report = serve(&mut rt, &config, &storm, &mut policy).expect("serving runs");
    println!("\nfirst ten ALERT verdicts:");
    for o in report.outcomes.iter().take(10) {
        println!(
            "  request {:>2} @ {:>6.3}s on shard {}: {:?} (floor {:?})",
            o.index,
            o.arrival.get(),
            o.shard,
            o.verdict,
            o.effective_min_quality,
        );
    }
    println!("\nstorm fingerprint: {:016x}", report.fingerprint());
}
