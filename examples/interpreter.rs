//! Simultaneous interpretation (the paper's §1 NLP motivating example):
//! word-level sentence prediction where all words of a sentence share one
//! sentence-wide deadline (§3.2 step 2).
//!
//! Demonstrates the shared-budget mechanics: slow words shrink the
//! deadlines of the words after them, and ALERT compensates by switching
//! to faster RNNs (or earlier anytime stages) mid-sentence.
//!
//! Run with: `cargo run --release --example interpreter`

use alert::platform::Platform;
use alert::sched::runtime::{Runtime, SessionSpec};
use alert::sched::{EpisodeEnv, FamilyKind};
use alert::stats::units::{Seconds, Watts};
use alert::workload::{Goal, InputStream, Scenario, TaskId};
use std::sync::Arc;

fn main() {
    let platform = Platform::cpu1();

    // Per-word budget of 60 ms: a 20-word sentence gets 1.2 s, inside the
    // 2-4 s window simultaneous interpretation tolerates (paper §1).
    let per_word = Seconds(0.060);
    let goal = Goal::minimize_error(per_word, Watts(25.0) * per_word);

    // One frozen environment shared by both schemes: the session
    // builder's `.on(stream, env)` step exists exactly for such
    // comparisons.
    let stream = InputStream::generate(TaskId::Nlp1, 1500, 99);
    let scenario = Scenario::compute_env(3);
    let mut rt = Runtime::builder()
        .platform(platform.id())
        .family(FamilyKind::Sentence)
        .build()
        .expect("builtin policy");
    let env =
        Arc::new(EpisodeEnv::build(rt.node(), &scenario, &stream, &goal, 99, None).expect("valid"));

    let alert_id = rt
        .session(SessionSpec::external(goal))
        .policy("ALERT")
        .on(stream.clone(), env.clone())
        .open()
        .expect("open ALERT");
    let sys_id = rt
        .session(SessionSpec::external(goal))
        .policy("Sys-only")
        .on(stream.clone(), env)
        .open()
        .expect("open Sys-only");
    let episodes = rt.drain().expect("drain");
    let ep = &episodes.iter().find(|(id, _)| *id == alert_id).unwrap().1;
    let ep_sys = &episodes.iter().find(|(id, _)| *id == sys_id).unwrap().1;

    // Count sentences and sentence-level deadline performance.
    let sentences = stream
        .inputs()
        .iter()
        .filter(|i| i.group.map(|g| g.is_last()).unwrap_or(false))
        .count();
    println!(
        "{} words in {} sentences, compute contention on/off, 60 ms/word budget\n",
        stream.len(),
        sentences
    );
    for e in [&ep, &ep_sys] {
        println!(
            "{:<10} avg perplexity {:>7.1} | word-deadline misses {:>5.2}% | avg energy {:>5.2} J/word",
            e.scheme,
            -e.summary.avg_quality,
            e.summary.deadline_miss_rate * 100.0,
            e.summary.avg_energy.get(),
        );
    }

    // Show the shared-budget dynamics on one long sentence: find the
    // longest sentence and print the per-word deadlines ALERT faced.
    let longest = stream
        .inputs()
        .iter()
        .enumerate()
        .filter_map(|(i, inp)| inp.group.map(|g| (i, g)))
        .max_by_key(|(_, g)| g.group_len)
        .expect("grouped stream");
    let start = longest.0 - longest.1.member_idx;
    let len = longest.1.group_len;
    println!("\nlongest sentence ({len} words) under ALERT — per-word deadlines adapt:");
    print!("  deadlines (ms):");
    for r in &ep.records[start..start + len.min(14)] {
        print!(" {:>5.1}", r.deadline.get() * 1e3);
    }
    if len > 14 {
        print!(" ...");
    }
    println!();
    print!("  models        :");
    for r in &ep.records[start..start + len.min(14)] {
        let short = r.model.rsplit('_').next().unwrap_or(&r.model);
        print!(" {short:>5}");
    }
    if len > 14 {
        print!(" ...");
    }
    println!();
    println!("\n(slow words shrink later deadlines; ALERT downshifts models mid-sentence.)");
}
